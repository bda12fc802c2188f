package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/objectstore"
)

func testSession(t testing.TB) *Session {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Distributions = 4
	opts.RowsPerFile = 1000
	opts.RowsPerGroup = 100
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 2})
	eng := core.NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)
	return NewSession(eng)
}

func mustExec(t testing.TB, s *Session, q string) *Result {
	t.Helper()
	res, err := s.Exec(q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func mustParse(t testing.TB, q string) Statement {
	t.Helper()
	st, err := Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return st
}

func seed(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE items (id INT, name VARCHAR, price FLOAT, active BOOL) WITH (DISTRIBUTION = id, SORTCOL = id)`)
	mustExec(t, s, `INSERT INTO items VALUES
		(1, 'apple', 1.5, TRUE),
		(2, 'banana', 0.5, TRUE),
		(3, 'cherry', 3.0, FALSE),
		(4, 'date', 7.25, TRUE),
		(5, 'elderberry', 12.0, FALSE)`)
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "SELEC * FROM t", "SELECT FROM t", "SELECT * FROM", "INSERT INTO",
		"CREATE TABLE t (a FROB)", "SELECT * FROM t WHERE", "DELETE t",
		"SELECT 'unterminated FROM t", "SELECT * FROM t GROUP",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("accepted %q", q)
		}
	}
}

func TestLexerComments(t *testing.T) {
	st, err := Parse("SELECT * FROM t -- trailing comment")
	if err != nil || st == nil {
		t.Fatalf("comment handling: %v", err)
	}
	if _, err := Parse("SELECT 'it''s' AS s FROM t"); err != nil {
		t.Fatalf("escaped quote: %v", err)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	res := mustExec(t, s, `SELECT id, name, price FROM items WHERE price > 1.0 ORDER BY id`)
	if res.Batch.NumRows() != 4 { // apple, cherry, date, elderberry
		t.Fatalf("rows = %d", res.Batch.NumRows())
	}
	if res.Batch.Cols[1].Strs[0] != "apple" {
		t.Fatalf("first row = %v", res.Batch.Row(0))
	}
	if cols := res.Columns(); cols[2] != "price" {
		t.Fatalf("columns = %v", cols)
	}
}

func TestSelectStar(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	res := mustExec(t, s, `SELECT * FROM items ORDER BY id LIMIT 2`)
	if res.Batch.NumRows() != 2 || len(res.Batch.Schema) != 4 {
		t.Fatalf("rows=%d cols=%d", res.Batch.NumRows(), len(res.Batch.Schema))
	}
}

func TestWherePredicates(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	cases := []struct {
		q    string
		want int
	}{
		{`SELECT id FROM items WHERE active = TRUE`, 3},
		{`SELECT id FROM items WHERE NOT active = TRUE`, 2},
		{`SELECT id FROM items WHERE name LIKE '%rr%'`, 2}, // cherry, elderberry
		{`SELECT id FROM items WHERE name NOT LIKE '%a%'`, 2},
		{`SELECT id FROM items WHERE id IN (1, 3, 9)`, 2},
		{`SELECT id FROM items WHERE id NOT IN (1, 3)`, 3},
		{`SELECT id FROM items WHERE id BETWEEN 2 AND 4`, 3},
		{`SELECT id FROM items WHERE price >= 1.5 AND price <= 7.25`, 3},
		{`SELECT id FROM items WHERE id = 1 OR name = 'date'`, 2},
		{`SELECT id FROM items WHERE price <> 1.5`, 4},
	}
	for _, c := range cases {
		res := mustExec(t, s, c.q)
		if res.Batch.NumRows() != c.want {
			t.Fatalf("%s: rows = %d, want %d", c.q, res.Batch.NumRows(), c.want)
		}
	}
}

func TestArithmeticProjection(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	res := mustExec(t, s, `SELECT id * 10 + 1 AS x, price / 2 AS half FROM items WHERE id = 2`)
	if res.Batch.Cols[0].Ints[0] != 21 {
		t.Fatalf("x = %v", res.Batch.Row(0))
	}
	if res.Batch.Cols[1].Floats[0] != 0.25 {
		t.Fatalf("half = %v", res.Batch.Row(0))
	}
}

func TestAggregates(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	res := mustExec(t, s, `SELECT COUNT(*) AS n, SUM(price) AS total, MIN(id) AS lo, MAX(id) AS hi, AVG(price) AS mean FROM items`)
	if res.Batch.NumRows() != 1 {
		t.Fatalf("rows = %d", res.Batch.NumRows())
	}
	row := res.Batch.Row(0)
	if row[0] != int64(5) || row[2] != int64(1) || row[3] != int64(5) {
		t.Fatalf("row = %v", row)
	}
	if row[1].(float64) != 24.25 {
		t.Fatalf("sum = %v", row[1])
	}
	if row[4].(float64) != 4.85 {
		t.Fatalf("avg = %v", row[4])
	}
}

func TestGroupByHaving(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	res := mustExec(t, s, `SELECT active, COUNT(*) AS n, SUM(price) AS total
		FROM items GROUP BY active HAVING COUNT(*) > 2 ORDER BY n DESC`)
	if res.Batch.NumRows() != 1 {
		t.Fatalf("groups = %d", res.Batch.NumRows())
	}
	if res.Batch.Cols[0].Bools[0] != true || res.Batch.Cols[1].Ints[0] != 3 {
		t.Fatalf("row = %v", res.Batch.Row(0))
	}
}

func TestAggregateExpressionOverGroups(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	res := mustExec(t, s, `SELECT active, SUM(price) * 2 AS dbl FROM items GROUP BY active ORDER BY dbl`)
	if res.Batch.NumRows() != 2 {
		t.Fatalf("rows = %d", res.Batch.NumRows())
	}
	// actives: (1.5+0.5+7.25)*2 = 18.5; inactives: (3+12)*2 = 30
	if res.Batch.Cols[1].Floats[0] != 18.5 || res.Batch.Cols[1].Floats[1] != 30 {
		t.Fatalf("rows = %v %v", res.Batch.Row(0), res.Batch.Row(1))
	}
}

func TestJoin(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `CREATE TABLE orders (oid INT, item_id INT, qty INT) WITH (DISTRIBUTION = oid)`)
	mustExec(t, s, `INSERT INTO orders VALUES (100, 1, 3), (101, 2, 1), (102, 1, 2), (103, 99, 5)`)
	res := mustExec(t, s, `SELECT o.oid, i.name, o.qty FROM orders o JOIN items i ON o.item_id = i.id ORDER BY o.oid`)
	if res.Batch.NumRows() != 3 {
		t.Fatalf("rows = %d", res.Batch.NumRows())
	}
	if res.Batch.Cols[1].Strs[0] != "apple" {
		t.Fatalf("row0 = %v", res.Batch.Row(0))
	}
	// left outer keeps the dangling order
	res = mustExec(t, s, `SELECT o.oid, i.name FROM orders o LEFT JOIN items i ON o.item_id = i.id ORDER BY o.oid`)
	if res.Batch.NumRows() != 4 {
		t.Fatalf("left join rows = %d", res.Batch.NumRows())
	}
	if !res.Batch.Cols[1].IsNull(3) {
		t.Fatalf("dangling row = %v", res.Batch.Row(3))
	}
}

func TestJoinWithAggregation(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `CREATE TABLE orders (oid INT, item_id INT, qty INT) WITH (DISTRIBUTION = oid)`)
	mustExec(t, s, `INSERT INTO orders VALUES (100, 1, 3), (101, 2, 1), (102, 1, 2)`)
	res := mustExec(t, s, `SELECT i.name, SUM(o.qty) AS total FROM orders o JOIN items i ON o.item_id = i.id GROUP BY i.name ORDER BY total DESC`)
	if res.Batch.NumRows() != 2 {
		t.Fatalf("rows = %d", res.Batch.NumRows())
	}
	if res.Batch.Cols[0].Strs[0] != "apple" || res.Batch.Cols[1].Ints[0] != 5 {
		t.Fatalf("row = %v", res.Batch.Row(0))
	}
}

func TestUpdateDelete(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	res := mustExec(t, s, `UPDATE items SET price = price * 2 WHERE id <= 2`)
	if res.RowsAffected != 2 {
		t.Fatalf("updated = %d", res.RowsAffected)
	}
	q := mustExec(t, s, `SELECT SUM(price) AS s FROM items`)
	if got := q.Batch.Cols[0].Floats[0]; got != 26.25 {
		t.Fatalf("sum = %v", got)
	}
	res = mustExec(t, s, `DELETE FROM items WHERE active = FALSE`)
	if res.RowsAffected != 2 {
		t.Fatalf("deleted = %d", res.RowsAffected)
	}
	q = mustExec(t, s, `SELECT COUNT(*) AS n FROM items`)
	if q.Batch.Cols[0].Ints[0] != 3 {
		t.Fatalf("count = %v", q.Batch.Row(0))
	}
}

func TestExplicitTransactionCommit(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO items VALUES (6, 'fig', 2.0, TRUE)`)
	mustExec(t, s, `DELETE FROM items WHERE id = 1`)
	// multi-statement visibility inside the txn
	q := mustExec(t, s, `SELECT COUNT(*) AS n FROM items`)
	if q.Batch.Cols[0].Ints[0] != 5 {
		t.Fatalf("in-txn count = %v", q.Batch.Row(0))
	}
	mustExec(t, s, `COMMIT`)
	q = mustExec(t, s, `SELECT COUNT(*) AS n FROM items`)
	if q.Batch.Cols[0].Ints[0] != 5 {
		t.Fatalf("post-commit count = %v", q.Batch.Row(0))
	}
}

func TestExplicitTransactionRollback(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `DELETE FROM items WHERE id >= 1`)
	mustExec(t, s, `ROLLBACK`)
	q := mustExec(t, s, `SELECT COUNT(*) AS n FROM items`)
	if q.Batch.Cols[0].Ints[0] != 5 {
		t.Fatalf("rollback lost data: %v", q.Batch.Row(0))
	}
	if _, err := s.Exec(`COMMIT`); err == nil {
		t.Fatal("commit without txn accepted")
	}
	if _, err := s.Exec(`ROLLBACK`); err == nil {
		t.Fatal("rollback without txn accepted")
	}
}

func TestTimeTravelAndClone(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	// find the sequence after the seed insert
	st := mustExec(t, s, `SHOW STATS items`)
	seq := st.Batch.Cols[6].Ints[0]
	mustExec(t, s, `DELETE FROM items WHERE id > 2`)
	q := mustExec(t, s, `SELECT COUNT(*) AS n FROM items`)
	if q.Batch.Cols[0].Ints[0] != 2 {
		t.Fatalf("current = %v", q.Batch.Row(0))
	}
	q = mustExec(t, s, `SELECT COUNT(*) AS n FROM items AS OF `+itoa(seq))
	if q.Batch.Cols[0].Ints[0] != 5 {
		t.Fatalf("as-of = %v", q.Batch.Row(0))
	}
	mustExec(t, s, `CLONE TABLE items TO items_bak AS OF `+itoa(seq))
	q = mustExec(t, s, `SELECT COUNT(*) AS n FROM items_bak`)
	if q.Batch.Cols[0].Ints[0] != 5 {
		t.Fatalf("clone = %v", q.Batch.Row(0))
	}
	mustExec(t, s, `RESTORE TABLE items AS OF `+itoa(seq))
	q = mustExec(t, s, `SELECT COUNT(*) AS n FROM items`)
	if q.Batch.Cols[0].Ints[0] != 5 {
		t.Fatalf("restored = %v", q.Batch.Row(0))
	}
}

func itoa(n int64) string {
	return strings.TrimSpace(strings.Replace(strings.Repeat(" ", 0)+fmtInt(n), " ", "", -1))
}

func fmtInt(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		b = append([]byte{'-'}, b...)
	}
	return string(b)
}

func TestShowTables(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `CREATE TABLE zz (a INT)`)
	res := mustExec(t, s, `SHOW TABLES`)
	if res.Batch.NumRows() != 2 {
		t.Fatalf("tables = %d", res.Batch.NumRows())
	}
	if res.Batch.Cols[0].Strs[0] != "items" {
		t.Fatalf("row0 = %v", res.Batch.Row(0))
	}
}

func TestInsertSelect(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `CREATE TABLE expensive (id INT, name VARCHAR, price FLOAT, active BOOL) WITH (DISTRIBUTION = id)`)
	res := mustExec(t, s, `INSERT INTO expensive SELECT * FROM items WHERE price > 2.0`)
	if res.RowsAffected != 3 {
		t.Fatalf("inserted = %d", res.RowsAffected)
	}
	q := mustExec(t, s, `SELECT COUNT(*) AS n FROM expensive`)
	if q.Batch.Cols[0].Ints[0] != 3 {
		t.Fatalf("count = %v", q.Batch.Row(0))
	}
}

// TestInsertSelectConvertsColumns: INSERT … SELECT stores INT values into a
// FLOAT column and FLOAT values into an INT column (truncated toward zero),
// NULLs staying NULL; VARCHAR into an INT column is an error that inserts
// nothing.
func TestInsertSelectConvertsColumns(t *testing.T) {
	s := testSession(t)
	mustExec(t, s, `CREATE TABLE src (k INT, i INT, f FLOAT, s VARCHAR) WITH (DISTRIBUTION = k)`)
	mustExec(t, s, `INSERT INTO src VALUES (1, 7, 2.75, 'x'), (2, NULL, NULL, 'y'), (3, -3, -1.5, NULL)`)
	mustExec(t, s, `CREATE TABLE dst (k INT, f FLOAT, i INT) WITH (DISTRIBUTION = k)`)
	if res := mustExec(t, s, `INSERT INTO dst SELECT k, i, f FROM src`); res.RowsAffected != 3 {
		t.Fatalf("inserted = %d", res.RowsAffected)
	}
	want := [][]any{
		{int64(1), float64(7), int64(2)},
		{int64(2), nil, nil},
		{int64(3), float64(-3), int64(-1)},
	}
	check := func() {
		t.Helper()
		q := mustExec(t, s, `SELECT k, f, i FROM dst ORDER BY k`)
		if q.Batch.NumRows() != len(want) {
			t.Fatalf("rows = %d, want %d", q.Batch.NumRows(), len(want))
		}
		for r, w := range want {
			if got := q.Batch.Row(r); !reflect.DeepEqual(got, w) {
				t.Fatalf("row %d = %v, want %v", r, got, w)
			}
		}
	}
	check()
	_, err := s.Exec(`INSERT INTO dst SELECT k, f, s FROM src`)
	if err == nil || !strings.Contains(err.Error(), "cannot append string to int64 column") {
		t.Fatalf("VARCHAR into INT: err = %v", err)
	}
	check()
}

func TestInsertColumnSubset(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `INSERT INTO items (id, name) VALUES (9, 'ghost')`)
	q := mustExec(t, s, `SELECT price FROM items WHERE id = 9`)
	if !q.Batch.Cols[0].IsNull(0) {
		t.Fatalf("missing column not NULL: %v", q.Batch.Row(0))
	}
}

func TestOrderByPositionAndDesc(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	res := mustExec(t, s, `SELECT id, price FROM items ORDER BY 2 DESC LIMIT 1`)
	if res.Batch.Cols[0].Ints[0] != 5 {
		t.Fatalf("row = %v", res.Batch.Row(0))
	}
}

// TestLimitOffset: LIMIT 2 OFFSET 2, and LIMIT 9223372036854775807 OFFSET 1,
// whose LIMIT+OFFSET does not fit an int64, keeping every row after the
// first — bare, under ORDER BY and under a grouped ORDER BY.
func TestLimitOffset(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	res := mustExec(t, s, `SELECT id FROM items ORDER BY id LIMIT 2 OFFSET 2`)
	if res.Batch.NumRows() != 2 || res.Batch.Cols[0].Ints[0] != 3 {
		t.Fatalf("rows = %v", res.Batch.Cols[0].Ints)
	}
	for _, q := range []string{
		`SELECT id FROM items LIMIT 9223372036854775807 OFFSET 1`,
		`SELECT id FROM items ORDER BY id LIMIT 9223372036854775807 OFFSET 1`,
		`SELECT id, COUNT(*) AS n FROM items GROUP BY id ORDER BY id LIMIT 9223372036854775807 OFFSET 1`,
	} {
		if res := mustExec(t, s, q); res.Batch.NumRows() != 4 {
			t.Errorf("%s: %d rows, want 4", q, res.Batch.NumRows())
		}
	}
}

func TestMaintenanceStatements(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `DELETE FROM items WHERE id <= 4`)
	res := mustExec(t, s, `COMPACT TABLE items`)
	if !strings.Contains(res.Message, "compacted") {
		t.Fatalf("message = %q", res.Message)
	}
	res = mustExec(t, s, `CHECKPOINT TABLE items`)
	if !strings.Contains(res.Message, "checkpoint") {
		t.Fatalf("message = %q", res.Message)
	}
	res = mustExec(t, s, `VACUUM`)
	if !strings.Contains(res.Message, "vacuum") {
		t.Fatalf("message = %q", res.Message)
	}
	q := mustExec(t, s, `SELECT COUNT(*) AS n FROM items`)
	if q.Batch.Cols[0].Ints[0] != 1 {
		t.Fatalf("count after maintenance = %v", q.Batch.Row(0))
	}
}

func TestConflictSurfacesThroughSQL(t *testing.T) {
	s1 := testSession(t)
	seed(t, s1)
	s2 := NewSession(engineOf(s1))
	mustExec(t, s1, `BEGIN`)
	mustExec(t, s2, `BEGIN`)
	mustExec(t, s1, `DELETE FROM items WHERE id = 1`)
	mustExec(t, s2, `DELETE FROM items WHERE id = 2`)
	mustExec(t, s1, `COMMIT`)
	if _, err := s2.Exec(`COMMIT`); !catalog.IsWriteConflict(err) {
		t.Fatalf("commit err = %v", err)
	}
}

func engineOf(s *Session) *core.Engine { return s.eng }

func TestIfNotExists(t *testing.T) {
	s := testSession(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	if _, err := s.Exec(`CREATE TABLE t (a INT)`); err == nil {
		t.Fatal("duplicate create accepted")
	}
	res := mustExec(t, s, `CREATE TABLE IF NOT EXISTS t (a INT)`)
	if res.Message != "table exists" {
		t.Fatalf("message = %q", res.Message)
	}
}

func TestSessionCloseRollsBack(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `DELETE FROM items WHERE id >= 1`)
	s.Close()
	q := mustExec(t, s, `SELECT COUNT(*) AS n FROM items`)
	if q.Batch.Cols[0].Ints[0] != 5 {
		t.Fatalf("close did not roll back: %v", q.Batch.Row(0))
	}
}

func TestAmbiguousColumn(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `CREATE TABLE other (id INT, v INT) WITH (DISTRIBUTION = id)`)
	mustExec(t, s, `INSERT INTO other VALUES (1, 10)`)
	if _, err := s.Exec(`SELECT id FROM items i JOIN other o ON i.id = o.id`); err == nil {
		t.Fatal("ambiguous column accepted")
	}
	res := mustExec(t, s, `SELECT i.id FROM items i JOIN other o ON i.id = o.id`)
	if res.Batch.NumRows() != 1 {
		t.Fatalf("rows = %d", res.Batch.NumRows())
	}
}

// TestIllTypedStatementsAreErrors pins plan-or-fail: a statement whose
// expression tree has a static type error fails at plan time with
// exec.Compile's message, and one that names an unknown table or column, joins
// on a non-equality, puts two relations under one exposed name or orders by a
// column it does not output with the planner's — at every Parallelism, on the
// morsel pool and the DAG alike,
// whether or not the table holds a row, for the statement and for its EXPLAIN
// — and leaves nothing behind. These statements used to reach the scalar fallback, which indexed an
// empty Bools slice: a panic, in a pool goroutine at Parallelism > 1.
func TestIllTypedStatementsAreErrors(t *testing.T) {
	cases := []struct{ stmt, want string }{
		{`SELECT k FROM %s WHERE NOT k`, "exec: NOT of int64"},
		{`SELECT k FROM %s WHERE k AND k`, "exec: cannot apply AND to int64 and int64"},
		{`SELECT NOT k FROM %s`, "exec: NOT of int64"},
		{`SELECT k + v FROM %s`, "exec: cannot apply + to int64 and string"},
		{`SELECT k FROM %s WHERE k LIKE 'a'`, "exec: LIKE over int64"},
		{`SELECT k FROM %s WHERE NOT k LIMIT 1`, "exec: NOT of int64"},
		{`SELECT k FROM %s WHERE k AND v = 'x'`, "exec: cannot apply AND to int64 and bool"},
		{`SELECT k FROM %s WHERE k`, "exec: predicate yields int64, not bool"},
		{`SELECT COUNT(*) FROM %s WHERE k`, "exec: predicate yields int64, not bool"},
		{`SELECT nosuch FROM %s`, `sql: unknown column "nosuch"`},
		{`SELECT t.k FROM %s t JOIN nosuch n ON t.k = n.k`, "catalog: table not found: nosuch"},
		{`SELECT a.k FROM %[1]s a JOIN %[1]s b ON a.k < b.k`, "sql: JOIN ON supports equality conjunctions only"},
		{`SELECT COUNT(*) FROM %[1]s JOIN %[1]s ON %[1]s.k = %[1]s.k`, `sql: two FROM relations share the exposed name "%[1]s"; use distinct aliases`},
		{`SELECT a.k FROM %[1]s a JOIN %[1]s A ON a.k = A.k`, `sql: two FROM relations share the exposed name "A"; use distinct aliases`},
		{`SELECT x.k FROM %s x JOIN dim x ON x.k = x.k`, `sql: two FROM relations share the exposed name "x"; use distinct aliases`},
		{`SELECT a.k FROM %s a JOIN dim d ON a.k = d.f`, "sql: JOIN key a.k (int64) and d.f (float64) have different types"},
		{`SELECT a.k FROM %s a JOIN dim d ON d.k = a.v`, "sql: JOIN key a.v (string) and d.k (int64) have different types"},
		{`SELECT k FROM %s ORDER BY v`, `sql: ORDER BY column "v" not in output`},
		{`SELECT k, COUNT(*) FROM %s GROUP BY k ORDER BY v`, `sql: ORDER BY column "v" not in output`},
		{`SELECT SUM(v) FROM %s`, "exec: SUM over string"},
		{`SELECT k, AVG(v) FROM %s GROUP BY k`, "exec: AVG over string"},
		{`SELECT k FROM %s GROUP BY k HAVING SUM(k = 1) > 0`, "exec: SUM over bool"},
		{`DELETE FROM %s WHERE NOT k`, "exec: NOT of int64"},
		{`DELETE FROM %s WHERE k AND k`, "exec: cannot apply AND to int64 and int64"},
		{`UPDATE %s SET k = NOT k`, "exec: NOT of int64"},
		{`UPDATE %s SET v = 'x' WHERE NOT k`, "exec: NOT of int64"},
	}
	for _, par := range []int{1, 4} {
		for _, distributed := range []bool{false, true} {
			t.Run(fmt.Sprintf("dop%d/dag=%v", par, distributed), func(t *testing.T) {
				env := newDagEnv(t, func(o *core.Options) {
					o.Parallelism = par
					o.DistributedQueries = distributed
				})
				const rows = 300 // several files per distribution, so several morsels
				for _, table := range []string{"full", "empty"} {
					mustExec(t, env.sess, `CREATE TABLE `+table+` (k INT, v VARCHAR) WITH (DISTRIBUTION = k)`)
				}
				mustExec(t, env.sess, `CREATE TABLE dim (k INT, f FLOAT) WITH (DISTRIBUTION = k)`)
				var sb strings.Builder
				sb.WriteString("INSERT INTO full VALUES ")
				for i := 0; i < rows; i++ {
					if i > 0 {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%d, 'v%d')", i, i%7)
				}
				mustExec(t, env.sess, sb.String())

				for _, c := range cases {
					for _, table := range []string{"full", "empty"} {
						q, want := fmt.Sprintf(c.stmt, table), strings.ReplaceAll(c.want, "%[1]s", table)
						if _, err := env.sess.Exec(q); err == nil || err.Error() != want {
							t.Errorf("%s: err = %v, want %q", q, err, want)
						}
						// EXPLAIN renders the plan execution runs, so a SELECT
						// that cannot be planned has no EXPLAIN either.
						if strings.HasPrefix(q, "SELECT") {
							if _, err := env.sess.Exec("EXPLAIN " + q); err == nil || err.Error() != want {
								t.Errorf("EXPLAIN %s: err = %v, want %q", q, err, want)
							}
						}
						assertNoSpillLeaks(t, env.store, "after "+q)
						if got := env.eng.Fabric.LeasedSlots(); got != 0 {
							t.Fatalf("%s: %d fabric slots still leased", q, got)
						}
					}
				}
				// The failed DML changed nothing and the session still works.
				res := mustExec(t, env.sess, `SELECT COUNT(*), SUM(k) FROM full`)
				if got := res.Batch.Row(0); got[0] != int64(rows) || got[1] != int64(rows*(rows-1)/2) {
					t.Fatalf("table changed under failed statements: %v", got)
				}
			})
		}
	}
}

// TestValuesEvaluateLikeSelect pins INSERT … VALUES to SELECT's evaluator: a
// non-literal cell folds with the same kernels, NULL semantics and error text
// as the same expression in a select list, and a column reference is an
// unknown column.
func TestValuesEvaluateLikeSelect(t *testing.T) {
	s := testSession(t)
	mustExec(t, s, `CREATE TABLE t (k INT, v INT) WITH (DISTRIBUTION = k)`)
	mustExec(t, s, `INSERT INTO t VALUES (7 % 2, 1), (NULL + 1, 2), (-3 * 2, 3)`)
	res := mustExec(t, s, `SELECT k, v FROM t ORDER BY v`)
	if got, want := fmt.Sprint(rowsOf(res)), "[[1 1] [<nil> 2] [-6 3]]"; got != want {
		t.Errorf("VALUES rows = %s, want %s", got, want)
	}
	sel := mustExec(t, s, `SELECT 7 % 2, NULL + 1 FROM t WHERE v = 1`)
	if got, want := fmt.Sprint(rowsOf(sel)), "[[1 <nil>]]"; got != want {
		t.Errorf("SELECT 7 %% 2, NULL + 1 = %s, want %s", got, want)
	}
	for _, c := range []struct{ values, selectList, want string }{
		{`(1 / 0, 3)`, `1 / 0`, "exec: integer division by zero"},
		{`(NOT 1, 0)`, `NOT 1`, "exec: NOT of int64"},
		{`(k, 0)`, `nosuch`, `sql: unknown column "k"`},
	} {
		if _, err := s.Exec(`INSERT INTO t VALUES ` + c.values); err == nil || err.Error() != c.want {
			t.Errorf("VALUES %s: err = %v, want %q", c.values, err, c.want)
		}
		if _, err := s.Exec(`SELECT ` + c.selectList + ` FROM t`); err == nil ||
			strings.ReplaceAll(c.want, `"k"`, `"nosuch"`) != err.Error() {
			t.Errorf("SELECT %s: err = %v, want the VALUES text", c.selectList, err)
		}
	}
	if got := mustExec(t, s, `SELECT COUNT(*) FROM t`).Batch.Row(0)[0]; got != int64(3) {
		t.Fatalf("failed VALUES inserted rows: count = %v", got)
	}
}

func rowsOf(res *Result) [][]any {
	out := make([][]any, res.Batch.NumRows())
	for i := range out {
		out[i] = res.Batch.Row(i)
	}
	return out
}
