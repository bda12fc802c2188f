package sql

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestValuesTruthTable states what VALUES stores, by hand: the conversions
// between numeric types, NULL and booleans, folded expressions, column
// lists, and the error texts and the stage (parse or execution) that
// reports them.
func TestValuesTruthTable(t *testing.T) {
	s := testSession(t)
	mustExec(t, s, `CREATE TABLE v (k INT, i INT, f FLOAT, s VARCHAR, b BOOL) WITH (DISTRIBUTION = k)`)
	for _, c := range []struct {
		insert string
		want   []any // k, i, f, s, b
	}{
		{`INSERT INTO v (k, i) VALUES (1, 2.9)`, []any{int64(1), int64(2), nil, nil, nil}},
		{`INSERT INTO v (k, i) VALUES (2, -2.9)`, []any{int64(2), int64(-2), nil, nil, nil}},
		{`INSERT INTO v (k, f) VALUES (3, 7)`, []any{int64(3), nil, 7.0, nil, nil}},
		{`INSERT INTO v VALUES (4, NULL, NULL, NULL, NULL)`, []any{int64(4), nil, nil, nil, nil}},
		{`INSERT INTO v (k, b) VALUES (5, TRUE)`, []any{int64(5), nil, nil, nil, true}},
		{`INSERT INTO v (k, b) VALUES (6, FALSE)`, []any{int64(6), nil, nil, nil, false}},
		{`INSERT INTO v (k, i) VALUES (7, 1 + 2 * 3)`, []any{int64(7), int64(7), nil, nil, nil}},
		{`INSERT INTO v (k, i) VALUES (8, -(2))`, []any{int64(8), int64(-2), nil, nil, nil}},
		{`INSERT INTO v (s, k) VALUES ('it''s', 9)`, []any{int64(9), nil, nil, "it's", nil}},
		{`INSERT INTO v VALUES (10, -3, -0.5, '', TRUE)`, []any{int64(10), int64(-3), -0.5, "", true}},
	} {
		if r := mustExec(t, s, c.insert); r.RowsAffected != 1 {
			t.Fatalf("%s: %d rows affected", c.insert, r.RowsAffected)
		}
		q := mustExec(t, s, fmt.Sprintf(`SELECT k, i, f, s, b FROM v WHERE k = %d`, c.want[0]))
		if q.Batch.NumRows() != 1 {
			t.Fatalf("%s: %d rows stored", c.insert, q.Batch.NumRows())
		}
		if got := q.Batch.Row(0); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: stored %#v, want %#v", c.insert, got, c.want)
		}
	}

	for _, c := range []struct {
		insert  string
		atParse bool
		err     string
	}{
		{`INSERT INTO v (k, s) VALUES (11, 12)`, false, "colfile: cannot append int64 to string column"},
		{`INSERT INTO v (k, i) VALUES (11, 'x')`, false, "colfile: cannot append string to int64 column"},
		{`INSERT INTO v (k, i) VALUES (11, 2), (12, 3, 4)`, false, "sql: row has 3 values, expected 2"},
		{`INSERT INTO v (k) VALUES (99999999999999999999)`, true, `sql: bad number "99999999999999999999"`},
		{`INSERT INTO v (k, nosuch) VALUES (11, 1)`, false, `sql: unknown column "nosuch"`},
	} {
		_, perr := Parse(c.insert)
		if (perr != nil) != c.atParse {
			t.Fatalf("%s: parse error %v, want one: %v", c.insert, perr, c.atParse)
		}
		_, err := s.Exec(c.insert)
		if err == nil || err.Error() != c.err {
			t.Fatalf("%s: error %v, want %q", c.insert, err, c.err)
		}
	}
	if q := mustExec(t, s, `SELECT COUNT(*) FROM v`); q.Batch.Row(0)[0] != int64(10) {
		t.Fatalf("a failed INSERT stored rows: %v rows, want 10", q.Batch.Row(0)[0])
	}
}

// dmInsert writes an n-row INSERT shaped like the data-maintenance
// transactions' (LST-Bench, paper Figs 10–11): orders rows of six cells,
// lineitem rows of eleven.
func dmInsert(table string, n int) string {
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + table + " VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		if table == "orders" {
			fmt.Fprintf(&sb, "(%d, %d, 'O', %.2f, %d, '%s')",
				8001+i, 1+rng.Intn(800), float64(1000+rng.Intn(4000)), 8000+rng.Intn(2500), "3-MEDIUM")
			continue
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, 1, %d, %.2f, 0.0%d, 0.0%d, 'N', 'O', %d)",
			8001+i, 1+rng.Intn(2000), 1+rng.Intn(100), 1+rng.Intn(50),
			float64(1000+rng.Intn(90000)), rng.Intn(10), rng.Intn(9), 8000+rng.Intn(2500))
	}
	return sb.String()
}

// TestParseInsertAllocs gates the VALUES parse path: a 64-row lineitem
// INSERT parses in a handful of allocations however many cells it has —
// one token slice, one cell list, no boxed literal per cell.
func TestParseInsertAllocs(t *testing.T) {
	src := dmInsert("lineitem", 64)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("parsing a 64-row INSERT took %.0f allocations, want at most 32", allocs)
	}
}

func BenchmarkParseInsertValues(b *testing.B) {
	for _, table := range []string{"orders", "lineitem"} {
		src := dmInsert(table, 64)
		b.Run(table, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
