package polaris

import (
	"fmt"
	"strings"
	"testing"

	"polaris/internal/objectstore"
	"polaris/internal/sql"
)

// The executor matrix: one SELECT executor means the answer — row order
// included — does not depend on how it is computed. Every statement of every
// dataset runs on every cell of Parallelism {1,4,8} × DistributedQueries ×
// JoinMemoryBudget {0, the dataset's B}, Parallelism 1 included (it is the
// same plan with one worker), and must render identical bytes in every cell,
// leak no spill blob or worker slot, spill nothing at budget 0, and make the
// same plan choices (top-N pushdown, join spills, rows pruned by runtime
// filters) in every cell of a budget, on the morsel pool and the task DAG
// alike. A statement's optional fields add what it must produce.

type matrixStmt struct {
	sql string
	// float marks SUM/AVG over a float column: summation order follows the
	// morsel split, so bytes are compared per fixed Parallelism only.
	float bool
	// want, when set, is the rendering every cell must produce; wantErr the
	// error every cell must return instead of rows.
	want, wantErr string
	// rows, when > 0, is the row count every cell must return; nonEmpty asks
	// for at least one row, so that the identity compares something.
	rows     int
	nonEmpty bool
	// topN says the statement pushes top-N below the merge at every
	// Parallelism, 1 included; a statement without it must not.
	topN bool
	// spills, when > 0, is the exact number of builds that spill at B.
	spills int64
	// affected is the DML row count every cell must report (0 for a query).
	affected int64
}

// matrixDataset is one database and the statements run over it, in order:
// a DML statement changes what the statements after it see, the same way in
// every cell.
type matrixDataset struct {
	name string
	// distributions, rowsPerFile and rowsPerGroup lay the tables out (0: the
	// default).
	distributions, rowsPerFile, rowsPerGroup int
	setup                                    func(t *testing.T, db *DB)
	// budget is B, the JoinMemoryBudget of the spilling cells (0: there are
	// none).
	budget int64
	stmts  []matrixStmt
	// check, when set, holds a cell's counters to the dataset's own claims
	// once every statement has run on it.
	check func(db *DB, budget int64) error
}

func (ds matrixDataset) open(t *testing.T, parallelism int, dag bool, budget int64) *DB {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Parallelism = parallelism
	cfg.DistributedQueries = dag
	cfg.JoinMemoryBudget = budget
	if ds.distributions > 0 {
		cfg.Distributions = ds.distributions
	}
	if ds.rowsPerFile > 0 {
		cfg.RowsPerFile = ds.rowsPerFile
	}
	if ds.rowsPerGroup > 0 {
		cfg.RowsPerGroup = ds.rowsPerGroup
	}
	db := Open(cfg)
	ds.setup(t, db)
	return db
}

// execAll is a setup that runs stmts in order.
func execAll(stmts ...string) func(*testing.T, *DB) {
	return func(_ *testing.T, db *DB) {
		for _, st := range stmts {
			db.MustExec(st)
		}
	}
}

func renderRows(r *Rows) string {
	out := fmt.Sprintf("%v\n", r.Columns())
	for i := 0; i < r.Len(); i++ {
		out += fmt.Sprintf("%v\n", r.Row(i))
	}
	return out
}

func TestExecutorMatrixIdentity(t *testing.T) {
	for _, ds := range []matrixDataset{matrixData, threeValuedData, groupedOrderData, plannerData} {
		t.Run(ds.name, func(t *testing.T) { runMatrix(t, ds) })
	}
}

// runMatrix runs every statement of ds on every cell and checks it. A
// dataset whose B is 0 runs the unlimited cells only.
func runMatrix(t *testing.T, ds matrixDataset) {
	type choices struct{ topN, joinSpills, filtered int64 }
	type cell struct {
		name        string
		parallelism int
		budget      int64
		db          *DB
	}
	budgets := []int64{0}
	if ds.budget > 0 {
		budgets = append(budgets, ds.budget)
	}
	var cells []cell
	for _, p := range []int{1, 4, 8} {
		for _, dag := range []bool{false, true} {
			for _, budget := range budgets {
				db := ds.open(t, p, dag, budget)
				defer db.Close()
				cells = append(cells, cell{
					name:        fmt.Sprintf("parallelism=%d,dag=%v,budget=%d", p, dag, budget),
					parallelism: p, budget: budget, db: db,
				})
			}
		}
	}

	for _, st := range ds.stmts {
		parsed, err := sql.Parse(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		// A bare LIMIT stops once the completed prefix of morsels holds
		// enough rows, which leaves the morsels past the prefix that had
		// already run — and the rows their blooms pruned — to scheduling.
		sel, _ := parsed.(*sql.SelectStmt)
		bareLimit := sel != nil && sel.BareLimit()
		want := map[int]string{}           // rendering by Parallelism (one entry, key 0, unless float)
		wantChoices := map[int64]choices{} // plan choices by budget
		for _, c := range cells {
			work := &c.db.Engine().Work
			before := choices{work.TopNPushdowns.Load(), work.JoinSpills.Load(), work.RuntimeFilterRows.Load()}
			r, err := c.db.Query(st.sql)
			if st.wantErr != "" {
				if err == nil || err.Error() != st.wantErr {
					t.Errorf("%s: err = %v, want %q\nsql: %s", c.name, err, st.wantErr, st.sql)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, st.sql, err)
			}
			got := renderRows(r)
			switch {
			case st.want != "" && got != st.want:
				t.Errorf("%s: wrong result\nsql: %s\ngot:\n%s\nwant:\n%s", c.name, st.sql, got, st.want)
			case st.rows > 0 && r.Len() != st.rows:
				t.Errorf("%s: %d rows, want %d\nsql: %s", c.name, r.Len(), st.rows, st.sql)
			case st.nonEmpty && r.Len() == 0:
				t.Errorf("%s: no rows, so the identity compares nothing\nsql: %s", c.name, st.sql)
			case r.RowsAffected() != st.affected:
				t.Errorf("%s: %d rows affected, want %d\nsql: %s", c.name, r.RowsAffected(), st.affected, st.sql)
			}
			key := 0
			if st.float {
				key = c.parallelism
			}
			if ref, ok := want[key]; !ok {
				want[key] = got
			} else if got != ref {
				t.Errorf("%s: result differs from the first cell's\nsql: %s\ngot:\n%s\nwant:\n%s", c.name, st.sql, got, ref)
			}

			made := choices{work.TopNPushdowns.Load() - before.topN, work.JoinSpills.Load() - before.joinSpills,
				work.RuntimeFilterRows.Load() - before.filtered}
			if bareLimit {
				made.filtered = 0
			}
			if ref, ok := wantChoices[c.budget]; !ok {
				wantChoices[c.budget] = made
			} else if made != ref {
				t.Errorf("%s: plan choices %+v differ from %+v at the same budget\nsql: %s", c.name, made, ref, st.sql)
			}
			switch {
			case (made.topN > 0) != st.topN:
				t.Errorf("%s: top-N pushdown = %v, want %v\nsql: %s", c.name, made.topN > 0, st.topN, st.sql)
			case c.budget == 0 && made.joinSpills != 0:
				t.Errorf("%s: %d join spills under an unlimited budget\nsql: %s", c.name, made.joinSpills, st.sql)
			case c.budget > 0 && st.spills > 0 && made.joinSpills != st.spills:
				t.Errorf("%s: %d builds spilled, want %d\nsql: %s", c.name, made.joinSpills, st.spills, st.sql)
			}

			if leaked := c.db.Engine().Store.List(objectstore.SpillPrefix); len(leaked) != 0 {
				t.Fatalf("%s: %d spill/exchange blobs leaked, e.g. %s\nsql: %s", c.name, len(leaked), leaked[0], st.sql)
			}
			if n := c.db.Engine().Fabric.LeasedSlots(); n != 0 {
				t.Fatalf("%s: %d worker slots still leased\nsql: %s", c.name, n, st.sql)
			}
		}
	}
	if ds.check != nil {
		for _, c := range cells {
			if err := ds.check(c.db, c.budget); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}
}

// matrixData is the dataset of the shapes where a separate serial path used
// to disagree with the morsel plan — unordered GROUP BY, ties under ORDER BY
// agg LIMIT — and the shapes it alone used to serve: bare LIMIT, empty
// tables. a holds 600 rows over 4 distributions in six inserts, so two dozen
// small files that every Parallelism splits differently; b is a build side
// with duplicate, unmatched and NULL-tagged keys; c has three rows whose v
// runs against a's; e is empty. Values derive from the row index, so every
// cell loads identical bytes.
var matrixData = matrixDataset{
	name: "matrix", distributions: 4, rowsPerFile: 64, rowsPerGroup: 16, budget: 256,
	setup: loadMatrixTables, stmts: matrixStmts,
}

var matrixStmts = []matrixStmt{
	// Unordered GROUP BY: single key, multi key, the distribution column k,
	// with NULLs in the aggregated column.
	{sql: `SELECT s, COUNT(*) AS n, SUM(v) AS sv, MIN(id) AS lo FROM a GROUP BY s`},
	{sql: `SELECT s, v, COUNT(*) AS n FROM a GROUP BY s, v`},
	{sql: `SELECT k, COUNT(*) AS n, MAX(id) AS hi FROM a GROUP BY k`},
	{sql: `SELECT k, s, COUNT(v) AS n FROM a WHERE id % 3 = 0 GROUP BY k, s`},
	{sql: `SELECT b.tag, COUNT(*) AS n FROM a JOIN b ON a.k = b.bk GROUP BY b.tag`, spills: 1},
	{sql: `SELECT s, SUM(f) AS sf, AVG(f) AS af FROM a GROUP BY s`, float: true},
	// GROUP BY … ORDER BY agg [LIMIT]: every s group has 120 rows, so the
	// order and the top-N cut are decided by the tie-break alone.
	{sql: `SELECT s, COUNT(*) AS n FROM a GROUP BY s ORDER BY n`},
	{sql: `SELECT s, COUNT(*) AS n FROM a GROUP BY s ORDER BY n LIMIT 2`},
	{sql: `SELECT s, COUNT(*) AS n FROM a GROUP BY s ORDER BY n DESC LIMIT 2 OFFSET 1`},
	{sql: `SELECT v, COUNT(*) AS n, MIN(s) AS ms FROM a GROUP BY v ORDER BY ms LIMIT 3`},
	// ORDER BY over a projection, for the plan-choice counters.
	{sql: `SELECT id, v FROM a ORDER BY v, id LIMIT 9 OFFSET 4`, topN: true},
	{sql: `SELECT a.id, b.tag FROM a JOIN b ON a.k = b.bk ORDER BY a.id DESC LIMIT 20`, topN: true},
	// Bare LIMIT/OFFSET: at 0, inside the first file, on file and row-group
	// boundaries (files hold at most 64 rows, row groups 16), spanning many
	// files, at and past the end, behind a filter.
	{sql: `SELECT id, s FROM a LIMIT 0`},
	{sql: `SELECT id, s FROM a LIMIT 5`},
	{sql: `SELECT id, s FROM a LIMIT 16`},
	{sql: `SELECT id, s FROM a LIMIT 16 OFFSET 16`},
	{sql: `SELECT * FROM a LIMIT 7 OFFSET 64`},
	{sql: `SELECT id FROM a LIMIT 300 OFFSET 150`},
	{sql: `SELECT id FROM a LIMIT 10 OFFSET 595`},
	{sql: `SELECT id FROM a LIMIT 10 OFFSET 600`},
	{sql: `SELECT id FROM a LIMIT 10 OFFSET 10000`},
	{sql: `SELECT id FROM a LIMIT 100000`},
	{sql: `SELECT id, v FROM a WHERE v = 3 LIMIT 9 OFFSET 2`},
	{sql: `SELECT a.id, b.tag FROM a JOIN b ON a.k = b.bk LIMIT 13 OFFSET 5`},
	{sql: `SELECT a.id, b.tag FROM a LEFT JOIN b ON a.k = b.bk LIMIT 40 OFFSET 30`},
	{sql: `SELECT a.id, b.tag FROM a LEFT JOIN b ON a.k = b.bk WHERE b.tag IS NULL LIMIT 6`},
	// Empty probe side (LEFT keeps e as the probe base; the inner form lets
	// the planner pick), empty build side.
	{sql: `SELECT e.ek, b.tag FROM e LEFT JOIN b ON e.ek = b.bk`},
	{sql: `SELECT e.ek, b.tag FROM e JOIN b ON e.ek = b.bk`},
	{sql: `SELECT COUNT(*) AS n, MAX(b.tag) AS t FROM e LEFT JOIN b ON e.ek = b.bk`},
	{sql: `SELECT a.id, e.ev FROM a JOIN e ON a.k = e.ek`},
	{sql: `SELECT a.id, e.ev FROM a LEFT JOIN e ON a.k = e.ek LIMIT 5`},
	{sql: `SELECT COUNT(*) AS n, COUNT(e.ev) AS m FROM a LEFT JOIN e ON a.k = e.ek`},
	// An empty table: global and grouped aggregates, SELECT *, every tail.
	{sql: `SELECT COUNT(*) AS n, SUM(ek) AS s, MIN(ev) AS m FROM e`, want: "[n s m]\n[0 <nil> <nil>]\n"},
	{sql: `SELECT ek, COUNT(*) AS n FROM e GROUP BY ek`, want: "[ek n]\n"},
	{sql: `SELECT * FROM e`},
	{sql: `SELECT * FROM e LIMIT 3`},
	{sql: `SELECT * FROM e ORDER BY ek LIMIT 3`, topN: true},
	{sql: `SELECT ek + 1 AS x FROM e WHERE ek > 0 ORDER BY x`},
	// ORDER BY t.c sorts by that relation's column, not by the first output
	// column that happens to share its name — and is an error, at plan time,
	// when that column is not in the output.
	{sql: `SELECT a.v, c.v FROM a JOIN c ON a.id = c.id ORDER BY c.v`,
		want: "[v v]\n[3 100]\n[2 200]\n[1 300]\n"},
	{sql: `SELECT a.v FROM a JOIN c ON a.id = c.id ORDER BY c.v`,
		wantErr: `sql: ORDER BY column "c.v" not in output`},
	// HAVING that filters everything.
	{sql: `SELECT s, COUNT(*) AS n FROM a GROUP BY s HAVING COUNT(*) > 100000`},
	{sql: `SELECT COUNT(*) AS n FROM a HAVING COUNT(*) < 0`},
}

func loadMatrixTables(_ *testing.T, db *DB) {
	db.MustExec(`CREATE TABLE a (id INT, s VARCHAR, k INT, v INT, f FLOAT) WITH (DISTRIBUTION = k, SORTCOL = id)`)
	for chunk := 0; chunk < 6; chunk++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO a VALUES ")
		for i := 0; i < 100; i++ {
			id := chunk*100 + i
			if i > 0 {
				sb.WriteString(", ")
			}
			v := fmt.Sprint(id % 7)
			if id%11 == 0 {
				v = "NULL"
			}
			fmt.Fprintf(&sb, "(%d, 's%d', %d, %s, %d.%02d)", id, id%5, id%17, v, id%23, id%97)
		}
		db.MustExec(sb.String())
	}
	db.MustExec(`CREATE TABLE b (bk INT, tag VARCHAR) WITH (DISTRIBUTION = bk)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO b VALUES (3, NULL)")
	for i := 0; i < 40; i++ {
		bk := i % 12 // a.k runs 0..16: keys 12..16 have no match
		if i >= 30 {
			bk = 100 + i // never probed
		}
		fmt.Fprintf(&sb, ", (%d, 'tag-%02d')", bk, i%9)
	}
	db.MustExec(sb.String())
	db.MustExec(`CREATE TABLE c (id INT, v INT) WITH (DISTRIBUTION = id)`)
	db.MustExec(`INSERT INTO c VALUES (1, 300), (2, 200), (3, 100)`)
	db.MustExec(`CREATE TABLE e (ek INT, ev VARCHAR) WITH (DISTRIBUTION = ek)`)
}
