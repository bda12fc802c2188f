package polaris

import (
	"fmt"
	"strings"
	"testing"

	"polaris/internal/objectstore"
)

// The executor matrix: one SELECT executor means the answer — row order
// included — does not depend on how it is computed. Every statement below must
// render identical bytes at every Parallelism × DistributedQueries ×
// JoinMemoryBudget setting, Parallelism 1 included (it is the same plan with
// one worker), leak no spill blob or worker slot, and make the same plan
// choices (top-N pushdown, join spills, rows pruned by runtime filters) at
// every Parallelism, on the morsel pool and the task DAG alike. The
// statements are the shapes where a separate serial path used to disagree
// with the morsel plan — unordered GROUP BY, ties under ORDER BY agg LIMIT —
// and the shapes it alone used to serve: bare LIMIT, empty tables.

type matrixStmt struct {
	sql string
	// float marks SUM/AVG over a float column: summation order follows the
	// morsel split, so bytes are compared per fixed Parallelism only.
	float bool
	// want, when set, is the rendering every cell must produce; wantErr the
	// plan-time error every cell must return instead of rows.
	want, wantErr string
}

var matrixStmts = []matrixStmt{
	// Unordered GROUP BY: single key, multi key, the distribution column k,
	// with NULLs in the aggregated column.
	{sql: `SELECT s, COUNT(*) AS n, SUM(v) AS sv, MIN(id) AS lo FROM a GROUP BY s`},
	{sql: `SELECT s, v, COUNT(*) AS n FROM a GROUP BY s, v`},
	{sql: `SELECT k, COUNT(*) AS n, MAX(id) AS hi FROM a GROUP BY k`},
	{sql: `SELECT k, s, COUNT(v) AS n FROM a WHERE id % 3 = 0 GROUP BY k, s`},
	{sql: `SELECT b.tag, COUNT(*) AS n FROM a JOIN b ON a.k = b.bk GROUP BY b.tag`},
	{sql: `SELECT s, SUM(f) AS sf, AVG(f) AS af FROM a GROUP BY s`, float: true},
	// GROUP BY … ORDER BY agg [LIMIT]: every s group has 120 rows, so the
	// order and the top-N cut are decided by the tie-break alone.
	{sql: `SELECT s, COUNT(*) AS n FROM a GROUP BY s ORDER BY n`},
	{sql: `SELECT s, COUNT(*) AS n FROM a GROUP BY s ORDER BY n LIMIT 2`},
	{sql: `SELECT s, COUNT(*) AS n FROM a GROUP BY s ORDER BY n DESC LIMIT 2 OFFSET 1`},
	{sql: `SELECT v, COUNT(*) AS n, MIN(s) AS ms FROM a GROUP BY v ORDER BY ms LIMIT 3`},
	// ORDER BY over a projection, for the plan-choice counters.
	{sql: `SELECT id, v FROM a ORDER BY v, id LIMIT 9 OFFSET 4`},
	{sql: `SELECT a.id, b.tag FROM a JOIN b ON a.k = b.bk ORDER BY a.id DESC LIMIT 20`},
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
	{sql: `SELECT COUNT(*) AS n, SUM(ek) AS s, MIN(ev) AS m FROM e`},
	{sql: `SELECT ek, COUNT(*) AS n FROM e GROUP BY ek`},
	{sql: `SELECT * FROM e`},
	{sql: `SELECT * FROM e LIMIT 3`},
	{sql: `SELECT * FROM e ORDER BY ek LIMIT 3`},
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

// openMatrixDB loads the matrix dataset: a — 600 rows over 4 distributions in
// six inserts, so two dozen small files that every Parallelism splits
// differently; b — a build side with duplicate, unmatched and NULL-tagged
// keys; c — three rows whose v runs against a's; e — empty. Values derive from
// the row index, so every cell loads identical bytes.
func openMatrixDB(t *testing.T, parallelism int, dag bool, budget int64) *DB {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Parallelism = parallelism
	cfg.DistributedQueries = dag
	cfg.JoinMemoryBudget = budget
	cfg.Distributions = 4
	cfg.RowsPerFile = 64
	cfg.RowsPerGroup = 16
	db := Open(cfg)
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
	return db
}

// bareLimit reports a LIMIT without ORDER BY: the pool stops scanning once the
// completed prefix of morsels holds enough rows.
func bareLimit(sql string) bool {
	return strings.Contains(sql, " LIMIT ") && !strings.Contains(sql, " ORDER BY ")
}

func TestExecutorMatrixIdentity(t *testing.T) {
	type choices struct{ topN, joinSpills, filtered int64 }
	type cell struct {
		name        string
		parallelism int
		budget      int64
		db          *DB
	}
	var cells []cell
	for _, p := range []int{1, 4, 8} {
		for _, dag := range []bool{false, true} {
			for _, budget := range []int64{0, 256} {
				db := openMatrixDB(t, p, dag, budget)
				defer db.Close()
				cells = append(cells, cell{
					name:        fmt.Sprintf("parallelism=%d,dag=%v,budget=%d", p, dag, budget),
					parallelism: p, budget: budget, db: db,
				})
			}
		}
	}

	spillsSeen := false
	for _, st := range matrixStmts {
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
			if st.want != "" && got != st.want {
				t.Errorf("%s: wrong result\nsql: %s\ngot:\n%s\nwant:\n%s", c.name, st.sql, got, st.want)
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
			if bareLimit(st.sql) {
				// The early stop leaves which morsels past the prefix had
				// already run — and the rows their blooms pruned — to
				// scheduling.
				made.filtered = 0
			}
			if ref, ok := wantChoices[c.budget]; !ok {
				wantChoices[c.budget] = made
			} else if made != ref {
				t.Errorf("%s: plan choices %+v differ from %+v at the same budget\nsql: %s", c.name, made, ref, st.sql)
			}
			if c.budget == 0 && made.joinSpills != 0 {
				t.Errorf("%s: %d join spills under an unlimited budget\nsql: %s", c.name, made.joinSpills, st.sql)
			}
			spillsSeen = spillsSeen || made.joinSpills > 0

			if leaked := c.db.Engine().Store.List(objectstore.SpillPrefix); len(leaked) != 0 {
				t.Fatalf("%s: %d spill/exchange blobs leaked, e.g. %s\nsql: %s", c.name, len(leaked), leaked[0], st.sql)
			}
			if n := c.db.Engine().Fabric.LeasedSlots(); n != 0 {
				t.Fatalf("%s: %d worker slots still leased\nsql: %s", c.name, n, st.sql)
			}
		}
		if a, b := wantChoices[0], wantChoices[256]; a.topN != b.topN {
			t.Errorf("top-N choices depend on the join budget: %+v vs %+v\nsql: %s", a, b, st.sql)
		}
	}
	if !spillsSeen {
		t.Fatal("the tiny budget never spilled a join build; the matrix does not cover a spilled join")
	}
}
