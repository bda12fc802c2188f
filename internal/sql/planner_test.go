package sql

import (
	"strings"
	"testing"
)

// statsFor folds the live-file sketches of a table inside a throwaway
// read transaction.
func statsFor(t *testing.T, s *Session, table string) *tableStats {
	t.Helper()
	tx := engineOf(s).Begin()
	defer tx.Rollback()
	state, meta, err := tx.Snapshot(table, -1)
	if err != nil {
		t.Fatalf("Snapshot(%s): %v", table, err)
	}
	return collectStats(state, meta.Schema)
}

func TestTableStatsFollowDML(t *testing.T) {
	s := testSession(t)
	mustExec(t, s, `CREATE TABLE st (k INT, v VARCHAR) WITH (DISTRIBUTION = k)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO st VALUES `)
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(" + itoa(int64(i%10)) + ", 'tag')")
	}
	mustExec(t, s, sb.String())

	ts := statsFor(t, s, "st")
	if ts.rows != 100 {
		t.Fatalf("rows = %d, want 100", ts.rows)
	}
	sk, ok := ts.colSketch("k")
	if !ok {
		t.Fatal("no sketch for column k")
	}
	if ndv := sk.NDV(); ndv < 9 || ndv > 11 {
		t.Fatalf("k NDV = %d, want ≈10", ndv)
	}
	if sk.Stats.MinInt == nil || *sk.Stats.MinInt != 0 || *sk.Stats.MaxInt != 9 {
		t.Fatalf("k min/max = %v/%v, want 0/9", sk.Stats.MinInt, sk.Stats.MaxInt)
	}

	// Deletes shrink the row count with no ANALYZE pass: the count is a fold
	// over LiveRows, even while sketches still describe the sealed files.
	mustExec(t, s, `DELETE FROM st WHERE k < 3`)
	if ts = statsFor(t, s, "st"); ts.rows != 70 {
		t.Fatalf("rows after delete = %d, want 70", ts.rows)
	}

	// Inserts through a second session/commit keep folding in.
	mustExec(t, s, `INSERT INTO st VALUES (100, 'late'), (101, 'late')`)
	if ts = statsFor(t, s, "st"); ts.rows != 72 {
		t.Fatalf("rows after insert = %d, want 72", ts.rows)
	}
	sk, _ = ts.colSketch("k")
	if sk.Stats.MaxInt == nil || *sk.Stats.MaxInt != 101 {
		t.Fatalf("k max after insert = %v, want 101", sk.Stats.MaxInt)
	}
}

func TestEstimatorSanityBounds(t *testing.T) {
	s := testSession(t)
	mustExec(t, s, `CREATE TABLE est (k INT, f FLOAT) WITH (DISTRIBUTION = k)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO est VALUES `)
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(" + itoa(int64(i%20)) + ", 1.5)")
	}
	mustExec(t, s, sb.String())
	ts := statsFor(t, s, "est")

	where := func(q string) Expr {
		t.Helper()
		st, err := Parse("SELECT * FROM est WHERE " + q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		return st.(*SelectStmt).Where
	}
	cases := []struct {
		pred   string
		lo, hi float64
	}{
		{"k = 7", 5, 25},           // 1/NDV ≈ 1/20 of 200 rows
		{"k < 5", 20, 90},          // range interpolation over [0, 19]
		{"k = 7 AND k < 5", 1, 25}, // conjunction shrinks, floor at 1
		{"k = 999 OR k = 7", 5, 60},
	}
	for _, c := range cases {
		got := estimateRows(ts, splitAnd(where(c.pred)))
		if got < c.lo || got > c.hi {
			t.Errorf("estimateRows(%q) = %.1f, want within [%.0f, %.0f]", c.pred, got, c.lo, c.hi)
		}
	}
	// No predicate: the full row count.
	if got := estimateRows(ts, nil); got != 200 {
		t.Errorf("estimateRows(no pred) = %.1f, want 200", got)
	}
	// Estimates never exceed the table and never go below one row.
	if got := estimateRows(ts, splitAnd(where("k = 1 AND k = 2 AND k = 3 AND f < 0.0"))); got < 1 {
		t.Errorf("conjunction estimate = %.1f, want ≥ 1", got)
	}
}

// explainLines runs EXPLAIN and returns one string per plan row.
func explainLines(t *testing.T, s *Session, q string) []string {
	t.Helper()
	res := mustExec(t, s, "EXPLAIN "+q)
	lines := make([]string, res.Batch.NumRows())
	for i := range lines {
		lines[i] = res.Batch.Cols[0].Strs[i]
	}
	return lines
}

func TestExplainGoldenPlans(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `CREATE TABLE orders (oid INT, item_id INT, qty INT) WITH (DISTRIBUTION = oid)`)
	mustExec(t, s, `INSERT INTO orders VALUES (100, 1, 3), (101, 2, 1), (102, 1, 2), (103, 99, 5)`)

	got := explainLines(t, s, `SELECT o.oid, i.name FROM orders o JOIN items i ON o.item_id = i.id WHERE o.qty > 1 AND i.price < 5.0 ORDER BY o.oid LIMIT 2`)
	want := []string{
		// orders references every column, so no [cols=] pruning clause there;
		// items prunes to the referenced subset (join key + output + pushed).
		"scan orders AS o [pushed=(o.qty > 1)] [est=3 rows]",
		"join build items AS i [cols=id, name, price] [pushed=(i.price < 5)] [on=(o.item_id = i.id)] [inner, bloom] [est=2 rows]",
		"sort [o.oid]",
		"limit 2",
		"project [oid, name]",
	}
	if len(got) != len(want) {
		t.Fatalf("explain lines = %d, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}

	// Aggregation + HAVING renders its own operator row; a bare single-table
	// query pushes the whole WHERE and keeps no residual filter line.
	got = explainLines(t, s, `SELECT name, COUNT(*) AS n FROM items WHERE active = TRUE GROUP BY name HAVING COUNT(*) > 0`)
	want = []string{
		"scan items [cols=name, active] [pushed=(active = TRUE)] [est=3 rows]",
		"aggregate [groups=name] [having=(COUNT(*) > 0)]",
		"project [name, n]",
	}
	if len(got) != len(want) {
		t.Fatalf("agg explain lines = %d, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("agg line %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

func TestExplainReorderMarksSwappedBuild(t *testing.T) {
	s := testSession(t)
	// big (200 rows) joined from small (5 rows): the planner must flip the
	// base to big and build from small, marking the moved build.
	mustExec(t, s, `CREATE TABLE small (k INT, tag VARCHAR) WITH (DISTRIBUTION = k)`)
	mustExec(t, s, `INSERT INTO small VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd'), (5, 'e')`)
	mustExec(t, s, `CREATE TABLE big (k INT, v INT) WITH (DISTRIBUTION = k)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(" + itoa(int64(i%5+1)) + ", " + itoa(int64(i)) + ")")
	}
	mustExec(t, s, sb.String())

	const q = `SELECT s.tag, b.v FROM small s JOIN big b ON s.k = b.k ORDER BY b.v, s.tag`
	lines := explainLines(t, s, q)
	if !strings.HasPrefix(lines[0], "scan big AS b") {
		t.Fatalf("base scan = %q, want big (the larger side)", lines[0])
	}
	if !strings.Contains(lines[1], "join build small AS s") || !strings.Contains(lines[1], "[reordered]") {
		t.Fatalf("build line = %q, want reordered small build", lines[1])
	}

	// Executing the same shape bumps the swap counter and returns the same
	// rows the syntactic order would have.
	before := engineOf(s).Work.BuildSideSwaps.Load()
	res := mustExec(t, s, q)
	if res.Batch.NumRows() != 200 {
		t.Fatalf("reordered join rows = %d, want 200", res.Batch.NumRows())
	}
	if got := engineOf(s).Work.BuildSideSwaps.Load(); got <= before {
		t.Fatalf("BuildSideSwaps = %d after reordered join, want > %d", got, before)
	}
}

func TestPlannerWorkCounters(t *testing.T) {
	s := testSession(t)
	seed(t, s)
	mustExec(t, s, `CREATE TABLE orders (oid INT, item_id INT, qty INT) WITH (DISTRIBUTION = oid)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO orders VALUES `)
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		// Only item_id 1 and 2 exist in items; ids ≥ 100 never match, so the
		// build-side bloom filter prunes those probe rows.
		sb.WriteString("(" + itoa(int64(i)) + ", " + itoa(int64(100+i%100)) + ", 1)")
	}
	sb.WriteString(", (900, 1, 3), (901, 2, 1)")
	mustExec(t, s, sb.String())

	w := &engineOf(s).Work
	pushedBefore := w.PushedFilters.Load()
	mustExec(t, s, `SELECT id FROM items WHERE price > 1.0 AND active = TRUE`)
	if got := w.PushedFilters.Load(); got < pushedBefore+2 {
		t.Fatalf("PushedFilters = %d, want ≥ %d (both conjuncts pushed)", got, pushedBefore+2)
	}

	bloomBefore := w.RuntimeFilterRows.Load()
	res := mustExec(t, s, `SELECT o.oid, i.name FROM orders o JOIN items i ON o.item_id = i.id ORDER BY o.oid`)
	if res.Batch.NumRows() != 2 {
		t.Fatalf("join rows = %d, want 2", res.Batch.NumRows())
	}
	if got := w.RuntimeFilterRows.Load(); got <= bloomBefore {
		t.Fatalf("RuntimeFilterRows = %d, want > %d (bloom must prune unmatched probe rows)", got, bloomBefore)
	}
}

func TestExplainDoesNotExecuteOrCount(t *testing.T) {
	s := seedStability(t)
	eng := engineOf(s)
	w := &eng.Work
	for _, q := range []string{
		`SELECT * FROM items WHERE id = 1`,
		`SELECT o.oid, i.name FROM items i JOIN orders o ON o.item_id = i.id WHERE o.qty > 1`,
	} {
		swaps, pushed := w.BuildSideSwaps.Load(), w.PushedFilters.Load()
		files, rows := w.FilesRead.Load(), w.RowsScanned.Load()
		res := mustExec(t, s, `EXPLAIN `+q)
		if res.Batch.NumRows() == 0 {
			t.Fatal("EXPLAIN returned no plan rows")
		}
		if cols := res.Batch.Schema; len(cols) != 1 || cols[0].Name != "plan" {
			t.Fatalf("EXPLAIN schema = %v, want single plan column", cols)
		}
		if w.BuildSideSwaps.Load() != swaps || w.PushedFilters.Load() != pushed {
			t.Fatal("EXPLAIN must not move the planner work counters")
		}
		if w.FilesRead.Load() != files || w.RowsScanned.Load() != rows {
			t.Fatal("EXPLAIN must not read a data file")
		}
	}

	// What EXPLAIN renders is the planned, unopened value: it holds no
	// morsels and no spill namespace (planSelect never sees a budget).
	st, err := Parse(`SELECT o.oid, i.name FROM items i JOIN orders o ON o.item_id = i.id`)
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.Begin()
	defer tx.Rollback()
	p, err := planSelect(tx, st.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if p.base.ms != nil || p.joins[0].build.ms != nil || p.joins[0].cfg.Store != nil {
		t.Fatal("planSelect fetched morsels or allocated a spill namespace")
	}
}

// TestSelectResolvesEachRelationOnce: the plan holds the snapshot the
// statement reads, so planning and execution together look each relation up in
// the snapshot cache once — statistics are folded from, and morsels fetched
// from, that one resolved state — and EXPLAIN resolves exactly what execution
// would.
func TestSelectResolvesEachRelationOnce(t *testing.T) {
	s := seedStability(t)
	lookups := func() int64 {
		hits, misses := engineOf(s).Cache.Stats()
		return hits + misses
	}
	for _, c := range []struct {
		q         string
		relations int64
	}{
		{`SELECT oid FROM orders WHERE qty > 1`, 1},
		{`SELECT o.oid, i.name FROM orders o JOIN items i ON o.item_id = i.id`, 2},
	} {
		for _, prefix := range []string{"", "EXPLAIN "} {
			before := lookups()
			mustExec(t, s, prefix+c.q)
			if got := lookups() - before; got != c.relations {
				t.Errorf("%s%s: %d snapshot-cache lookups, want %d (one per relation)", prefix, c.q, got, c.relations)
			}
		}
	}
}
