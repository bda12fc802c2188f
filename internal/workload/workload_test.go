package workload

import (
	"reflect"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/objectstore"
	"polaris/internal/sql"
	"polaris/internal/sto"
)

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Distributions = 4
	opts.RowsPerFile = 2000
	opts.RowsPerGroup = 500
	opts.CompactSmallRows = 50
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 4, SlotsPer: 2})
	return core.NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)
}

func TestLineitemDeterministic(t *testing.T) {
	a := LineitemBatch(100, 200)
	b := LineitemBatch(100, 200)
	if a.NumRows() != 100 || b.NumRows() != 100 {
		t.Fatalf("rows = %d/%d", a.NumRows(), b.NumRows())
	}
	for i := 0; i < 100; i++ {
		if !reflect.DeepEqual(a.Row(i), b.Row(i)) {
			t.Fatalf("row %d differs across generations", i)
		}
	}
	// disjoint ranges differ
	c := LineitemBatch(200, 300)
	if reflect.DeepEqual(a.Row(0), c.Row(0)) {
		t.Fatal("distinct ranges identical")
	}
}

func TestLineitemSourcesPartition(t *testing.T) {
	srcs := LineitemSources(0.05, 4)
	if len(srcs) != 4 {
		t.Fatalf("sources = %d", len(srcs))
	}
	var total int64
	for _, s := range srcs {
		b, err := s.Rows()
		if err != nil {
			t.Fatal(err)
		}
		total += int64(b.NumRows())
	}
	if total != int64(0.05*RowsPerSF) {
		t.Fatalf("total rows = %d", total)
	}
	// degenerate cases
	if got := LineitemSources(0.001, 100); len(got) > 8 {
		t.Fatalf("tiny sf made %d files", len(got))
	}
}

func TestLoadTPCHAndRunAllQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	eng := testEngine(t)
	n, err := LoadTPCH(eng, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(0.1*RowsPerSF) {
		t.Fatalf("loaded %d rows", n)
	}
	sess := sql.NewSession(eng)
	defer sess.Close()
	for i, q := range THQueries() {
		res, err := sess.Exec(q)
		if err != nil {
			t.Fatalf("Q%d failed: %v", i+1, err)
		}
		if res.Batch == nil {
			t.Fatalf("Q%d returned no batch", i+1)
		}
		if res.SimTime <= 0 {
			t.Fatalf("Q%d charged no simulated time", i+1)
		}
	}
}

func TestTHQ1Shape(t *testing.T) {
	eng := testEngine(t)
	if _, err := LoadTPCH(eng, 0.05, 2); err != nil {
		t.Fatal(err)
	}
	sess := sql.NewSession(eng)
	defer sess.Close()
	res, err := sess.Exec(THQueries()[0])
	if err != nil {
		t.Fatal(err)
	}
	// Q1 groups by (returnflag, linestatus): at most 3x2 groups, sorted.
	if res.Batch.NumRows() == 0 || res.Batch.NumRows() > 6 {
		t.Fatalf("Q1 groups = %d", res.Batch.NumRows())
	}
	for i := 1; i < res.Batch.NumRows(); i++ {
		a, b := res.Batch.Cols[0].Strs[i-1], res.Batch.Cols[0].Strs[i]
		if a > b {
			t.Fatalf("Q1 not sorted: %s > %s", a, b)
		}
	}
}

func TestDSLoadAndQueries(t *testing.T) {
	eng := testEngine(t)
	if err := LoadDS(eng, 500); err != nil {
		t.Fatal(err)
	}
	sess := sql.NewSession(eng)
	defer sess.Close()
	for i, q := range DSQueries(8) {
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("DS query %d: %v\n%s", i, err, q)
		}
	}
}

func TestRunSUPhase(t *testing.T) {
	eng := testEngine(t)
	if err := LoadDS(eng, 300); err != nil {
		t.Fatal(err)
	}
	res, err := RunSU(eng, DSQueries(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 6 || res.SimTime <= 0 {
		t.Fatalf("SU result = %+v", res)
	}
}

func TestRunDMPhase(t *testing.T) {
	eng := testEngine(t)
	if err := LoadDS(eng, 300); err != nil {
		t.Fatal(err)
	}
	orchestrator := sto.New(eng, sto.Config{})
	next := int64(10_000)
	compacted := 0
	cfg := DMConfig{
		Tables:      []string{"store_sales", "store_returns"},
		InsertRows:  100,
		DeleteEvery: 3,
		NextSK:      &next,
		Compact: func(table string) {
			orchestrator.Compact(table)
			compacted++
		},
	}
	res, err := RunDM(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsIn != 400 { // 2 tables x 2 inserts x 100 rows
		t.Fatalf("rows in = %d", res.RowsIn)
	}
	if res.RowsDel == 0 {
		t.Fatal("no rows deleted")
	}
	if compacted != 4 { // 2 tables x 2 compaction points
		t.Fatalf("compactions = %d", compacted)
	}
	// paper: each DM phase creates 10 new manifests per table
	// (2 inserts + 6 deletes + 2 compactions)
	tx := eng.Begin()
	defer tx.Rollback()
	st, err := tx.Stats("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	wantManifests := 1 + 10 // initial load + one DM phase
	if compactionsRan := len(orchestrator.Compactions()); compactionsRan < 2 {
		// compaction may no-op when thresholds aren't crossed; manifests vary
		t.Logf("compactions that did work: %d", compactionsRan)
	}
	if st.Manifests < 9 || st.Manifests > wantManifests {
		t.Fatalf("manifests = %d, want ~%d", st.Manifests, wantManifests)
	}
}

func TestRunConcurrentPhases(t *testing.T) {
	eng := testEngine(t)
	if err := LoadDS(eng, 300); err != nil {
		t.Fatal(err)
	}
	next := int64(10_000)
	su, dm, err := RunConcurrent(eng, DSQueries(6), DMConfig{
		Tables:     []string{"web_sales"},
		InsertRows: 50, DeleteEvery: 3, NextSK: &next,
	})
	if err != nil {
		t.Fatal(err)
	}
	if su.Queries != 6 || dm.RowsIn != 100 {
		t.Fatalf("su = %+v dm = %+v", su, dm)
	}
}

func TestDSBatchDisjointPerTable(t *testing.T) {
	a := DSBatch("store_sales", 0, 10)
	b := DSBatch("web_sales", 0, 10)
	same := true
	for i := 0; i < 10; i++ {
		if !reflect.DeepEqual(a.Row(i), b.Row(i)) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different tables generated identical data")
	}
}

func TestTHQueriesCount(t *testing.T) {
	if len(THQueries()) != 22 {
		t.Fatalf("queries = %d, want 22", len(THQueries()))
	}
	for i, q := range THQueries() {
		if _, err := sql.Parse(q); err != nil {
			t.Fatalf("Q%d does not parse: %v", i+1, err)
		}
	}
}
