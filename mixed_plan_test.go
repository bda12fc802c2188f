package polaris

// Mixed plans: one statement whose join memory budget spills one of its two
// builds and keeps the other in memory. The spilled join is a barrier inside
// the per-morsel pipeline, and the in-memory join next to it is probed in the
// neighbouring fragment — on the morsel pool and on the DCP task DAG alike.

import (
	"fmt"
	"strings"
	"testing"

	"polaris/internal/objectstore"
	"polaris/internal/workload"
)

// mixedPlanQueries each have two builds at TPC-H SF 0.05, and
// tinySpillBudget sits between their sizes, so exactly one spills. In the
// first, lineitem probes orders (the large build: it spills) and then the
// filtered customer build (in memory): the spilled join comes first. In the
// second, orders probes customer (in memory) and then the filtered lineitem
// build (a pushed predicate leaves its batches full-size, so it spills): the
// spilled join comes second. The planner keeps both orders (mixedPlanBuilds).
var mixedPlanQueries = []string{
	`SELECT c.c_nationkey, COUNT(*) AS n, SUM(l.l_quantity) AS q
		FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
		JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE c.c_custkey < 5
		GROUP BY c.c_nationkey ORDER BY c.c_nationkey`,
	`SELECT o.o_orderkey, c.c_nationkey, l.l_quantity
		FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
		JOIN lineitem l ON l.l_orderkey = o.o_orderkey
		WHERE l.l_orderkey < 10
		ORDER BY o.o_orderkey, l.l_quantity, c.c_nationkey`,
}

// mixedPlanBuilds are the build tables of each query in execution order.
var mixedPlanBuilds = [][2]string{{"orders", "customer"}, {"customer", "lineitem"}}

func openMixedPlanDB(t *testing.T, parallelism int, dag bool, budget int64) *DB {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Parallelism = parallelism
	cfg.DistributedQueries = dag
	cfg.JoinMemoryBudget = budget
	db := Open(cfg)
	if _, err := workload.LoadTPCH(db.Engine(), 0.05, 2); err != nil {
		t.Fatalf("load tpch: %v", err)
	}
	return db
}

// TestMixedSpillPlansMatchUnlimited runs each mixed plan at Parallelism
// {1,4} × DistributedQueries {off,on}: results byte-identical to budget 0,
// exactly one spilled build per statement, the same runtime-filter pruning
// in every run, and an empty spill namespace afterwards.
func TestMixedSpillPlansMatchUnlimited(t *testing.T) {
	ref := openMixedPlanDB(t, 1, false, 0)
	want := make([]string, len(mixedPlanQueries))
	for i, q := range mixedPlanQueries {
		r, err := ref.Query(q)
		if err != nil {
			t.Fatalf("unlimited query %d: %v", i, err)
		}
		if r.Len() == 0 {
			t.Fatalf("unlimited query %d returned no rows", i)
		}
		want[i] = renderRows(r)
		plan, err := ref.Query("EXPLAIN " + q)
		if err != nil {
			t.Fatalf("EXPLAIN query %d: %v", i, err)
		}
		var builds []string
		for row := 0; row < plan.Len(); row++ {
			if f := strings.Fields(fmt.Sprint(plan.Row(row)[0])); len(f) > 2 && f[0] == "join" && f[1] == "build" {
				builds = append(builds, f[2])
			}
		}
		if fmt.Sprint(builds) != fmt.Sprint(mixedPlanBuilds[i][:]) {
			t.Fatalf("query %d builds %v, want %v", i, builds, mixedPlanBuilds[i])
		}
	}
	ref.Close()

	pruned := make([]int64, len(mixedPlanQueries))
	first := true
	for _, par := range []int{1, 4} {
		for _, dag := range []bool{false, true} {
			cell := fmt.Sprintf("dop=%d dag=%v", par, dag)
			db := openMixedPlanDB(t, par, dag, tinySpillBudget)
			w := &db.Engine().Work
			for i, q := range mixedPlanQueries {
				spills, filtered := w.JoinSpills.Load(), w.RuntimeFilterRows.Load()
				r, err := db.Query(q)
				if err != nil {
					t.Fatalf("%s query %d: %v", cell, i, err)
				}
				if got := renderRows(r); got != want[i] {
					t.Fatalf("%s query %d differs from budget 0:\ngot:\n%s\nwant:\n%s", cell, i, got, want[i])
				}
				if got := w.JoinSpills.Load() - spills; got != 1 {
					t.Fatalf("%s query %d: %d builds spilled, want exactly 1 of 2", cell, i, got)
				}
				got := w.RuntimeFilterRows.Load() - filtered
				if first {
					pruned[i] = got
				} else if got != pruned[i] {
					t.Fatalf("%s query %d: RuntimeFilterRows = %d, want %d as in the first run", cell, i, got, pruned[i])
				}
			}
			if leaked := db.Engine().Store.List(objectstore.SpillPrefix); len(leaked) != 0 {
				t.Fatalf("%s: %d spill files leaked: %v", cell, len(leaked), leaked[:min(3, len(leaked))])
			}
			db.Close()
			first = false
		}
	}
}
