package polaris

// Mixed plans: one statement whose join memory budget spills one of its two
// builds and keeps the other in memory. The spilled join is a barrier inside
// the per-morsel pipeline, and the in-memory join next to it is probed in the
// neighbouring fragment — on the morsel pool and on the DCP task DAG alike.

import (
	"fmt"
	"strings"
	"testing"
)

// TestMixedSpillPlansMatchUnlimited runs the mixed plans in every cell: each
// spills exactly one of its two builds at tinySpillBudget, renders the bytes
// of the unlimited budget, and keeps its build order.
func TestMixedSpillPlansMatchUnlimited(t *testing.T) {
	ds := tpchData
	ds.stmts = mixedPlanStmts
	ds.check = func(db *DB, _ int64) error { return checkMixedPlanBuilds(db) }
	runMatrix(t, ds)
}

// mixedPlanStmts each have two builds at TPC-H SF 0.05, and tinySpillBudget
// sits between their sizes, so exactly one spills. In the first, lineitem
// probes orders (the large build: it spills) and then the filtered customer
// build (in memory): the spilled join comes first. In the second, orders
// probes customer (in memory) and then the filtered lineitem build (a pushed
// predicate leaves its batches full-size, so it spills): the spilled join
// comes second. The planner keeps both orders (mixedPlanBuilds).
var mixedPlanStmts = []matrixStmt{
	{sql: `SELECT c.c_nationkey, COUNT(*) AS n, SUM(l.l_quantity) AS q
		FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
		JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE c.c_custkey < 5
		GROUP BY c.c_nationkey ORDER BY c.c_nationkey`, nonEmpty: true, spills: 1},
	{sql: `SELECT o.o_orderkey, c.c_nationkey, l.l_quantity
		FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
		JOIN lineitem l ON l.l_orderkey = o.o_orderkey
		WHERE l.l_orderkey < 10
		ORDER BY o.o_orderkey, l.l_quantity, c.c_nationkey`, nonEmpty: true, spills: 1},
}

// mixedPlanBuilds are the build tables of each statement in execution order.
var mixedPlanBuilds = [][2]string{{"orders", "customer"}, {"customer", "lineitem"}}

// checkMixedPlanBuilds reads each mixed plan's build order from EXPLAIN.
func checkMixedPlanBuilds(db *DB) error {
	for i, st := range mixedPlanStmts {
		plan, err := db.Query("EXPLAIN " + st.sql)
		if err != nil {
			return fmt.Errorf("EXPLAIN mixed plan %d: %v", i, err)
		}
		var builds []string
		for row := 0; row < plan.Len(); row++ {
			if f := strings.Fields(fmt.Sprint(plan.Row(row)[0])); len(f) > 2 && f[0] == "join" && f[1] == "build" {
				builds = append(builds, f[2])
			}
		}
		if fmt.Sprint(builds) != fmt.Sprint(mixedPlanBuilds[i][:]) {
			return fmt.Errorf("mixed plan %d builds %v, want %v", i, builds, mixedPlanBuilds[i])
		}
	}
	return nil
}
