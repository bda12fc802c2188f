package polaris

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// plannerData is the cost-based-planning fixture: a misordered join shape
// (tiny narrow table named first, 100x-larger wide table joined in) whose
// probe keys mostly miss the build side, so one statement exercises join
// reordering, scan predicate/projection pushdown, and bloom runtime pruning
// at once. Its statements all have a total ORDER BY: the planner's rewrites
// may never change a byte. B, 64 bytes, is far below the 20-row narrow build
// side, so even the reordered (smallest) build spills.
var plannerData = matrixDataset{
	name: "planner", budget: 64, setup: loadPlannerTables, stmts: plannerStmts,
	// Every statement is observably reordered, the bloom observably prunes
	// the 96%-miss probe, and the w.v < 1000 conjunct is pushed.
	check: func(db *DB, _ int64) error {
		w := &db.Engine().Work
		if swaps := w.BuildSideSwaps.Load(); swaps < int64(len(plannerStmts)) {
			return fmt.Errorf("BuildSideSwaps = %d, want ≥ %d: every statement is misordered", swaps, len(plannerStmts))
		}
		if w.RuntimeFilterRows.Load() == 0 {
			return fmt.Errorf("RuntimeFilterRows = 0, want bloom pruning on the 96%%-miss probe")
		}
		if w.PushedFilters.Load() == 0 {
			return fmt.Errorf("PushedFilters = 0, want the w.v < 1000 conjunct pushed")
		}
		return nil
	},
}

var plannerStmts = []matrixStmt{
	// Misordered join: narrow (20 rows) named first, wide (2000) joined in.
	// The planner must flip the base to wide and build from narrow.
	{sql: `SELECT n.tag, w.v FROM narrow n JOIN wide w ON n.k = w.k ORDER BY w.v, n.tag`, nonEmpty: true, spills: 1},
	// Pushdown + reorder + residual cross-table filter in one statement.
	{sql: `SELECT n.tag, w.v FROM narrow n JOIN wide w ON n.k = w.k WHERE w.v < 1000 AND n.k > 2 ORDER BY w.v, n.tag`, nonEmpty: true, spills: 1},
	// Aggregation over the reordered, bloom-pruned join.
	{sql: `SELECT n.tag, COUNT(*) AS c, SUM(w.v) AS sv FROM narrow n JOIN wide w ON n.k = w.k GROUP BY n.tag ORDER BY n.tag`, nonEmpty: true, spills: 1},
}

func loadPlannerTables(_ *testing.T, db *DB) {
	db.MustExec(`CREATE TABLE narrow (k INT, tag VARCHAR) WITH (DISTRIBUTION = k)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO narrow VALUES `)
	for i := 0; i < 20; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(" + strconv.Itoa(i) + ", 'tag-" + strconv.Itoa(i) + "')")
	}
	db.MustExec(sb.String())
	db.MustExec(`CREATE TABLE wide (k INT, v INT, pad VARCHAR) WITH (DISTRIBUTION = k)`)
	sb.Reset()
	sb.WriteString(`INSERT INTO wide VALUES `)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		// k ∈ [0, 500): only k < 20 ever matches narrow, so the build-side
		// bloom filter can prune ~96% of probe rows.
		sb.WriteString("(" + strconv.Itoa(i%500) + ", " + strconv.Itoa(i) + ", 'p')")
	}
	db.MustExec(sb.String())
}

// TestBloomPruningReducesProbeRows pins the perf claim behind the runtime
// filter: on the 96%-miss join the bloom must prune the vast majority of
// probe rows, in both the in-memory and the spilled regime.
func TestBloomPruningReducesProbeRows(t *testing.T) {
	for _, budget := range []int64{0, plannerData.budget} {
		db := plannerData.open(t, 4, false, budget)
		w := &db.Engine().Work
		r := db.MustExec(plannerStmts[0].sql)
		if r.Len() == 0 {
			t.Fatal("join returned no rows")
		}
		pruned := w.RuntimeFilterRows.Load()
		// 2000 probe rows, 80 carry a matching key: require well over half
		// pruned (the exact count is bloom-false-positive dependent).
		if pruned < 1000 {
			t.Fatalf("budget=%d: RuntimeFilterRows = %d, want ≥ 1000 of 1920 prunable probe rows", budget, pruned)
		}
		db.Close()
	}
}
