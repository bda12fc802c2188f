package polaris

import (
	"fmt"
	"strings"
	"testing"

	"polaris/internal/workload"
)

// tinySpillBudget is far below any TPC-H build side here, so every join
// build overflows and takes the grace path.
const tinySpillBudget = 1 << 10

// tpchData is TPC-H at scale 0.05 under tinySpillBudget, the dataset of the
// TPC-H matrix tests. Their statements' results are byte-identical on every
// path: projections keep scan order, global aggregates yield one row, grouped
// aggregates are ordered by their group keys, every ORDER BY ends in a unique
// key, and every aggregate is an integer, so no float summation order shows.
var tpchData = matrixDataset{
	name: "tpch", budget: tinySpillBudget,
	setup: func(t *testing.T, db *DB) {
		if _, err := workload.LoadTPCH(db.Engine(), 0.05, 2); err != nil {
			t.Fatalf("load tpch: %v", err)
		}
	},
}

func TestParallelExecutorMatchesSerialOnTPCH(t *testing.T) {
	ds := tpchData
	ds.stmts = tpchScanStmts
	runMatrix(t, ds)
}

// TestParallelJoinProbeMatchesSerialOnTPCH runs the join statements with
// every build in memory: the probe runs per morsel against build tables
// shared across workers (TestGraceJoinSpillMatchesUnlimited spills them).
func TestParallelJoinProbeMatchesSerialOnTPCH(t *testing.T) {
	ds := tpchData
	ds.budget = 0
	ds.stmts = tpchJoinStmts
	runMatrix(t, ds)
}

// TestGroupByDistributionColumnAcrossDOP runs GROUP BYs on, with and without
// m's distribution column k.
func TestGroupByDistributionColumnAcrossDOP(t *testing.T) {
	runMatrix(t, matrixDataset{
		name: "groupby_distribution", setup: loadGroupTable,
		stmts: []matrixStmt{
			{sql: `SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS mn FROM m GROUP BY k ORDER BY k`},
			{sql: `SELECT k, g, COUNT(*) AS n FROM m GROUP BY k, g ORDER BY k, g`}, // key set covers k
			{sql: `SELECT g, COUNT(*) AS n, SUM(v) AS s FROM m GROUP BY g ORDER BY g`},
			{sql: `SELECT k, SUM(v) AS s FROM m WHERE v % 3 = 0 GROUP BY k HAVING COUNT(*) > 2 ORDER BY k`},
		},
	})
}

// loadGroupTable loads m: 300 rows, k with 17 distinct values, g with 5.
func loadGroupTable(_ *testing.T, db *DB) {
	db.MustExec(`CREATE TABLE m (k INT, g INT, v INT) WITH (DISTRIBUTION = k)`)
	for chunk := 0; chunk < 3; chunk++ {
		rows := make([]string, 100)
		for i := range rows {
			r := chunk*100 + i
			rows[i] = fmt.Sprintf("(%d, %d, %d)", r%17, r%5, r)
		}
		db.MustExec("INSERT INTO m VALUES " + strings.Join(rows, ", "))
	}
}

var tpchScanStmts = []matrixStmt{
	{sql: `SELECT l_orderkey, l_partkey, l_quantity FROM lineitem WHERE l_quantity < 25`, nonEmpty: true},
	{sql: `SELECT COUNT(*) AS n, SUM(l_quantity) AS q, MIN(l_shipdate) AS mn, MAX(l_shipdate) AS mx FROM lineitem`, nonEmpty: true},
	{sql: `SELECT COUNT(*) AS n FROM lineitem WHERE l_shipdate BETWEEN 8500 AND 9500 AND l_quantity < 24`, nonEmpty: true},
	{sql: `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, COUNT(*) AS n
		FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, nonEmpty: true},
	{sql: `SELECT o.o_orderpriority, COUNT(*) AS order_count FROM orders o
		JOIN lineitem l ON o.o_orderkey = l.l_orderkey
		GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority`, nonEmpty: true},
	{sql: `SELECT l_suppkey, COUNT(*) AS n FROM lineitem GROUP BY l_suppkey HAVING COUNT(*) > 2 ORDER BY l_suppkey`, nonEmpty: true},
}

// tpchJoinStmts are TPC-H Q3/Q10-shaped: multi-way joins feeding grouped
// aggregation. At the tiny budget each spills its one build over orders or
// lineitem; Q10's customer build, one pruned column, stays in memory.
var tpchJoinStmts = []matrixStmt{
	// Q3 shape: join, range predicates on both sides, group on the join key.
	{sql: `SELECT o.o_orderkey, COUNT(*) AS n, SUM(l.l_quantity) AS q
		FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
		WHERE o.o_orderdate < 9200 AND l.l_shipdate > 8200
		GROUP BY o.o_orderkey ORDER BY o.o_orderkey LIMIT 50`, nonEmpty: true, spills: 1},
	// Q10 shape: two probe stages (lineitem→orders→customer), grouped on the
	// outermost dimension.
	{sql: `SELECT c.c_custkey, COUNT(*) AS n, SUM(l.l_quantity) AS q, MAX(l.l_shipdate) AS mx
		FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
		JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE l.l_shipdate > 8000
		GROUP BY c.c_custkey ORDER BY c.c_custkey`, nonEmpty: true, spills: 1},
	// Left-outer probe with NULL padding surviving the parallel gather.
	{sql: `SELECT o.o_orderkey, l.l_quantity FROM orders o
		LEFT JOIN lineitem l ON o.o_orderkey = l.l_orderkey
		ORDER BY o.o_orderkey, l.l_quantity LIMIT 80`, nonEmpty: true, topN: true, spills: 1},
}

func TestParallelExecutorRunsFullTHQuerySet(t *testing.T) {
	if testing.Short() {
		t.Skip("full 22-query power run; run without -short")
	}
	// The full power run is dominated by float SUM/AVG, whose last ulp
	// follows the morsel split, so this test pins schemas and row counts
	// rather than bytes (the TPC-H matrix tests pin the bytes of the
	// non-float shapes at every Parallelism).
	type shape struct {
		cols string
		rows int
	}
	shapes := map[int][]shape{}
	for _, dop := range []int{1, 4} {
		db := tpchData.open(t, dop, false, 0)
		for i, q := range workload.THQueries() {
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("dop=%d Q%d: %v", dop, i+1, err)
			}
			shapes[dop] = append(shapes[dop], shape{cols: fmt.Sprintf("%v", r.Columns()), rows: r.Len()})
		}
		db.Close()
	}
	for i := range shapes[1] {
		if shapes[1][i] != shapes[4][i] {
			t.Fatalf("Q%d shape differs: serial %+v vs parallel %+v", i+1, shapes[1][i], shapes[4][i])
		}
	}
}
