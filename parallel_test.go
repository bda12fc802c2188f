package polaris

// Correctness of the morsel-driven parallel executor at the SQL surface:
// TPC-H-style queries must return the same results whether the engine runs
// serial (Parallelism 1) or parallel at any degree. Run under -race in CI.

import (
	"fmt"
	"testing"

	"polaris/internal/workload"
)

func openTPCH(t *testing.T, parallelism int) *DB {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Parallelism = parallelism
	db := Open(cfg)
	if _, err := workload.LoadTPCH(db.Engine(), 0.05, 2); err != nil {
		t.Fatalf("load tpch: %v", err)
	}
	return db
}

func renderRows(r *Rows) string {
	out := fmt.Sprintf("%v\n", r.Columns())
	for i := 0; i < r.Len(); i++ {
		out += fmt.Sprintf("%v\n", r.Row(i))
	}
	return out
}

// deterministicQueries return byte-identical results on every execution
// path: projections preserve scan order, global aggregates yield one row,
// and grouped aggregates are fully ordered by their group keys (all integer
// aggregates, so no float summation-order effects).
var deterministicQueries = []string{
	`SELECT l_orderkey, l_partkey, l_quantity FROM lineitem WHERE l_quantity < 25`,
	`SELECT COUNT(*) AS n, SUM(l_quantity) AS q, MIN(l_shipdate) AS mn, MAX(l_shipdate) AS mx FROM lineitem`,
	`SELECT COUNT(*) AS n FROM lineitem WHERE l_shipdate BETWEEN 8500 AND 9500 AND l_quantity < 24`,
	`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, COUNT(*) AS n
		FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
	`SELECT o.o_orderpriority, COUNT(*) AS order_count FROM orders o
		JOIN lineitem l ON o.o_orderkey = l.l_orderkey
		GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority`,
	`SELECT l_suppkey, COUNT(*) AS n FROM lineitem GROUP BY l_suppkey HAVING COUNT(*) > 2 ORDER BY l_suppkey`,
}

func TestParallelQueriesOnEmptyTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 8
	db := Open(cfg)
	defer db.Close()
	db.MustExec(`CREATE TABLE e (k INT, v VARCHAR) WITH (DISTRIBUTION = k)`)
	r := db.MustExec(`SELECT v FROM e WHERE k = 1`)
	if r.Len() != 0 {
		t.Fatalf("rows = %d", r.Len())
	}
	r = db.MustExec(`SELECT COUNT(*) AS n, SUM(k) AS s FROM e`)
	if r.Len() != 1 || r.Value(0, 0).(int64) != 0 || r.Value(0, 1) != nil {
		t.Fatalf("global agg over empty table = %v", r.Row(0))
	}
	r = db.MustExec(`SELECT k, COUNT(*) AS n FROM e GROUP BY k`)
	if r.Len() != 0 {
		t.Fatalf("grouped agg over empty table rows = %d", r.Len())
	}
}

func TestParallelExecutorMatchesSerialOnTPCH(t *testing.T) {
	serial := openTPCH(t, 1)
	defer serial.Close()

	want := make([]string, len(deterministicQueries))
	for i, q := range deterministicQueries {
		r, err := serial.Query(q)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		if r.Len() == 0 {
			t.Fatalf("serial query %d returned no rows; dataset too small to exercise anything", i)
		}
		want[i] = renderRows(r)
	}

	for _, dop := range []int{4, 8} {
		db := openTPCH(t, dop)
		for i, q := range deterministicQueries {
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("dop=%d query %d: %v", dop, i, err)
			}
			if got := renderRows(r); got != want[i] {
				t.Fatalf("dop=%d query %d differs from serial:\ngot:\n%s\nwant:\n%s", dop, i, got, want[i])
			}
		}
		db.Close()
	}
}

// joinHeavyQueries are TPC-H Q3/Q10-shaped queries: multi-way joins feeding
// grouped aggregation. All aggregates are integers and every ORDER BY ends in
// a unique key, so results are byte-identical across DOP — asserting the
// morsel-parallel probe's determinism contract. Run under -race in CI.
var joinHeavyQueries = []string{
	// Q3 shape: join, range predicates on both sides, group on the join key.
	`SELECT o.o_orderkey, COUNT(*) AS n, SUM(l.l_quantity) AS q
		FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
		WHERE o.o_orderdate < 9200 AND l.l_shipdate > 8200
		GROUP BY o.o_orderkey ORDER BY o.o_orderkey LIMIT 50`,
	// Q10 shape: two probe stages (lineitem→orders→customer), grouped on the
	// outermost dimension.
	`SELECT c.c_custkey, COUNT(*) AS n, SUM(l.l_quantity) AS q, MAX(l.l_shipdate) AS mx
		FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
		JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE l.l_shipdate > 8000
		GROUP BY c.c_custkey ORDER BY c.c_custkey`,
	// Left-outer probe with NULL padding surviving the parallel gather.
	`SELECT o.o_orderkey, l.l_quantity FROM orders o
		LEFT JOIN lineitem l ON o.o_orderkey = l.l_orderkey
		ORDER BY o.o_orderkey, l.l_quantity LIMIT 80`,
}

// TestParallelJoinProbeMatchesSerialOnTPCH pins join-heavy query results to
// the serial executor's bytes at DOP 4 and 8 (the probe runs through
// RunMorsels; the build tables are shared across workers).
func TestParallelJoinProbeMatchesSerialOnTPCH(t *testing.T) {
	serial := openTPCH(t, 1)
	defer serial.Close()

	want := make([]string, len(joinHeavyQueries))
	for i, q := range joinHeavyQueries {
		r, err := serial.Query(q)
		if err != nil {
			t.Fatalf("serial join query %d: %v", i, err)
		}
		if r.Len() == 0 {
			t.Fatalf("serial join query %d returned no rows; dataset too small to exercise the probe", i)
		}
		want[i] = renderRows(r)
	}

	for _, dop := range []int{4, 8} {
		db := openTPCH(t, dop)
		for i, q := range joinHeavyQueries {
			r, err := db.Query(q)
			if err != nil {
				t.Fatalf("dop=%d join query %d: %v", dop, i, err)
			}
			if got := renderRows(r); got != want[i] {
				t.Fatalf("dop=%d join query %d differs from serial:\ngot:\n%s\nwant:\n%s", dop, i, got, want[i])
			}
		}
		db.Close()
	}
}

// TestGroupByDistributionColumnAcrossDOP asserts that GROUP BYs on, with and
// without the table's distribution column match Parallelism 1 at every DOP.
func TestGroupByDistributionColumnAcrossDOP(t *testing.T) {
	load := func(parallelism int) *DB {
		cfg := DefaultConfig()
		cfg.Parallelism = parallelism
		db := Open(cfg)
		db.MustExec(`CREATE TABLE m (k INT, g INT, v INT) WITH (DISTRIBUTION = k)`)
		for s := 0; s < 3; s++ {
			stmt := "INSERT INTO m VALUES "
			for i := 0; i < 100; i++ {
				if i > 0 {
					stmt += ", "
				}
				r := s*100 + i
				stmt += fmt.Sprintf("(%d, %d, %d)", r%17, r%5, r)
			}
			db.MustExec(stmt)
		}
		return db
	}

	queries := []string{
		`SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS mn FROM m GROUP BY k ORDER BY k`,
		`SELECT k, g, COUNT(*) AS n FROM m GROUP BY k, g ORDER BY k, g`, // key set covers k
		`SELECT g, COUNT(*) AS n, SUM(v) AS s FROM m GROUP BY g ORDER BY g`,
		`SELECT k, SUM(v) AS s FROM m WHERE v % 3 = 0 GROUP BY k HAVING COUNT(*) > 2 ORDER BY k`,
	}

	serial := load(1)
	defer serial.Close()
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = renderRows(serial.MustExec(q))
	}

	for _, dop := range []int{4, 8} {
		db := load(dop)
		for i, q := range queries {
			if got := renderRows(db.MustExec(q)); got != want[i] {
				t.Fatalf("dop=%d query %d differs from serial:\ngot:\n%s\nwant:\n%s", dop, i, got, want[i])
			}
		}
		db.Close()
	}
}

func TestParallelExecutorRunsFullTHQuerySet(t *testing.T) {
	if testing.Short() {
		t.Skip("full 22-query power run; run without -short")
	}
	// The full power run is dominated by float SUM/AVG, whose last ulp
	// follows the morsel split, so this test pins schemas and row counts
	// rather than bytes (TestExecutorMatrixIdentity pins the bytes of the
	// non-float shapes at every Parallelism).
	type shape struct {
		cols string
		rows int
	}
	shapes := map[int][]shape{}
	for _, dop := range []int{1, 4} {
		db := openTPCH(t, dop)
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
