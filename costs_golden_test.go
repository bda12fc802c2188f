//go:build !race

// The race detector instruments every allocation and makes sync.Pool drop a
// random share of what it is given, so the cost golden runs without it.

package polaris

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"polaris/internal/sql"
	"polaris/internal/workload"
)

var updateCosts = flag.Bool("update", false, "rewrite testdata/costs.golden from this run")

// costsGoldenPath holds one line per statement of costStatements: what the
// statement read and wrote, and what it allocated.
const costsGoldenPath = "testdata/costs.golden"

// costScale is the TPC-H scale factor of the dataset: 8,000 lineitem rows
// bulk-loaded from two source files and 2,000 orders inserted whole, so
// orders is eight cells of one row group each, clustered on o_orderdate.
const costScale = 1

// costRuns is how many measured runs each statement gets after one warm-up
// run. A run's counters must equal every other run's; its allocations and
// bytes are the minimum over the runs, because a GC between runs empties
// every sync.Pool and the next run pays to refill it.
const costRuns = 5

// costAllocSlack is how far a statement's allocations or bytes may rise above
// its golden line before the test fails; they may fall freely.
const costAllocSlack = 0.02

// costStatement is one statement of the golden. txn runs it inside BEGIN …
// ROLLBACK, so every run of a DML statement starts from the same state;
// before, when set, runs unmeasured in the same transaction ahead of it.
type costStatement struct {
	name, sql, before string
	txn               bool
}

// costStatements are the 22 TPC-H queries, then http_mixed's reader
// statements that are not TPC-H queries (its other three are Q3, Q6 and
// Q13) and its writer's UPDATE, with the keys fixed. The UPDATE runs twice:
// on the loaded table, and after a scattered DELETE has left a deletion
// vector on every orders file, which pins what the row finder's
// deletion-vector path allocates.
func costStatements() []costStatement {
	const httpUpdate = "UPDATE orders SET o_totalprice = o_totalprice + 1 WHERE o_orderkey BETWEEN 1001 AND 1010"
	var out []costStatement
	for i, q := range workload.THQueries() {
		out = append(out, costStatement{name: fmt.Sprintf("tpch/q%02d", i+1), sql: q})
	}
	return append(out,
		costStatement{name: "http/point", sql: "SELECT * FROM orders WHERE o_orderkey = 777"},
		costStatement{name: "http/wide", sql: "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey BETWEEN 501 AND 1500"},
		costStatement{name: "http/count", sql: "SELECT COUNT(*) AS n FROM orders"},
		costStatement{name: "http/update", sql: httpUpdate, txn: true},
		costStatement{name: "http/update_dv", sql: httpUpdate, before: "DELETE FROM orders WHERE o_orderkey % 3 = 0", txn: true},
	)
}

// stmtCost is one golden line. The counters — result rows (rows affected for
// DML), rows scanned, files and bytes read, object-store gets and puts — are
// exact; allocs and bytes are the runtime's malloc and byte counts.
type stmtCost struct {
	name                                   string
	rows, scanned, files, read, gets, puts int64
	allocs, bytes                          uint64
}

const stmtCostFormat = "%s rows=%d scanned=%d files=%d read=%d gets=%d puts=%d allocs=%d bytes=%d"

func (c stmtCost) String() string {
	return fmt.Sprintf(stmtCostFormat, c.name, c.rows, c.scanned, c.files, c.read, c.gets, c.puts, c.allocs, c.bytes)
}

func (c stmtCost) counters() [6]int64 {
	return [6]int64{c.rows, c.scanned, c.files, c.read, c.gets, c.puts}
}

// measureCosts runs every statement once to warm the caches and pools, then
// costRuns times measured, on one database at Parallelism 1.
func measureCosts(t *testing.T) []stmtCost {
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	db := Open(cfg)
	defer db.Close()
	eng := db.Engine()
	if _, err := workload.LoadTPCH(eng, costScale, 2); err != nil {
		t.Fatal(err)
	}
	sess := sql.NewSession(eng)
	exec := func(q string) int64 {
		t.Helper()
		res, err := sess.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Batch != nil {
			return int64(res.Batch.NumRows())
		}
		return res.RowsAffected
	}
	var out []stmtCost
	for _, st := range costStatements() {
		var best stmtCost
		for run := 0; run <= costRuns; run++ {
			if st.txn {
				exec("BEGIN")
			}
			if st.before != "" {
				exec(st.before)
			}
			rows0, files0, read0 := eng.Work.Snapshot()
			store0 := eng.Store.Metrics()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			rows := exec(st.sql)
			runtime.ReadMemStats(&m1)
			rows1, files1, read1 := eng.Work.Snapshot()
			store1 := eng.Store.Metrics()
			if st.txn {
				exec("ROLLBACK")
			}
			c := stmtCost{name: st.name, rows: rows, scanned: rows1 - rows0, files: files1 - files0, read: read1 - read0,
				gets: store1.Gets - store0.Gets, puts: store1.Puts - store0.Puts,
				allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
			switch {
			case run == 0: // warm-up
			case run == 1:
				best = c
			case c.counters() != best.counters():
				t.Fatalf("%s: run %d counted %v, run 1 %v: the counters are not deterministic", st.name, run, c, best)
			default:
				best.allocs, best.bytes = min(best.allocs, c.allocs), min(best.bytes, c.bytes)
			}
		}
		out = append(out, best)
	}
	return out
}

func readCostsGolden(t *testing.T) map[string]stmtCost {
	data, err := os.ReadFile(costsGoldenPath)
	if err != nil {
		t.Fatalf("%v (go test -run TestCostsGolden -update . writes it)", err)
	}
	want := map[string]stmtCost{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var c stmtCost
		if _, err := fmt.Sscanf(line, stmtCostFormat, &c.name, &c.rows, &c.scanned, &c.files, &c.read, &c.gets, &c.puts, &c.allocs, &c.bytes); err != nil {
			t.Fatalf("%s: %q: %v", costsGoldenPath, line, err)
		}
		want[c.name] = c
	}
	return want
}

// TestCostsGolden is the per-statement cost golden: each statement of
// costStatements must read and write exactly what testdata/costs.golden says
// and allocate at most costAllocSlack more objects and bytes than it does.
// A change that moves a line on purpose rewrites the file with -update and
// says in CHANGES.md which lines moved and why.
func TestCostsGolden(t *testing.T) {
	got := measureCosts(t)
	if *updateCosts {
		var sb strings.Builder
		sb.WriteString("# Per-statement costs at Parallelism 1 over TPC-H SF 1; see costs_golden_test.go.\n")
		sb.WriteString("# Counters are exact; allocs and bytes may rise at most 2 %. Rewrite with -update.\n")
		for _, c := range got {
			sb.WriteString(c.String() + "\n")
		}
		if err := os.WriteFile(costsGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readCostsGolden(t)
	if len(want) != len(got) {
		t.Errorf("%s has %d statements, the test runs %d", costsGoldenPath, len(want), len(got))
	}
	over := func(g, w uint64) bool { return float64(g) > float64(w)*(1+costAllocSlack) }
	for _, g := range got {
		w, ok := want[g.name]
		switch {
		case !ok:
			t.Errorf("%s: no golden line", g.name)
		case g.counters() != w.counters():
			t.Errorf("%s: counters moved:\n got %v\nwant %v", g.name, g, w)
		case over(g.allocs, w.allocs) || over(g.bytes, w.bytes):
			t.Errorf("%s: allocates more than %.0f %% over its golden line:\n got %v\nwant %v", g.name, 100*costAllocSlack, g, w)
		}
	}
}
