package sql

// Tests for distributed query execution (runStagesDAG): the failure-sweep
// harness proving byte-identity of DAG output against the in-process
// reference under every single-task kill schedule, plus budget propagation,
// cancellation on both stage runners, counter determinism and the EXPLAIN
// annotation. See
// docs/DCP-QUERIES.md for the execution model under test.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/objectstore"
)

// dagEnv bundles an engine with its object store so tests can assert on
// spill-namespace hygiene after statements complete or fail.
type dagEnv struct {
	store *objectstore.Store
	eng   *core.Engine
	sess  *Session
}

// newDagEnv builds a 4-node fabric engine with the distributed-query path
// enabled at DOP 4 by default; mut adjusts options before the engine is
// constructed (set Parallelism, budgets, or a failure injector there), and
// storeOpts configure the object store.
func newDagEnv(t *testing.T, mut func(*core.Options), storeOpts ...objectstore.Option) *dagEnv {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Distributions = 4
	opts.RowsPerFile = 100
	opts.RowsPerGroup = 25
	opts.Parallelism = 4
	opts.DistributedQueries = true
	if mut != nil {
		mut(&opts)
	}
	store := objectstore.New(storeOpts...)
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 4, SlotsPer: 2})
	eng := core.NewEngine(catalog.NewDB(), store, fabric, opts)
	return &dagEnv{store: store, eng: eng, sess: NewSession(eng)}
}

// seedDag loads a two-table dataset large enough to split into many morsels:
// 600 orders across 4 distributions (several files and row groups each) and
// 17 customers covering every orders.cust value. All values are derived from
// the row index, so every environment seeds identical bytes.
func seedDag(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE orders (id INT, cust INT, qty INT, amount FLOAT) WITH (DISTRIBUTION = cust, SORTCOL = id)`)
	for chunk := 0; chunk < 3; chunk++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO orders VALUES ")
		for i := 0; i < 200; i++ {
			id := chunk*200 + i
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d.%02d)", id, id%17, id%7, id%23, id%100)
		}
		mustExec(t, s, sb.String())
	}
	var sb strings.Builder
	mustExec(t, s, `CREATE TABLE customers (cid INT, region VARCHAR) WITH (DISTRIBUTION = cid, SORTCOL = cid)`)
	sb.WriteString("INSERT INTO customers VALUES ")
	for c := 0; c < 17; c++ {
		if c > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'region-%02d')", c, c%5)
	}
	mustExec(t, s, sb.String())
}

// renderResult executes q and returns both a human-readable rendering of the
// result rows and the batch's exact serialized bytes. Byte-identity claims in
// this file compare the serialized form; the text rendering exists for
// failure messages.
func renderResult(t *testing.T, s *Session, q string) (string, []byte) {
	t.Helper()
	res, err := s.Exec(q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	if res.Batch == nil {
		t.Fatalf("exec %q: nil result batch", q)
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns(), ","))
	for i := 0; i < res.Batch.NumRows(); i++ {
		fmt.Fprintf(&sb, "\n%v", res.Batch.Row(i))
	}
	data, err := colfile.MarshalBatch(res.Batch.Materialize())
	if err != nil {
		t.Fatalf("marshal result of %q: %v", q, err)
	}
	return sb.String(), data
}

// assertNoSpillLeaks fails if any blob remains under the spill/exchange
// namespace: DAG exchanges and grace-join spills must be cleaned on success
// and on every failure path alike.
func assertNoSpillLeaks(t *testing.T, store *objectstore.Store, when string) {
	t.Helper()
	if leaked := store.List(objectstore.SpillPrefix); len(leaked) > 0 {
		t.Fatalf("%s: %d spill/exchange blobs leaked, e.g. %s", when, len(leaked), leaked[0])
	}
}

// sweepQueries exercise the three stage shapes the DAG planner lowers:
// scan+aggregate (single stage), join+sort (scan/build/gather/probe), and
// join+aggregate. They use only integer and string outputs, so the results
// are byte-identical across every DOP including the serial reference.
var sweepQueries = []string{
	`SELECT cust, COUNT(*), SUM(qty), MIN(id), MAX(id) FROM orders WHERE qty > 1 GROUP BY cust ORDER BY cust`,
	`SELECT o.id, c.region, o.qty FROM orders o JOIN customers c ON o.cust = c.cid WHERE o.qty > 3 AND o.id < 120 ORDER BY o.id`,
	`SELECT c.region, COUNT(*), SUM(o.qty) FROM orders o JOIN customers c ON o.cust = c.cid GROUP BY c.region ORDER BY c.region`,
}

// TestDAGFailureSweepByteIdentity is the failure-sweep property test. For
// each DOP x join-budget cell it first runs every sweep query cleanly (the
// discovery run records the full task-ID set via the injector), then re-runs
// the query once per task ID with that task's first attempt killed. Every
// run — clean or fault-injected — must produce bytes identical to the serial
// in-process reference, leak no exchange files, and each kill schedule must
// register at least one DagRetries tick.
func TestDAGFailureSweepByteIdentity(t *testing.T) {
	ref := newDagEnv(t, func(o *core.Options) {
		o.Parallelism = 1
		o.DistributedQueries = false
	})
	seedDag(t, ref.sess)
	wantText := make([]string, len(sweepQueries))
	wantBytes := make([][]byte, len(sweepQueries))
	for i, q := range sweepQueries {
		wantText[i], wantBytes[i] = renderResult(t, ref.sess, q)
	}

	dops := []int{1, 4, 8}
	budgets := []int64{0, 2048}
	if testing.Short() {
		dops = []int{4}
	}
	for _, dop := range dops {
		for _, budget := range budgets {
			t.Run(fmt.Sprintf("dop=%d,budget=%d", dop, budget), func(t *testing.T) {
				var mu sync.Mutex
				seen := map[int]bool{}
				killTask := -1
				inject := func(taskID, attempt int, node *compute.Node) error {
					mu.Lock()
					defer mu.Unlock()
					seen[taskID] = true
					if taskID == killTask && attempt == 1 {
						return fmt.Errorf("injected node failure: task %d attempt %d", taskID, attempt)
					}
					return nil
				}
				env := newDagEnv(t, func(o *core.Options) {
					o.Parallelism = dop
					o.JoinMemoryBudget = budget
					o.QueryFailureInjector = inject
				})
				seedDag(t, env.sess)
				for qi, q := range sweepQueries {
					mu.Lock()
					killTask = -1
					for k := range seen {
						delete(seen, k)
					}
					mu.Unlock()

					gotText, gotBytes := renderResult(t, env.sess, q)
					if gotText != wantText[qi] {
						t.Fatalf("query %d: clean DAG run diverged from serial reference\n got: %s\nwant: %s", qi, gotText, wantText[qi])
					}
					if !bytes.Equal(gotBytes, wantBytes[qi]) {
						t.Fatalf("query %d: clean run rows match but serialized bytes differ", qi)
					}
					assertNoSpillLeaks(t, env.store, fmt.Sprintf("query %d clean run", qi))

					mu.Lock()
					ids := make([]int, 0, len(seen))
					for id := range seen {
						ids = append(ids, id)
					}
					mu.Unlock()
					sort.Ints(ids)
					if len(ids) == 0 {
						t.Fatalf("query %d: distributed path produced no DAG tasks at dop %d", qi, dop)
					}
					if testing.Short() && len(ids) > 8 {
						ids = ids[:8]
					}

					retriesBefore := env.eng.Work.DagRetries.Load()
					for _, id := range ids {
						mu.Lock()
						killTask = id
						mu.Unlock()
						gotText, gotBytes := renderResult(t, env.sess, q)
						if gotText != wantText[qi] {
							t.Fatalf("query %d: output diverged when task %d failed on attempt 1\n got: %s\nwant: %s", qi, id, gotText, wantText[qi])
						}
						if !bytes.Equal(gotBytes, wantBytes[qi]) {
							t.Fatalf("query %d: serialized bytes diverged when task %d failed on attempt 1", qi, id)
						}
						assertNoSpillLeaks(t, env.store, fmt.Sprintf("query %d after killing task %d", qi, id))
					}
					mu.Lock()
					killTask = -1
					mu.Unlock()
					if n := int64(len(ids)); n > 0 {
						if got := env.eng.Work.DagRetries.Load() - retriesBefore; got < n {
							t.Fatalf("query %d: observed %d retries across %d single-kill schedules, want >= %d", qi, got, n, n)
						}
					}
				}
			})
		}
	}
}

// TestDAGMatchesMorselExecutorFloats compares the DAG path against the
// in-process morsel executor at the same DOP for float aggregation, where
// summation order matters: both paths must combine partials in morsel order
// and therefore agree bitwise.
func TestDAGMatchesMorselExecutorFloats(t *testing.T) {
	q := `SELECT cust, SUM(amount), AVG(amount) FROM orders GROUP BY cust ORDER BY cust`
	for _, dop := range []int{4, 8} {
		morsel := newDagEnv(t, func(o *core.Options) {
			o.Parallelism = dop
			o.DistributedQueries = false
		})
		seedDag(t, morsel.sess)
		wantText, wantBytes := renderResult(t, morsel.sess, q)

		dag := newDagEnv(t, func(o *core.Options) { o.Parallelism = dop })
		seedDag(t, dag.sess)
		gotText, gotBytes := renderResult(t, dag.sess, q)
		if gotText != wantText || !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("dop %d: DAG float aggregation diverged from morsel executor\n got: %s\nwant: %s", dop, gotText, wantText)
		}
	}
}

// TestDAGJoinBudgetOverridePropagates: a per-session SetJoinMemoryBudget
// override must reach the DAG build stage — the engine-wide budget is
// unlimited here, so the spill can only come from the override.
func TestDAGJoinBudgetOverridePropagates(t *testing.T) {
	q := `SELECT o.id, c.region FROM orders o JOIN customers c ON o.cust = c.cid WHERE o.qty > 2 ORDER BY o.id`
	ref := newDagEnv(t, func(o *core.Options) {
		o.Parallelism = 1
		o.DistributedQueries = false
	})
	seedDag(t, ref.sess)
	wantText, wantBytes := renderResult(t, ref.sess, q)

	env := newDagEnv(t, nil) // engine-wide budget: unlimited
	seedDag(t, env.sess)
	env.sess.SetJoinMemoryBudget(256)
	spillsBefore := env.eng.Work.JoinSpills.Load()
	gotText, gotBytes := renderResult(t, env.sess, q)
	if gotText != wantText || !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("budget-constrained DAG join diverged from reference\n got: %s\nwant: %s", gotText, wantText)
	}
	if env.eng.Work.JoinSpills.Load() == spillsBefore {
		t.Fatal("session join-budget override did not reach the DAG build stage: no spill recorded")
	}
	assertNoSpillLeaks(t, env.store, "after budget-constrained DAG join")
}

// TestDAGSurvivesNodeDeath kills the first task's node for real (not just a
// simulated error): the retry must re-place onto a surviving node and the
// output must still match the serial reference.
func TestDAGSurvivesNodeDeath(t *testing.T) {
	q := sweepQueries[2]
	ref := newDagEnv(t, func(o *core.Options) {
		o.Parallelism = 1
		o.DistributedQueries = false
	})
	seedDag(t, ref.sess)
	wantText, wantBytes := renderResult(t, ref.sess, q)

	var mu sync.Mutex
	armed := false
	killed := false
	env := newDagEnv(t, func(o *core.Options) {
		o.QueryFailureInjector = func(taskID, attempt int, node *compute.Node) error {
			mu.Lock()
			defer mu.Unlock()
			if armed && !killed {
				killed = true
				node.Kill()
				return fmt.Errorf("node %d lost mid-task", node.ID)
			}
			return nil
		}
	})
	seedDag(t, env.sess)
	mu.Lock()
	armed = true // seeding done; arm the kill for the query's first task
	mu.Unlock()
	gotText, gotBytes := renderResult(t, env.sess, q)
	if gotText != wantText || !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("DAG output diverged after node death\n got: %s\nwant: %s", gotText, wantText)
	}
	if env.eng.Work.DagRetries.Load() == 0 {
		t.Fatal("node death did not register a DAG retry")
	}
	assertNoSpillLeaks(t, env.store, "after node-death run")
}

// TestDAGHardFailureCleansUp: when every attempt of every task fails, the
// statement must error out, release its fabric lease, leave no exchange or
// spill files behind, and not advance the success-only DAG counters.
func TestDAGHardFailureCleansUp(t *testing.T) {
	env := newDagEnv(t, func(o *core.Options) {
		o.QueryFailureInjector = func(taskID, attempt int, node *compute.Node) error {
			return fmt.Errorf("persistent failure: task %d attempt %d", taskID, attempt)
		}
	})
	seedDag(t, env.sess)
	if _, err := env.sess.Exec(sweepQueries[1]); err == nil {
		t.Fatal("want error from persistently failing DAG")
	}
	assertNoSpillLeaks(t, env.store, "after failed statement")
	if got := env.eng.Fabric.LeasedSlots(); got != 0 {
		t.Fatalf("%d fabric slots still leased after failed statement", got)
	}
	if got := env.eng.Work.DagTasks.Load(); got != 0 {
		t.Fatalf("DagTasks = %d after failed run, want 0 (success-only counter)", got)
	}
}

// TestDAGStatementCancel drives cancellation end to end through the SQL
// surface: the injector cancels the statement context after the first task
// completes; the statement must return a context.Canceled error, clean up
// all spill state and release its lease.
func TestDAGStatementCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	env := newDagEnv(t, func(o *core.Options) {
		o.QueryFailureInjector = func(taskID, attempt int, node *compute.Node) error {
			cancel()
			return fmt.Errorf("node lost while canceling")
		}
	})
	seedDag(t, env.sess)
	_, err := env.sess.ExecWith(sweepQueries[1], ExecOpts{Ctx: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	assertNoSpillLeaks(t, env.store, "after canceled statement")
	if got := env.eng.Fabric.LeasedSlots(); got != 0 {
		t.Fatalf("%d fabric slots still leased after canceled statement", got)
	}
}

// TestMorselStatementCancel is TestDAGStatementCancel for the in-process
// stage runner: a statement whose ExecOpts.Ctx is cancelled — before it
// starts, or mid-flight — stops with context.Canceled at Parallelism 1 and 4
// alike, holds no worker slot and leaves nothing under spill/. Mid-flight
// means during the statement's scan fetch, or, under a spilling budget, at
// its first spill write: by then a build has partition files in the store
// and the partition-wise join is still to run. The last case pins that the
// scan fetch itself stops on the cancel.
func TestMorselStatementCancel(t *testing.T) {
	q := sweepQueries[1]
	for _, dop := range []int{1, 4} {
		for _, budget := range []int64{0, 256} {
			for _, when := range []string{"before", "mid-flight"} {
				t.Run(fmt.Sprintf("dop=%d,budget=%d,%s", dop, budget, when), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var armed atomic.Bool
					cancelIfArmed := func() {
						if armed.Load() {
							cancel()
						}
					}
					// The store stamps every write with its clock, and a
					// SELECT's only writes are spill files.
					clock := func() time.Time {
						if budget > 0 {
							cancelIfArmed()
						}
						return time.Now()
					}
					env := newDagEnv(t, func(o *core.Options) {
						o.Parallelism = dop
						o.DistributedQueries = false
						o.JoinMemoryBudget = budget
						o.TaskFailureInjector = func(int, int, *compute.Node) error {
							if budget == 0 {
								cancelIfArmed()
							}
							return nil
						}
					}, objectstore.WithClock(clock))
					seedDag(t, env.sess)
					if when == "before" {
						cancel()
					} else {
						armed.Store(true)
					}
					spillsBefore := env.eng.Work.JoinSpills.Load()
					_, err := env.sess.ExecWith(q, ExecOpts{Ctx: ctx})
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("err = %v, want context.Canceled in chain", err)
					}
					if when == "mid-flight" && budget > 0 && env.eng.Work.JoinSpills.Load() == spillsBefore {
						t.Fatal("the cancel was meant to land after a build spilled, but none did")
					}
					assertNoSpillLeaks(t, env.store, "after canceled statement")
					if got := env.eng.Fabric.LeasedSlots(); got != 0 {
						t.Fatalf("%d fabric slots still leased after canceled statement", got)
					}
				})
			}
		}
	}
	// The scan fetch runs under the statement's context like every later
	// stage: a cancel raised while the first cells are being fetched returns
	// context.Canceled and abandons the cells not yet started, instead of
	// fetching the whole table for a doomed statement.
	t.Run("scan-fetch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var canceling atomic.Bool
		var fetched atomic.Int64 // cell fetch tasks that ran to completion
		env := newDagEnv(t, func(o *core.Options) {
			o.DistributedQueries = false
			o.Distributions = 64 // many more cells than the fabric's 8 slots
			o.TaskFailureInjector = func(int, int, *compute.Node) error {
				fetched.Add(1)
				if canceling.Load() {
					cancel()
					return errors.New("node lost while canceling")
				}
				return nil
			}
		})
		mustExec(t, env.sess, `CREATE TABLE many (k INT, v INT) WITH (DISTRIBUTION = k)`)
		var sb strings.Builder
		sb.WriteString("INSERT INTO many VALUES ")
		for i := 0; i < 512; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
		}
		mustExec(t, env.sess, sb.String())

		const q = `SELECT COUNT(*), SUM(v) FROM many`
		fetched.Store(0)
		mustExec(t, env.sess, q)
		cells := fetched.Load()
		if cells < 32 {
			t.Fatalf("a clean run fetched %d cells; the table was meant to fill most of 64", cells)
		}

		fetched.Store(0)
		canceling.Store(true)
		_, err := env.sess.ExecWith(q, ExecOpts{Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in chain", err)
		}
		if got := fetched.Load(); got >= cells {
			t.Fatalf("the cancelled statement still fetched %d of %d cells", got, cells)
		}
		if got := env.eng.Fabric.LeasedSlots(); got != 0 {
			t.Fatalf("%d fabric slots still leased after canceled statement", got)
		}
	})
}

// TestDAGAtParallelismOne: DistributedQueries is honoured by a one-worker
// engine — EXPLAIN says so and the statement really runs as a task DAG.
func TestDAGAtParallelismOne(t *testing.T) {
	env := newDagEnv(t, func(o *core.Options) { o.Parallelism = 1 })
	seedDag(t, env.sess)
	for _, q := range sweepQueries {
		res := mustExec(t, env.sess, `EXPLAIN `+q)
		if line := res.Batch.Row(0)[0].(string); !strings.Contains(line, " [dag]") {
			t.Fatalf("scan line %q missing [dag] annotation at Parallelism 1", line)
		}
		before := env.eng.Work.DagTasks.Load()
		mustExec(t, env.sess, q)
		if env.eng.Work.DagTasks.Load() == before {
			t.Fatalf("DagTasks did not advance at Parallelism 1: %s", q)
		}
	}
}

// TestDAGCountersDeterministic: identical runs advance DagTasks/DagStages by
// identical deltas (retry-invariant task accounting), with zero retries on a
// clean run. A one-join query is exactly two stages.
func TestDAGCountersDeterministic(t *testing.T) {
	env := newDagEnv(t, nil)
	seedDag(t, env.sess)
	q := sweepQueries[2]
	type snap struct{ tasks, stages, retries int64 }
	take := func() snap {
		return snap{env.eng.Work.DagTasks.Load(), env.eng.Work.DagStages.Load(), env.eng.Work.DagRetries.Load()}
	}
	s0 := take()
	mustExec(t, env.sess, q)
	s1 := take()
	mustExec(t, env.sess, q)
	s2 := take()
	d1 := snap{s1.tasks - s0.tasks, s1.stages - s0.stages, s1.retries - s0.retries}
	d2 := snap{s2.tasks - s1.tasks, s2.stages - s1.stages, s2.retries - s1.retries}
	if d1 != d2 {
		t.Fatalf("counter deltas differ across identical runs: %+v vs %+v", d1, d2)
	}
	if d1.tasks == 0 || d1.stages != 2 {
		t.Fatalf("join query delta tasks=%d stages=%d, want tasks>0 stages=2", d1.tasks, d1.stages)
	}
	if d1.retries != 0 {
		t.Fatalf("clean runs recorded %d retries, want 0", d1.retries)
	}
}

// TestDAGExchangeWritesOnlyWhatItReads pins the exchange's frame contract
// (docs/DCP-QUERIES.md): every frame a DAG statement writes is read once and
// deleted inside the statement, so on a warm engine — the compute cache holds
// every data file, leaving the exchange the store's only traffic — a
// statement's puts, gets and deletes are equal.
func TestDAGExchangeWritesOnlyWhatItReads(t *testing.T) {
	env := newDagEnv(t, nil) // budget 0: no join spills
	seedDag(t, env.sess)
	for qi, q := range sweepQueries {
		mustExec(t, env.sess, q) // warm the compute cache
		before := env.store.Metrics()
		mustExec(t, env.sess, q)
		after := env.store.Metrics()
		puts, gets, dels := after.Puts-before.Puts, after.Gets-before.Gets, after.Deletes-before.Deletes
		if puts == 0 || puts != gets || puts != dels {
			t.Fatalf("query %d: warm run put %d, got %d and deleted %d blobs; want equal and non-zero", qi, puts, gets, dels)
		}
	}
}

// TestExplainDagAnnotation pins the [dag] marker: present on the base scan
// when the distributed path will execute the statement, absent for bare
// LIMIT statements (which stay on the streaming path) and when the flag is
// off.
func TestExplainDagAnnotation(t *testing.T) {
	env := newDagEnv(t, nil)
	seedDag(t, env.sess)
	res := mustExec(t, env.sess, `EXPLAIN `+sweepQueries[1])
	if line := res.Batch.Row(0)[0].(string); !strings.Contains(line, " [dag]") {
		t.Fatalf("scan line %q missing [dag] annotation", line)
	}
	res = mustExec(t, env.sess, `EXPLAIN SELECT id FROM orders LIMIT 3`)
	if line := res.Batch.Row(0)[0].(string); strings.Contains(line, "[dag]") {
		t.Fatalf("bare LIMIT scan line %q should not carry [dag]", line)
	}

	off := newDagEnv(t, func(o *core.Options) { o.DistributedQueries = false })
	seedDag(t, off.sess)
	res = mustExec(t, off.sess, `EXPLAIN `+sweepQueries[0])
	if line := res.Batch.Row(0)[0].(string); strings.Contains(line, "[dag]") {
		t.Fatalf("flag-off scan line %q should not carry [dag]", line)
	}
}
