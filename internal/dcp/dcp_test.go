package dcp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"polaris/internal/compute"
)

func pools(readNodes, writeNodes int) (Pools, *compute.Fabric) {
	f := compute.NewFabric(compute.Config{Elastic: true, InitNodes: readNodes + writeNodes, SlotsPer: 2})
	nodes := f.Nodes()
	return Pools{
		ReadPool:  nodes[:readNodes],
		WritePool: nodes[readNodes:],
	}, f
}

func simpleTask(id int, deps []int, out any, sim time.Duration) *Task {
	return &Task{
		ID: id, Name: fmt.Sprintf("t%d", id), Deps: deps,
		Exec: func(ctx *Ctx) (any, error) {
			ctx.Charge(sim)
			return out, nil
		},
	}
}

// run runs tasks as one job — Start, one Run, Close — and returns their
// outputs in argument order with the job's Result.
func run(ctx context.Context, p Pools, opts Options, tasks ...*Task) ([]any, *Result, error) {
	j := Start(ctx, p, opts)
	outs, _ := j.Run(tasks...) // a failed Run fails the job, and Close reports it
	res, err := j.Close()
	return outs, res, err
}

func TestLinearChain(t *testing.T) {
	p, _ := pools(2, 1)
	outs, res, err := run(context.Background(), p, Options{Overhead: time.Millisecond},
		simpleTask(1, nil, "a", 10*time.Millisecond),
		simpleTask(2, []int{1}, "b", 10*time.Millisecond),
		simpleTask(3, []int{2}, "c", 10*time.Millisecond))
	must(t, err)
	if outs[2] != "c" || len(res.PerTask) != 3 {
		t.Fatalf("outputs = %v, %d tasks completed", outs, len(res.PerTask))
	}
	// serialized: makespan >= 3 * (10ms + 1ms overhead)
	if res.Makespan < 33*time.Millisecond {
		t.Fatalf("makespan = %v, want >= 33ms for a serial chain", res.Makespan)
	}
}

func TestParallelFanOutOverlaps(t *testing.T) {
	var tasks []*Task
	for i := 1; i <= 8; i++ {
		tasks = append(tasks, simpleTask(i, nil, i, 10*time.Millisecond))
	}
	p, _ := pools(2, 1) // 2 nodes x 2 slots = 4 lanes
	_, res, err := run(context.Background(), p, Options{Overhead: time.Millisecond}, tasks...)
	must(t, err)
	// 8 tasks over 4 lanes: 2 waves => ~22ms, far below serial 88ms
	if res.Makespan > 40*time.Millisecond {
		t.Fatalf("makespan = %v, want parallel overlap", res.Makespan)
	}
	if res.Makespan < 20*time.Millisecond {
		t.Fatalf("makespan = %v, too low for 2 waves", res.Makespan)
	}
}

func TestCycleDetection(t *testing.T) {
	p, _ := pools(1, 1)
	if _, _, err := run(context.Background(), p, Options{},
		simpleTask(1, []int{2}, nil, 0), simpleTask(2, []int{1}, nil, 0)); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestUnknownDependency(t *testing.T) {
	p, _ := pools(1, 1)
	if _, _, err := run(context.Background(), p, Options{}, simpleTask(1, []int{99}, nil, 0)); err == nil {
		t.Fatal("unknown dep accepted")
	}
}

// TestGraphValidation: a task without Exec and a task ID already in the job —
// in the same batch or an earlier one — are Run errors that fail the job
// before the batch runs anything.
func TestGraphValidation(t *testing.T) {
	var ran atomic.Int32
	counted := func(id int) *Task {
		return &Task{ID: id, Exec: func(*Ctx) (any, error) {
			ran.Add(1)
			return nil, nil
		}}
	}
	for _, c := range []struct {
		name           string
		earlier, batch []*Task
	}{
		{"missing Exec", nil, []*Task{counted(1), {ID: 2}}},
		{"duplicate id in a batch", nil, []*Task{counted(1), counted(1)}},
		{"duplicate id across batches", []*Task{counted(1)}, []*Task{counted(1)}},
	} {
		p, _ := pools(1, 1)
		j := Start(context.Background(), p, Options{})
		if c.earlier != nil {
			_, err := j.Run(c.earlier...)
			must(t, err)
		}
		ran.Store(0)
		if _, err := j.Run(c.batch...); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
		if ran.Load() != 0 {
			t.Fatalf("%s: the batch ran", c.name)
		}
		if _, err := j.Close(); err == nil {
			t.Fatalf("%s: Close of the failed job returned a result", c.name)
		}
	}
}

func TestRetryOnTransientFailure(t *testing.T) {
	var calls int32
	p, _ := pools(2, 1)
	outs, res, err := run(context.Background(), p, Options{}, &Task{
		ID: 1,
		Exec: func(ctx *Ctx) (any, error) {
			if atomic.AddInt32(&calls, 1) < 3 {
				return nil, errors.New("transient")
			}
			return "ok", nil
		},
	})
	must(t, err)
	if outs[0] != "ok" || res.Retries != 2 {
		t.Fatalf("out=%v retries=%d", outs[0], res.Retries)
	}
	if res.PerTask[1].Attempts != 3 {
		t.Fatalf("attempts = %d", res.PerTask[1].Attempts)
	}
}

func TestPermanentFailure(t *testing.T) {
	var calls atomic.Int32
	p, _ := pools(1, 1)
	_, _, err := run(context.Background(), p, Options{}, &Task{
		ID:   1,
		Name: "doomed",
		Exec: func(ctx *Ctx) (any, error) {
			calls.Add(1)
			return nil, errors.New("boom")
		},
	}, simpleTask(2, []int{1}, "never", 0))
	if err == nil {
		t.Fatal("permanent failure not reported")
	}
	if n := calls.Load(); n != maxAttempts {
		t.Fatalf("doomed task ran %d times, want %d", n, maxAttempts)
	}
}

func TestFailureInjectorRePlacement(t *testing.T) {
	// The failed attempt's Exec runs (side effects persist), its output is
	// discarded, and the retry lands on a different node.
	var nodesSeen []int
	task := &Task{
		ID: 1,
		Exec: func(ctx *Ctx) (any, error) {
			nodesSeen = append(nodesSeen, ctx.Node.ID)
			return fmt.Sprintf("attempt-%d", ctx.Attempt), nil
		},
	}
	p, _ := pools(3, 1)
	injected := false
	opts := Options{
		FailureInjector: func(taskID, attempt int, node *compute.Node) error {
			if attempt == 1 && !injected {
				injected = true
				return errors.New("injected node failure")
			}
			return nil
		},
	}
	outs, res, err := run(context.Background(), p, opts, task)
	must(t, err)
	if res.Retries != 1 {
		t.Fatalf("retries = %d", res.Retries)
	}
	if len(nodesSeen) != 2 || nodesSeen[0] == nodesSeen[1] {
		t.Fatalf("re-placement failed: nodes = %v", nodesSeen)
	}
	if outs[0] != "attempt-2" {
		t.Fatalf("failed attempt's output survived: %v", outs[0])
	}
}

func TestDeadNodesSkipped(t *testing.T) {
	p, f := pools(2, 1)
	f.KillNode(p[ReadPool][0].ID)
	var node int
	_, res, err := run(context.Background(), p, Options{}, &Task{ID: 1, Exec: func(ctx *Ctx) (any, error) {
		node = ctx.Node.ID
		return nil, nil
	}})
	must(t, err)
	if node != p[ReadPool][1].ID {
		t.Fatalf("task placed on dead node %d", res.PerTask[1].Node)
	}
}

func TestAllNodesDead(t *testing.T) {
	p, f := pools(1, 1)
	f.KillNode(p[ReadPool][0].ID)
	if _, _, err := run(context.Background(), p, Options{}, simpleTask(1, nil, nil, 0)); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v", err)
	}
}

func TestWLMSeparation(t *testing.T) {
	p, _ := pools(2, 2)
	readIDs := map[int]bool{p[ReadPool][0].ID: true, p[ReadPool][1].ID: true}
	var tasks []*Task
	for i := 1; i <= 4; i++ {
		pool := ReadPool
		if i%2 == 0 {
			pool = WritePool
		}
		tasks = append(tasks, &Task{ID: i, Pool: pool, Exec: func(ctx *Ctx) (any, error) {
			return ctx.Node.ID, nil
		}})
	}
	outs, _, err := run(context.Background(), p, Options{}, tasks...)
	must(t, err)
	for i, out := range outs {
		id := i + 1
		onRead := readIDs[out.(int)]
		wantRead := id%2 == 1
		if onRead != wantRead {
			t.Fatalf("task %d ran on wrong pool (node %v)", id, out)
		}
	}
}

func TestWritesDoNotDelayReadsUnderWLM(t *testing.T) {
	// With separated pools, heavy write tasks must not inflate read makespan.
	makespanFor := func(shared bool) time.Duration {
		f := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 1})
		nodes := f.Nodes()
		var p Pools
		if shared {
			p = Pools{ReadPool: nodes, WritePool: nodes}
		} else {
			p = Pools{ReadPool: nodes[:1], WritePool: nodes[1:]}
		}
		// 4 heavy writes + 4 light reads
		var tasks []*Task
		for i := 1; i <= 4; i++ {
			tasks = append(tasks, simpleTaskPool(i, WritePool, 100*time.Millisecond),
				simpleTaskPool(10+i, ReadPool, time.Millisecond))
		}
		_, res, err := run(context.Background(), p, Options{Overhead: time.Nanosecond}, tasks...)
		if err != nil {
			panic(err)
		}
		var readEnd time.Duration
		for i := 11; i <= 14; i++ {
			if res.PerTask[i].VirtEnd > readEnd {
				readEnd = res.PerTask[i].VirtEnd
			}
		}
		return readEnd
	}
	separated := makespanFor(false)
	shared := makespanFor(true)
	if separated >= shared {
		t.Fatalf("WLM separation did not help reads: separated=%v shared=%v", separated, shared)
	}
}

func simpleTaskPool(id int, pool PoolKind, sim time.Duration) *Task {
	return &Task{ID: id, Pool: pool, Exec: func(ctx *Ctx) (any, error) {
		ctx.Charge(sim)
		return nil, nil
	}}
}

func TestStartOffsetShiftsMakespan(t *testing.T) {
	p, _ := pools(1, 1)
	_, res, err := run(context.Background(), p, Options{StartOffset: time.Second, Overhead: 0},
		simpleTask(1, nil, nil, 10*time.Millisecond))
	must(t, err)
	if res.Makespan < time.Second+10*time.Millisecond {
		t.Fatalf("makespan = %v", res.Makespan)
	}
}

func TestEmptyGraph(t *testing.T) {
	p, _ := pools(1, 1)
	outs, res, err := run(context.Background(), p, Options{})
	must(t, err)
	if res.Makespan != 0 || len(outs) != 0 || len(res.PerTask) != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestMoreNodesShrinkMakespan(t *testing.T) {
	// The elasticity premise: the same task set on a bigger topology has a
	// smaller simulated makespan (Fig. 8's mechanism).
	var tasks []*Task
	for i := 1; i <= 32; i++ {
		tasks = append(tasks, simpleTask(i, nil, nil, 50*time.Millisecond))
	}
	makespan := func(nodes int) time.Duration {
		f := compute.NewFabric(compute.Config{Elastic: true, InitNodes: nodes, SlotsPer: 2})
		_, res, err := run(context.Background(), Pools{ReadPool: f.Nodes(), WritePool: f.Nodes()}, Options{Overhead: 0}, tasks...)
		must(t, err)
		return res.Makespan
	}
	small := makespan(2)  // 4 lanes: 8 waves
	large := makespan(16) // 32 lanes: 1 wave
	if large >= small {
		t.Fatalf("scale-out did not help: %v vs %v", large, small)
	}
	ratio := float64(small) / float64(large)
	if ratio < 4 {
		t.Fatalf("speedup ratio = %.1f, want >= 4", ratio)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunCtxCancelStopsUnstartedTasks pins the first cancellation guarantee
// of a job's Run: once the context is canceled, tasks that have not started
// never execute their payload, and the job reports an error satisfying
// errors.Is(err, context.Canceled). A gate task holds the DAG open until the
// cancel has definitely happened, so the dependents deterministically observe
// it (either the scheduler abandons them outright, or their first attempt
// sees the canceled context before doing work).
func TestRunCtxCancelStopsUnstartedTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	tasks := []*Task{{ID: 1, Name: "gate", Exec: func(tc *Ctx) (any, error) {
		close(started)
		<-release
		return "gate", nil
	}}}
	var ran atomic.Int32
	for i := 2; i <= 6; i++ {
		tasks = append(tasks, &Task{ID: i, Name: fmt.Sprintf("child%d", i), Deps: []int{1},
			Exec: func(tc *Ctx) (any, error) {
				if err := tc.Context().Err(); err != nil {
					return nil, err
				}
				ran.Add(1)
				return nil, nil
			}})
	}
	p, _ := pools(2, 1)
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		_, res, err = run(ctx, p, Options{Overhead: time.Millisecond}, tasks...)
	}()
	<-started
	cancel()
	close(release)
	<-done
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil result on canceled run", res)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d dependent tasks ran their payload after cancel", n)
	}
}

// TestRunCtxCancelObservedInFlight pins the second guarantee: a task that is
// already executing sees the cancellation through Ctx.Context at its next
// boundary and can return early; the job surfaces a clean error rather than
// hanging.
func TestRunCtxCancelObservedInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	task := &Task{ID: 1, Name: "inflight", Exec: func(tc *Ctx) (any, error) {
		close(entered)
		<-tc.Context().Done() // an operator checking at a batch boundary
		return nil, tc.Context().Err()
	}}
	go func() {
		<-entered
		cancel()
	}()
	p, _ := pools(1, 1)
	_, res, err := run(ctx, p, Options{Overhead: time.Millisecond}, task)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil result", res)
	}
}

// TestRunCtxPreCanceled: a job started under a context canceled before its
// first Run executes no task payloads at all.
func TestRunCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	p, _ := pools(1, 1)
	if _, _, err := run(ctx, p, Options{}, &Task{ID: 1, Name: "never", Exec: func(tc *Ctx) (any, error) {
		ran.Add(1)
		return nil, nil
	}}); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("task payload executed despite pre-canceled context")
	}
}

// randomGraph is a seeded random DAG of n tasks: each depends on up to three
// lower IDs, charges a random simulated cost, returns its ID, and (through
// fail) fails its first attempt when the seed says so.
func randomGraph(seed int64, n int) ([]*Task, func(taskID, attempt int, node *compute.Node) error) {
	rng := rand.New(rand.NewSource(seed))
	var tasks []*Task
	failFirst := map[int]bool{}
	for id := 1; id <= n; id++ {
		var deps []int
		for k := rng.Intn(4); k > 0 && id > 1; k-- {
			deps = append(deps, 1+rng.Intn(id-1))
		}
		tasks = append(tasks, simpleTask(id, deps, id, time.Duration(1+rng.Intn(20))*time.Millisecond))
		failFirst[id] = rng.Intn(5) == 0
	}
	return tasks, func(taskID, attempt int, _ *compute.Node) error {
		if failFirst[taskID] && attempt == 1 {
			return fmt.Errorf("injected failure of task %d", taskID)
		}
		return nil
	}
}

// TestJobMatchesRunCtx: growing a job a batch at a time changes nothing —
// batches of n, n/2 and 1 task of a seeded random DAG with retries give the
// same outputs, attempts, virtual ends, makespan and retries as one Run of
// every task. The pools have two free lanes per task, so every attempt, a
// re-placed one too, starts on an unused lane and the virtual schedule does
// not depend on goroutine timing.
func TestJobMatchesRunCtx(t *testing.T) {
	const n = 40
	tasks, inject := randomGraph(7, n)
	opts := Options{Overhead: time.Millisecond, FailureInjector: inject}
	p, _ := pools(n, 1)
	wantOuts, want, err := run(context.Background(), p, opts, tasks...)
	must(t, err)

	for _, cut := range []int{n, n / 2, 1} {
		p, _ := pools(n, 1)
		j := Start(context.Background(), p, opts)
		var outs []any
		for lo := 0; lo < n; lo += cut {
			batch, err := j.Run(tasks[lo:min(lo+cut, n)]...)
			must(t, err)
			outs = append(outs, batch...)
		}
		got, err := j.Close()
		must(t, err)
		if got.Makespan != want.Makespan || got.Retries != want.Retries {
			t.Fatalf("batches of %d: makespan %v, retries %d; one Run %v, %d", cut, got.Makespan, got.Retries, want.Makespan, want.Retries)
		}
		for i, task := range tasks {
			id := task.ID
			if outs[i] != wantOuts[i] || got.PerTask[id].Attempts != want.PerTask[id].Attempts ||
				got.PerTask[id].VirtEnd != want.PerTask[id].VirtEnd {
				t.Fatalf("batches of %d: task %d: %v %+v, one Run %v %+v", cut, id,
					outs[i], got.PerTask[id], wantOuts[i], want.PerTask[id])
			}
		}
	}
}

// TestJobLaterBatchSeesEarlierOutputs: a task may depend on tasks an earlier
// Run completed, and the FE hands it their outputs by closure; Run returns a
// batch's outputs in argument order.
func TestJobLaterBatchSeesEarlierOutputs(t *testing.T) {
	p, _ := pools(1, 1)
	j := Start(context.Background(), p, Options{})
	first, err := j.Run(simpleTask(2, nil, int64(22), 0), simpleTask(1, nil, int64(20), 0))
	must(t, err)
	if first[0] != int64(22) || first[1] != int64(20) {
		t.Fatalf("first batch outputs = %v, want [22 20]", first)
	}
	outs, err := j.Run(&Task{ID: 3, Deps: []int{1, 2}, Exec: func(ctx *Ctx) (any, error) {
		return first[0].(int64) + first[1].(int64), nil
	}})
	must(t, err)
	if outs[0] != int64(42) {
		t.Fatalf("sum of the earlier batch = %v, want 42", outs[0])
	}
	res, err := j.Close()
	must(t, err)
	if len(res.PerTask) != 3 {
		t.Fatalf("result holds %d tasks, want every batch's 3", len(res.PerTask))
	}
}

// TestJobRejectsIncompleteDependency: a dependency must be in the batch or
// already completed. One that is neither — unknown to the job, or a task the
// FE has not run yet — is an error that fails the job before its batch runs.
func TestJobRejectsIncompleteDependency(t *testing.T) {
	for _, dep := range []int{99, 1} {
		p, _ := pools(1, 1)
		j := Start(context.Background(), p, Options{})
		var ran atomic.Int32
		_, err := j.Run(&Task{ID: 2, Deps: []int{dep}, Exec: func(*Ctx) (any, error) {
			ran.Add(1)
			return nil, nil
		}})
		if err == nil {
			t.Fatalf("dependency on task %d, not run yet, accepted", dep)
		}
		if ran.Load() != 0 {
			t.Fatal("a batch with a missing dependency ran")
		}
		if _, again := j.Run(simpleTask(1, nil, nil, 0)); again == nil {
			t.Fatal("a failed job ran another batch")
		}
		if _, cerr := j.Close(); cerr == nil {
			t.Fatal("Close of a failed job returned a result")
		}
	}
}

// TestJobCancelBetweenBatches: a context canceled after one batch completes
// stops the job — the next Run runs nothing and, like Close, returns
// context.Canceled.
func TestJobCancelBetweenBatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, _ := pools(1, 1)
	j := Start(ctx, p, Options{})
	_, err := j.Run(simpleTask(1, nil, nil, 0))
	must(t, err)
	cancel()
	var ran atomic.Int32
	if _, err := j.Run(&Task{ID: 2, Deps: []int{1}, Exec: func(*Ctx) (any, error) {
		ran.Add(1)
		return nil, nil
	}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel: err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("a task ran after the job was canceled")
	}
	if _, err := j.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel: err = %v, want context.Canceled", err)
	}
}

// TestJobNodeDeathCarriesToNextBatch: a node killed in one batch is one node
// of the job's allocation, not all of it. The task it ran is re-placed, and
// the next batch runs on the survivor instead of failing with ErrNoNodes.
func TestJobNodeDeathCarriesToNextBatch(t *testing.T) {
	p, _ := pools(2, 1)
	var killed atomic.Int32
	killed.Store(-1)
	j := Start(context.Background(), p, Options{FailureInjector: func(taskID, attempt int, node *compute.Node) error {
		if taskID == 1 && attempt == 1 {
			killed.Store(int32(node.ID))
			node.Kill()
			return fmt.Errorf("node %d lost", node.ID)
		}
		return nil
	}})
	_, err := j.Run(simpleTask(1, nil, nil, 0))
	must(t, err)
	var batch []*Task
	for id := 2; id <= 5; id++ {
		batch = append(batch, simpleTask(id, []int{1}, id, 0))
	}
	_, err = j.Run(batch...)
	must(t, err)
	res, err := j.Close()
	must(t, err)
	for id := 1; id <= 5; id++ {
		if res.PerTask[id].Node == int(killed.Load()) {
			t.Fatalf("task %d completed on the killed node %d", id, killed.Load())
		}
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d, want the one re-placement", res.Retries)
	}
}
