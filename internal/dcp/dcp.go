// Package dcp implements the Polaris Distributed Computation Platform
// (paper Sections 1, 3.3, 4.3): a task-level workflow-DAG executor over the
// simulated compute fabric. Reads and writes are both modeled as DAGs of
// tasks, which is the paper's key architectural move — the DCP executes
// write transactions "as if they were queries".
//
// Features reproduced:
//   - dependency-ordered execution with per-node slot parallelism;
//   - task-level retry with re-placement on failure (failed attempts' side
//     effects are discarded via the object store's block semantics);
//   - workload management (WLM): read and write tasks are placed on disjoint
//     node pools (Section 4.3, "Workload Separation");
//   - virtual-time accounting: tasks charge simulated durations to the
//     schedule, and the scheduler computes the job's simulated makespan with
//     per-slot lanes, which is what the benchmark figures report.
package dcp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"polaris/internal/compute"
)

// PoolKind selects the WLM pool a task runs on.
type PoolKind int

// WLM pools.
const (
	ReadPool PoolKind = iota
	WritePool
)

func (p PoolKind) String() string {
	if p == WritePool {
		return "write"
	}
	return "read"
}

// Ctx is passed to a task's Exec function.
type Ctx struct {
	// Node is the compute server the attempt is placed on.
	Node *compute.Node
	// Attempt is 1-based; retries increment it.
	Attempt int
	// Inputs holds the outputs of the task's dependencies, keyed by task ID.
	Inputs map[int]any

	mu  sync.Mutex
	sim time.Duration
	ctx context.Context
}

// Context returns the run's cancellation context (never nil). Long-running
// Exec functions should observe it at batch boundaries so an in-flight task
// notices a canceled run without waiting for the task to finish.
func (c *Ctx) Context() context.Context {
	if c.ctx == nil {
		//polaris:ctx nil-context default: the zero Ctx stays usable and is simply never cancelled
		return context.Background()
	}
	return c.ctx
}

// Charge adds simulated time to this task attempt (IO and CPU costs).
func (c *Ctx) Charge(d time.Duration) {
	c.mu.Lock()
	c.sim += d
	c.mu.Unlock()
}

func (c *Ctx) charged() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sim
}

// Task is one unit of distributed work: a packaged template query over a
// disjoint set of data cells.
type Task struct {
	ID   int
	Name string
	Pool PoolKind
	Deps []int
	// Exec performs the work. It should call ctx.Charge for all simulated
	// IO/CPU it performs and return the task's output.
	Exec func(ctx *Ctx) (any, error)
}

// Graph is a workflow DAG of tasks.
type Graph struct {
	tasks map[int]*Task
}

// NewGraph returns an empty DAG.
func NewGraph() *Graph { return &Graph{tasks: make(map[int]*Task)} }

// Add inserts a task. IDs must be unique; dependencies may be added in any
// order but must exist by Run time.
func (g *Graph) Add(t *Task) error {
	if t.Exec == nil {
		return fmt.Errorf("dcp: task %d has no Exec", t.ID)
	}
	if _, ok := g.tasks[t.ID]; ok {
		return fmt.Errorf("dcp: duplicate task id %d", t.ID)
	}
	g.tasks[t.ID] = t
	return nil
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Options configures a run.
type Options struct {
	// MaxAttempts bounds per-task attempts (default 3).
	MaxAttempts int
	// RetryPenalty is virtual time added per retry (rescheduling cost);
	// defaults to the cost model's task overhead.
	RetryPenalty time.Duration
	// FailureInjector, when non-nil, is consulted after each attempt's Exec
	// completes; a non-nil error simulates the node dying before reporting
	// success — the attempt's side effects (files written, blocks staged)
	// persist but its output is discarded and the task is retried elsewhere,
	// exactly the failure mode the paper's GC story covers (4.3, 5.3).
	FailureInjector func(taskID, attempt int, node *compute.Node) error
	// Overhead is per-task virtual scheduling overhead; defaults to 15ms.
	Overhead time.Duration
	// StartOffset shifts the virtual clock (e.g. topology provisioning
	// delay from Fabric.AllocateForJob).
	StartOffset time.Duration
}

// TaskStats records one task's scheduling outcome.
type TaskStats struct {
	Node     int
	Attempts int
	VirtEnd  time.Duration
	SimTime  time.Duration
}

// Result is the outcome of executing a DAG.
type Result struct {
	Outputs  map[int]any
	Makespan time.Duration // simulated job duration including StartOffset
	PerTask  map[int]TaskStats
	Retries  int
}

// ErrNoNodes is returned when a required pool has no live nodes.
var ErrNoNodes = errors.New("dcp: no live nodes in pool")

// Pools maps WLM pools to node sets. Using the same slice for both pools
// disables workload separation (the ablation case).
type Pools map[PoolKind][]*compute.Node

// lane tracks one execution slot on a node: a task occupies the lane for its
// real execution, and the lane carries the slot's virtual availability time.
// Exclusive occupancy is what makes the virtual-time accounting race-free and
// keeps real parallelism equal to the simulated topology's.
type lane struct {
	node *compute.Node
	free time.Duration
	busy bool
}

// Run executes the DAG to completion and returns outputs plus the simulated
// makespan. Execution is really parallel (bounded by node slots); virtual
// time is tracked per slot lane.
func Run(g *Graph, pools Pools, opts Options) (*Result, error) {
	//polaris:ctx entry point of the storage engine's own DAGs (fetch, write, compaction), which have no statement context
	return RunCtx(context.Background(), g, pools, opts)
}

// RunCtx is Run with cancellation. When ctx is canceled mid-run, tasks that
// have not started are abandoned, in-flight tasks observe the cancel through
// Ctx.Context at their next boundary, no further retries are scheduled, and
// the returned error wraps ctx.Err() (errors.Is-able as context.Canceled or
// context.DeadlineExceeded).
func RunCtx(ctx context.Context, g *Graph, pools Pools, opts Options) (*Result, error) {
	if ctx == nil {
		//polaris:ctx nil-context default, so RunCtx(nil, …) means "not cancellable" rather than a panic
		ctx = context.Background()
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.Overhead == 0 {
		opts.Overhead = 15 * time.Millisecond
	}
	if opts.RetryPenalty == 0 {
		opts.RetryPenalty = opts.Overhead
	}

	// Validate deps and topologically sort (Kahn) to detect cycles. Tasks are
	// visited in ID order so children/queue ordering — and therefore dispatch
	// order — is identical run to run.
	taskIDs := make([]int, 0, len(g.tasks))
	for id := range g.tasks {
		taskIDs = append(taskIDs, id)
	}
	sort.Ints(taskIDs)
	indeg := make(map[int]int, len(g.tasks))
	children := make(map[int][]int)
	for _, id := range taskIDs {
		t := g.tasks[id]
		if _, ok := indeg[id]; !ok {
			indeg[id] = 0
		}
		for _, d := range t.Deps {
			if _, ok := g.tasks[d]; !ok {
				return nil, fmt.Errorf("dcp: task %d depends on unknown task %d", id, d)
			}
			indeg[id]++
			children[d] = append(children[d], id)
		}
	}
	processedCheck := 0
	queue := make([]int, 0, len(g.tasks))
	indegCopy := make(map[int]int, len(indeg))
	for _, id := range taskIDs {
		indegCopy[id] = indeg[id]
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	for i := 0; i < len(queue); i++ {
		processedCheck++
		for _, c := range children[queue[i]] {
			indegCopy[c]--
			if indegCopy[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if processedCheck != len(g.tasks) {
		return nil, errors.New("dcp: dependency cycle")
	}

	// Build virtual lanes per pool. A node appearing in multiple pools (WLM
	// separation disabled) contributes the SAME lane objects to each, so its
	// slots are genuinely shared and interference shows up in virtual time.
	lanes := make(map[PoolKind][]*lane)
	laneByNodeSlot := make(map[[2]int]*lane)
	poolKinds := make([]int, 0, len(pools))
	for pool := range pools {
		poolKinds = append(poolKinds, int(pool))
	}
	sort.Ints(poolKinds)
	for _, pk := range poolKinds {
		pool := PoolKind(pk)
		for _, n := range pools[pool] {
			if !n.Alive() {
				continue
			}
			for s := 0; s < n.Slots; s++ {
				key := [2]int{n.ID, s}
				l, ok := laneByNodeSlot[key]
				if !ok {
					l = &lane{node: n, free: opts.StartOffset}
					laneByNodeSlot[key] = l
				}
				lanes[pool] = append(lanes[pool], l)
			}
		}
	}
	needPool := make(map[PoolKind]bool)
	for _, t := range g.tasks {
		needPool[t.Pool] = true
	}
	needKinds := make([]int, 0, len(needPool))
	for p := range needPool {
		needKinds = append(needKinds, int(p))
	}
	sort.Ints(needKinds)
	for _, pk := range needKinds {
		if p := PoolKind(pk); len(lanes[p]) == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoNodes, p)
		}
	}

	res := &Result{
		Outputs: make(map[int]any, len(g.tasks)),
		PerTask: make(map[int]TaskStats, len(g.tasks)),
	}
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		firstErr  error
		remaining = make(map[int]int, len(indeg)) // indegree countdown
		virtDone  = make(map[int]time.Duration)
	)
	cond := sync.NewCond(&mu)
	for id, d := range indeg {
		remaining[id] = d
	}

	// Cancellation: the watcher records the cancel as the run's first error
	// and wakes every lane waiter, so queued tasks bail out in acquireLane
	// and the dispatch chain stops (children only dispatch after success).
	if ctx.Done() != nil {
		watcherDone := make(chan struct{})
		defer close(watcherDone)
		go func() {
			select {
			case <-ctx.Done():
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("dcp: run canceled: %w", ctx.Err())
				}
				cond.Broadcast()
				mu.Unlock()
			case <-watcherDone:
			}
		}()
	}

	// Tickets impose FIFO lane granting in dispatch order, so the virtual
	// schedule reflects queueing (a read dispatched after heavy writes on a
	// shared pool waits behind them) instead of goroutine races. A younger
	// ticket may take a lane only when no older waiting ticket's pool
	// contains that lane — so disjoint WLM pools never block each other.
	var nextTicket int64
	waiting := make(map[int64]PoolKind)
	laneInPool := make(map[PoolKind]map[*lane]bool)
	for pool, ls := range lanes {
		set := make(map[*lane]bool, len(ls))
		for _, l := range ls {
			set[l] = true
		}
		laneInPool[pool] = set
	}
	// registerTicket is called synchronously at dispatch time, so FIFO order
	// is fixed before any task goroutine races to acquire a lane.
	registerTicket := func(pool PoolKind) int64 {
		mu.Lock()
		defer mu.Unlock()
		nextTicket++
		waiting[nextTicket] = pool
		return nextTicket
	}

	// acquireLane blocks until a free lane with an alive node is available to
	// this ticket, preferring nodes other than notNode (retry re-placement).
	// Returns nil when the pool has no alive nodes at all or the run failed.
	acquireLane := func(pool PoolKind, ticket int64, notNode int) *lane {
		mu.Lock()
		defer mu.Unlock()
		waiting[ticket] = pool // re-register on retries; dispatch registered first
		defer func() {
			delete(waiting, ticket)
			cond.Broadcast()
		}()
		mayTake := func(l *lane) bool {
			for t, p := range waiting {
				if t < ticket && laneInPool[p][l] {
					return false
				}
			}
			return true
		}
		for {
			if firstErr != nil {
				return nil
			}
			var best, bestAny *lane
			anyAlive := false
			for _, l := range lanes[pool] {
				if !l.node.Alive() {
					continue
				}
				anyAlive = true
				if l.busy || !mayTake(l) {
					continue
				}
				if bestAny == nil || l.free < bestAny.free {
					bestAny = l
				}
				if l.node.ID != notNode && (best == nil || l.free < best.free) {
					best = l
				}
			}
			if !anyAlive {
				return nil
			}
			if best == nil {
				best = bestAny // only the excluded node remains
			}
			if best != nil {
				best.busy = true
				return best
			}
			cond.Wait()
		}
	}
	releaseLane := func(l *lane, newFree time.Duration) {
		mu.Lock()
		l.busy = false
		if newFree > l.free {
			l.free = newFree
		}
		cond.Broadcast()
		mu.Unlock()
	}

	var dispatch func(id int)
	runTask := func(id int, ticket int64) {
		defer wg.Done()
		t := g.tasks[id]

		mu.Lock()
		if firstErr != nil {
			mu.Unlock()
			return
		}
		inputs := make(map[int]any, len(t.Deps))
		var depsReady time.Duration
		for _, d := range t.Deps {
			inputs[d] = res.Outputs[d]
			if virtDone[d] > depsReady {
				depsReady = virtDone[d]
			}
		}
		mu.Unlock()

		var (
			out      any
			err      error
			tctx     *Ctx
			attempts int
			lastNode = -1
			penalty  time.Duration
		)
		for attempts = 1; attempts <= opts.MaxAttempts; attempts++ {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr // canceled: don't burn retries, the watcher holds firstErr
				break
			}
			l := acquireLane(t.Pool, ticket, lastNode)
			if l == nil {
				err = fmt.Errorf("%w: %s (all nodes lost)", ErrNoNodes, t.Pool)
				break
			}
			tctx = &Ctx{Node: l.node, Attempt: attempts, Inputs: inputs, ctx: ctx}
			out, err = t.Exec(tctx)
			if err == nil && opts.FailureInjector != nil {
				if ferr := opts.FailureInjector(id, attempts, l.node); ferr != nil {
					// The attempt's side effects stand; its output is lost.
					out, err = nil, ferr
				}
			}
			if err == nil {
				mu.Lock()
				start := l.free
				if depsReady > start {
					start = depsReady
				}
				end := start + opts.Overhead + tctx.charged() + penalty
				virtDone[id] = end
				res.Outputs[id] = out
				res.PerTask[id] = TaskStats{
					Node: l.node.ID, Attempts: attempts,
					VirtEnd: end, SimTime: tctx.charged(),
				}
				res.Retries += attempts - 1
				mu.Unlock()
				releaseLane(l, end)
				break
			}
			lastNode = l.node.ID
			penalty += opts.RetryPenalty
			releaseLane(l, 0)
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("dcp: task %d (%s) failed after %d attempts: %w", id, t.Name, attempts-1, err)
			}
			cond.Broadcast()
			mu.Unlock()
			return
		}

		// Unblock children.
		mu.Lock()
		var ready []int
		for _, c := range children[id] {
			remaining[c]--
			if remaining[c] == 0 {
				ready = append(ready, c)
			}
		}
		mu.Unlock()
		for _, c := range ready {
			dispatch(c)
		}
	}
	dispatch = func(id int) {
		ticket := registerTicket(g.tasks[id].Pool)
		wg.Add(1)
		go runTask(id, ticket)
	}

	var roots []int
	for id, d := range indeg {
		if d == 0 {
			roots = append(roots, id)
		}
	}
	sort.Ints(roots)
	for _, id := range roots {
		dispatch(id)
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	//polaris:nondet max fold: Makespan is the maximum VirtEnd, which is the same whatever order the tasks are visited in
	for _, st := range res.PerTask {
		if st.VirtEnd > res.Makespan {
			res.Makespan = st.VirtEnd
		}
	}
	if res.Makespan < opts.StartOffset {
		res.Makespan = opts.StartOffset
	}
	return res, nil
}

// Gather is a convenience for collecting the outputs of a set of task IDs in
// ID order (e.g. aggregating per-task block lists in the FE).
func Gather(res *Result, ids []int) []any {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	out := make([]any, 0, len(sorted))
	for _, id := range sorted {
		out = append(out, res.Outputs[id])
	}
	return out
}
