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
	// FailureInjector, when non-nil, is consulted after each attempt's Exec
	// completes; a non-nil error simulates the node dying before reporting
	// success — the attempt's side effects (files written, blocks staged)
	// persist but its output is discarded and the task is retried elsewhere,
	// exactly the failure mode the paper's GC story covers (4.3, 5.3).
	FailureInjector func(taskID, attempt int, node *compute.Node) error
	// Overhead is per-task virtual scheduling overhead, charged again for
	// every retry (the rescheduling cost); defaults to 15ms.
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
	node  *compute.Node
	free  time.Duration
	busy  bool
	pools uint8 // bit p set: the lane serves PoolKind p
}

// Run executes the DAG to completion and returns outputs plus the simulated
// makespan. Execution is really parallel (bounded by node slots); virtual
// time is tracked per slot lane.
func Run(g *Graph, pools Pools, opts Options) (*Result, error) {
	//polaris:ctx entry point for harnesses and tests (the benchrunner's scheduling ablation), which have no statement context
	return RunCtx(context.Background(), g, pools, opts)
}

// RunCtx is Run with cancellation: Start, one Run of every task, Close. When
// ctx is canceled mid-run, tasks that have not started are abandoned,
// in-flight tasks observe the cancel through Ctx.Context at their next
// boundary, no further retries are scheduled, and the returned error wraps
// ctx.Err() (errors.Is-able as context.Canceled or context.DeadlineExceeded).
func RunCtx(ctx context.Context, g *Graph, pools Pools, opts Options) (*Result, error) {
	tasks := make([]*Task, 0, len(g.tasks))
	//polaris:nondet Run dispatches in task-ID order whatever order it is given the tasks in
	for _, t := range g.tasks {
		tasks = append(tasks, t)
	}
	j := Start(ctx, pools, opts)
	_, _ = j.Run(tasks...) // a failed Run fails the job, and Close reports it
	return j.Close()
}

// Job is a DCP job grown one batch of tasks at a time: Start places it on its
// pools, each Run dispatches a batch and waits for it, and Close returns the
// Result of every batch. A task may depend on tasks of its batch and on tasks
// an earlier Run completed, so the FE can choose the next batch from the last
// one's outputs (distributed queries) while the job keeps one node set, one
// virtual clock per lane and one cancellation watcher. The FE calls Run from
// one goroutine and Close exactly once.
type Job struct {
	ctx   context.Context
	opts  Options
	lanes map[PoolKind][]*lane
	stop  chan struct{}  // closed by Close: ends the cancellation watcher
	wg    sync.WaitGroup // the running batch's tasks

	mu         sync.Mutex
	cond       *sync.Cond
	err        error // the job's first error: once set, the job has failed
	res        *Result
	children   map[int][]*Task // each task's dependents in its batch
	remaining  map[int]int     // each task Run was given: its unfinished dependencies in its batch
	nextTicket int64
	waiting    map[int64]PoolKind // tickets waiting for a lane, by dispatch order
}

// Start begins a job on pools. Nothing runs until Run.
func Start(ctx context.Context, pools Pools, opts Options) *Job {
	if ctx == nil {
		//polaris:ctx nil-context default, so Start(nil, …) means "not cancellable" rather than a panic
		ctx = context.Background()
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.Overhead == 0 {
		opts.Overhead = 15 * time.Millisecond
	}
	j := &Job{
		ctx: ctx, opts: opts,
		lanes: make(map[PoolKind][]*lane),
		stop:  make(chan struct{}),
		res: &Result{Outputs: make(map[int]any), PerTask: make(map[int]TaskStats),
			Makespan: opts.StartOffset},
		children:  make(map[int][]*Task),
		remaining: make(map[int]int),
		waiting:   make(map[int64]PoolKind),
	}
	j.cond = sync.NewCond(&j.mu)

	// Build virtual lanes per pool. A node appearing in multiple pools (WLM
	// separation disabled) contributes the SAME lane objects to each, so its
	// slots are genuinely shared and interference shows up in virtual time.
	laneByNodeSlot := make(map[[2]int]*lane)
	for _, pool := range []PoolKind{ReadPool, WritePool} {
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
				j.lanes[pool] = append(j.lanes[pool], l)
				l.pools |= 1 << pool
			}
		}
	}

	// Cancellation: the watcher records the cancel as the job's first error
	// and wakes every lane waiter, so queued tasks bail out in acquireLane
	// and the dispatch chain stops (children only dispatch after success).
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				j.fail(fmt.Errorf("dcp: run canceled: %w", ctx.Err()))
			case <-j.stop:
			}
		}()
	}
	return j
}

// fail records err as the job's first error and wakes every lane waiter.
func (j *Job) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Run dispatches tasks and waits until each has completed or the job has
// failed. It returns the tasks' outputs in argument order — nil for a task
// that did not complete — and the job's error. A failed Run fails the job:
// later Runs run nothing and return the same error.
func (j *Job) Run(tasks ...*Task) ([]any, error) {
	if err := j.ctx.Err(); err != nil {
		j.fail(fmt.Errorf("dcp: run canceled: %w", err))
	}
	roots, err := j.plan(tasks)
	if err != nil {
		j.fail(err)
	}
	for _, t := range roots {
		j.dispatch(t)
	}
	j.wg.Wait()

	j.mu.Lock()
	defer j.mu.Unlock()
	outs := make([]any, len(tasks))
	for i, t := range tasks {
		outs[i] = j.res.Outputs[t.ID]
		if _, done := j.res.PerTask[t.ID]; !done && j.err == nil {
			j.err = errors.New("dcp: dependency cycle") // its tasks never became ready
		}
	}
	return outs, j.err
}

// plan registers a batch — every ID new to the job, every dependency in the
// batch or completed — and returns its tasks with no unfinished dependency in
// ID order, so dispatch order is identical run to run.
func (j *Job) plan(tasks []*Task) ([]*Task, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, t := range tasks {
		if _, dup := j.remaining[t.ID]; dup {
			return nil, fmt.Errorf("dcp: duplicate task id %d", t.ID)
		}
		j.remaining[t.ID] = 0
	}
	sorted := append([]*Task(nil), tasks...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].ID < sorted[b].ID })
	var roots []*Task
	for _, t := range sorted {
		for _, d := range t.Deps {
			if _, done := j.res.PerTask[d]; done {
				continue
			}
			if _, known := j.remaining[d]; !known {
				return nil, fmt.Errorf("dcp: task %d depends on unknown task %d", t.ID, d)
			}
			j.remaining[t.ID]++
			j.children[d] = append(j.children[d], t)
		}
		if j.remaining[t.ID] == 0 {
			roots = append(roots, t)
		}
	}
	return roots, nil
}

// Close ends the job and returns the Result of every batch it ran, or the
// job's error if it failed. The makespan is the last virtual end of any task,
// and never less than Options.StartOffset.
func (j *Job) Close() (*Result, error) {
	close(j.stop)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	return j.res, nil
}

// dispatch starts task t. Tickets impose FIFO lane granting in dispatch
// order, so the virtual schedule reflects queueing (a read dispatched after
// heavy writes on a shared pool waits behind them) instead of goroutine
// races; the ticket is registered here, synchronously, so FIFO order is
// fixed before any task goroutine races to acquire a lane.
func (j *Job) dispatch(t *Task) {
	j.mu.Lock()
	j.nextTicket++
	ticket := j.nextTicket
	j.waiting[ticket] = t.Pool
	j.mu.Unlock()
	j.wg.Add(1)
	go j.runTask(t, ticket)
}

// acquireLane blocks until a free lane with an alive node is available to
// this ticket, preferring nodes other than notNode (retry re-placement).
// A younger ticket may take a lane only when no older waiting ticket's pool
// contains that lane — so disjoint WLM pools never block each other.
// Returns nil when the pool has no alive nodes at all or the job failed.
func (j *Job) acquireLane(pool PoolKind, ticket int64, notNode int) *lane {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.waiting[ticket] = pool // re-register on retries; dispatch registered first
	defer func() {
		delete(j.waiting, ticket)
		j.cond.Broadcast()
	}()
	mayTake := func(l *lane) bool {
		for t, p := range j.waiting {
			if t < ticket && l.pools&(1<<p) != 0 {
				return false
			}
		}
		return true
	}
	for {
		if j.err != nil {
			return nil
		}
		var best, bestAny *lane
		anyAlive := false
		for _, l := range j.lanes[pool] {
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
		j.cond.Wait()
	}
}

func (j *Job) releaseLane(l *lane, newFree time.Duration) {
	j.mu.Lock()
	l.busy = false
	if newFree > l.free {
		l.free = newFree
	}
	j.cond.Broadcast()
	j.mu.Unlock()
}

// runTask runs task t to success or to its last attempt, then dispatches
// the dependents it was the last unfinished dependency of.
func (j *Job) runTask(t *Task, ticket int64) {
	defer j.wg.Done()
	id := t.ID

	j.mu.Lock()
	if j.err != nil {
		j.mu.Unlock()
		return
	}
	inputs := make(map[int]any, len(t.Deps))
	var depsReady time.Duration
	for _, d := range t.Deps {
		inputs[d] = j.res.Outputs[d]
		if end := j.res.PerTask[d].VirtEnd; end > depsReady {
			depsReady = end
		}
	}
	j.mu.Unlock()

	var (
		out      any
		err      error
		tctx     *Ctx
		attempts int
		lastNode = -1
		penalty  time.Duration
	)
	for attempts = 1; attempts <= j.opts.MaxAttempts; attempts++ {
		if cerr := j.ctx.Err(); cerr != nil {
			err = cerr // canceled: don't burn retries, the watcher holds the job's error
			break
		}
		l := j.acquireLane(t.Pool, ticket, lastNode)
		if l == nil {
			err = fmt.Errorf("%w: %s (all nodes lost)", ErrNoNodes, t.Pool)
			break
		}
		tctx = &Ctx{Node: l.node, Attempt: attempts, Inputs: inputs, ctx: j.ctx}
		out, err = t.Exec(tctx)
		if err == nil && j.opts.FailureInjector != nil {
			if ferr := j.opts.FailureInjector(id, attempts, l.node); ferr != nil {
				// The attempt's side effects stand; its output is lost.
				out, err = nil, ferr
			}
		}
		if err == nil {
			j.mu.Lock()
			start := l.free
			if depsReady > start {
				start = depsReady
			}
			end := start + j.opts.Overhead + tctx.charged() + penalty
			j.res.Outputs[id] = out
			j.res.PerTask[id] = TaskStats{
				Node: l.node.ID, Attempts: attempts,
				VirtEnd: end, SimTime: tctx.charged(),
			}
			j.res.Retries += attempts - 1
			if end > j.res.Makespan {
				j.res.Makespan = end
			}
			j.mu.Unlock()
			j.releaseLane(l, end)
			break
		}
		lastNode = l.node.ID
		penalty += j.opts.Overhead
		j.releaseLane(l, 0)
	}
	if err != nil {
		j.fail(fmt.Errorf("dcp: task %d (%s) failed after %d attempts: %w", id, t.Name, attempts-1, err))
		return
	}

	// Unblock children.
	j.mu.Lock()
	var ready []*Task
	for _, c := range j.children[id] {
		if j.remaining[c.ID]--; j.remaining[c.ID] == 0 {
			ready = append(ready, c)
		}
	}
	j.mu.Unlock()
	for _, c := range ready {
		j.dispatch(c)
	}
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
