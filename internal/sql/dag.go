package sql

// Distributed query execution (paper Sections 1, 3.3): under
// Options.DistributedQueries runStages (plan.go) runs an opened plan's stages
// as one DCP job on the read pool, grown a stage at a time — a build task per
// join, then per segment a task per morsel and per spilled join one gather
// task — so every task does real work. A task runs a whole pipeline segment,
// so data crosses a task boundary only where a spilled join needs all of its
// input, through a query-scoped object-store exchange (colfile's checksummed
// batch frames, as the grace-join spill writes). Every stage is durable and
// re-runnable: a task lost to a node failure is retried on another node and
// deterministically rewrites the same frames — the object-store block
// semantics the paper's retry story relies on. Output is byte-identical to
// the pool's at every DOP, join-memory budget and failure schedule. See
// docs/DCP-QUERIES.md.

import (
	"context"
	"fmt"
	"sync/atomic"

	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/dcp"
	"polaris/internal/exec"
	"polaris/internal/objectstore"
)

// Task-ID layout: IDs are a pure function of the plan and the build outcomes
// — build b(j), scan s(i), gather g(j) of spilled join j, and p(j, i), morsel
// i's segment after that gather — so a failure schedule keyed by task ID is
// reproducible run over run. Stage strides keep the spaces disjoint for any
// realistic morsel or join count.
const dagStageStride = 1 << 20

func dagBuildID(j int) int    { return 1 + j }
func dagGatherID(j int) int   { return 1024 + j }
func dagScanID(i int) int     { return dagStageStride + i }
func dagProbeID(j, i int) int { return (j+2)*dagStageStride + i }

// dagOut is what a segment task hands the FE: the name of the exchange frame
// holding its output batch ("" = the morsel produced no rows, mirroring the
// pool's nil entries) and the probe rows its blooms pruned. Pruned counts ride
// in the output rather than going straight to WorkStats so only the winning
// attempt of a retried task is counted — a failed attempt's side effects
// stand but its output (and with it the count) is discarded.
type dagOut struct {
	name   string
	pruned int64
}

// gatherOut is what gather task g(j) hands the FE: its per-morsel frame
// names and its JoinBatches call's counts, which ride in the output for the
// same reason as dagOut's.
type gatherOut struct {
	names  []string
	counts exec.JoinCounts
}

// dagExchange is the query's task-boundary exchange: a batch-frame
// namespace in the object store plus the cost model for charging simulated
// remote IO to the task doing the transfer.
type dagExchange struct {
	dir   *objectstore.SpillDir
	model *compute.CostModel
}

// write persists one stage output batch as a single frame named name and
// returns the name, or "" for an empty output, which writes nothing. Names
// are a pure function of (stage, morsel), so a retried task overwrites its
// failed attempt's frame with identical bytes.
func (ex *dagExchange) write(qc *dcp.Ctx, name string, b *colfile.Batch) (string, error) {
	if b == nil || b.NumRows() == 0 {
		return "", nil
	}
	data, err := colfile.MarshalBatch(b.Materialize())
	if err != nil {
		return "", err
	}
	if err := ex.dir.Put(name, data); err != nil {
		return "", err
	}
	qc.Charge(ex.model.RemoteWrite(int64(len(data))))
	return name, nil
}

// read returns the batch of the frame named name (nil for "", a morsel that
// had no rows). qc is nil when the FE gathers the final stage — the transfer
// is then part of the statement, not a task.
func (ex *dagExchange) read(ctx context.Context, qc *dcp.Ctx, name string) (*colfile.Batch, error) {
	if name == "" {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := ex.dir.Get(name)
	if err != nil {
		return nil, err
	}
	if qc != nil {
		qc.Charge(ex.model.RemoteRead(int64(len(data))))
	}
	return colfile.UnmarshalBatch(data)
}

// readAll reads the frames names, in order.
func (ex *dagExchange) readAll(ctx context.Context, qc *dcp.Ctx, names []string) ([]*colfile.Batch, error) {
	batches := make([]*colfile.Batch, len(names))
	for i, name := range names {
		b, err := ex.read(ctx, qc, name)
		if err != nil {
			return nil, err
		}
		batches[i] = b
	}
	return batches, nil
}

// dagRunner runs each stage as one Run of a DCP job the FE grows a stage at a
// time. The FE waits at every barrier anyway — every scan needs every build,
// every gather every morsel — so growing the job costs no parallelism, and
// one job keeps one node allocation, so a retry in any stage can re-place
// onto a surviving node.
type dagRunner struct {
	stageEnv
	ex    *dagExchange
	job   *dcp.Job
	deps  []int    // the last stage's task IDs, every next task's dependencies
	names []string // the last stage's per-morsel frames
}

// builds starts the job and runs build task b(j) per join, whose output is
// the join's source. A retried build re-reads the table's immutable files, so
// nothing of it crosses the exchange. The exchange namespace is deleted with
// the statement's spill state (joinSpill.finish), on success and error alike.
func (r *dagRunner) builds() ([]*exec.JoinSource, error) {
	r.ex = &dagExchange{dir: r.spill.newDir(), model: r.tx.CostModel()}
	M, J := len(r.names), len(r.p.joins)
	// Nodes are allocated once, for the most tasks the job can run: with
	// every build spilled, each join adds a gather and M segment tasks.
	var err error
	if r.job, err = r.tx.StartQueryJob(r.ctx, J+M+J*(1+M)); err != nil {
		return nil, err
	}
	tasks := make([]*dcp.Task, J)
	for j, pj := range r.p.joins {
		tasks[j] = &dcp.Task{
			ID: dagBuildID(j), Name: fmt.Sprintf("build-j%d", j), Pool: dcp.ReadPool,
			Exec: func(*dcp.Ctx) (any, error) { return pj.runBuild(r.tx.Parallelism()) },
		}
		r.deps = append(r.deps, dagBuildID(j))
	}
	outs, err := r.job.Run(tasks...)
	srcs := make([]*exec.JoinSource, J)
	for j, out := range outs {
		srcs[j], _ = out.(*exec.JoinSource)
		r.spill.count(srcs[j]) // completed builds count even if another failed
	}
	return srcs, err
}

// segment runs one task per morsel — scan task s(i) in the first segment,
// p(j, i) after spilled join j — each writing its output as one frame.
func (r *dagRunner) segment(from int, open segmentOpener, _ int64) error {
	tasks := make([]*dcp.Task, len(r.names))
	for i, prev := range r.names {
		id, name, frame := dagScanID(i), fmt.Sprintf("scan-m%d", i), fmt.Sprintf("s0/m%05d", i)
		if from > 0 {
			j := from - 1
			id, name, frame = dagProbeID(j, i), fmt.Sprintf("probe-j%d-m%d", j, i), fmt.Sprintf("p%d/m%05d", j, i)
		}
		tasks[i] = &dcp.Task{ID: id, Name: name, Pool: dcp.ReadPool, Deps: r.deps,
			Exec: func(qc *dcp.Ctx) (any, error) {
				b, err := r.ex.read(qc.Context(), qc, prev)
				if err != nil {
					return nil, err
				}
				var pruned atomic.Int64
				op, err := open(i, b, &pruned)
				if op == nil || err != nil {
					return &dagOut{}, err
				}
				if b, err = exec.CollectCtx(qc.Context(), op); err != nil {
					return nil, err
				}
				written, err := r.ex.write(qc, frame, b)
				return &dagOut{name: written, pruned: pruned.Load()}, err
			}}
	}
	outs, err := r.job.Run(tasks...)
	if err != nil {
		return err
	}
	// Only winning attempts' pruned rows are counted, so the row-based total
	// equals the pool's.
	var pruned int64
	r.names, r.deps = make([]string, len(tasks)), make([]int, len(tasks))
	for i, out := range outs {
		o := out.(*dagOut)
		r.names[i], r.deps[i], pruned = o.name, tasks[i].ID, pruned+o.pruned
	}
	r.tx.Work().RuntimeFilterRows.Add(pruned)
	return nil
}

// join runs gather task g(j): the partition-wise join over the full
// per-morsel batch list (nil entries kept: its global ordinal merge depends
// on them), writing one frame per morsel.
func (r *dagRunner) join(j int, sj *exec.SpilledJoin) error {
	in := r.names
	outs, err := r.job.Run(&dcp.Task{
		ID: dagGatherID(j), Name: fmt.Sprintf("gather-j%d", j), Pool: dcp.ReadPool, Deps: r.deps,
		Exec: func(qc *dcp.Ctx) (any, error) {
			batches, err := r.ex.readAll(qc.Context(), qc, in)
			if err != nil {
				return nil, err
			}
			pj := r.p.joins[j]
			joined, counts, err := sj.JoinBatches(qc.Context(), batches, pj.leftKeys, pj.leftSchema, pj.cols, r.dop)
			if err != nil {
				return nil, err
			}
			g := &gatherOut{names: make([]string, len(joined)), counts: counts}
			for i, b := range joined {
				if g.names[i], err = r.ex.write(qc, fmt.Sprintf("g%d/m%05d", j, i), b); err != nil {
					return nil, err
				}
			}
			return g, nil
		},
	})
	if err != nil {
		return err
	}
	g := outs[0].(*gatherOut)
	r.spill.joined(g.counts)
	r.names, r.deps = g.names, []int{dagGatherID(j)}
	return nil
}

// done closes the job, recording the plan's 1 + J stages, and reads the last
// stage's frames on the FE.
func (r *dagRunner) done(err error) ([]*colfile.Batch, error) {
	if r.job != nil {
		if cerr := r.tx.CloseQueryJob(r.job, 1+len(r.p.joins)); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	return r.ex.readAll(r.ctx, nil, r.names)
}
