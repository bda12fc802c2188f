package sql

// Distributed query execution (paper Sections 1, 3.3): under
// Options.DistributedQueries an opened plan's stages run as a DCP task DAG
// instead of on the in-process morsel pool. The DAG is query-shaped — one
// build task per join, per-morsel scan tasks, a gather barrier per join stage,
// and per-morsel probe tasks — placed on the read pool with per-node slot
// placement. A task runs a whole pipeline segment (selectPlan.segment, the
// pool's per-morsel chain), so data crosses a task boundary only where a
// spilled join needs all of its input. Segment outputs go through a
// query-scoped object-store exchange namespace (colfile's transient batch
// frame, which the grace-join spill also writes: raw columns closed by a
// checksum), so every stage is durable and re-runnable: a task lost to a node
// failure is retried on another node and deterministically rewrites the same
// exchange files, which is exactly the object-store block semantics the
// paper's retry story relies on. Output is byte-identical to the pool's at
// every DOP, join-memory budget and failure schedule — both stage runners
// consume one plan value (planSelect: the morsel decomposition, the segments,
// the joins) and feed one merge tail (mergeSelect). See docs/DCP-QUERIES.md.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/dcp"
	"polaris/internal/exec"
	"polaris/internal/objectstore"
)

// Task-ID layout: IDs are a pure function of the plan shape, so a failure
// schedule keyed by task ID is reproducible run over run. Stage strides keep
// the spaces disjoint for any realistic morsel or join count.
const dagStageStride = 1 << 20

func dagBuildID(j int) int    { return 1 + j }
func dagGatherID(j int) int   { return 1024 + j }
func dagScanID(i int) int     { return dagStageStride + i }
func dagProbeID(j, i int) int { return (j+2)*dagStageStride + i }

// dagOut is the value a stage task hands its dependents: the name of the
// exchange frame holding the task's output batch ("" = the morsel produced
// no rows, mirroring the morsel executor's nil entries) and the probe rows its
// bloom filter pruned. Pruned counts ride in the output rather than going
// straight to WorkStats so only the winning attempt of a retried task is
// counted — a failed attempt's side effects stand but its output (and with
// it the count) is discarded.
type dagOut struct {
	name   string
	pruned int64
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

// dagState carries the build results across tasks: join j's source and its
// runtime filter (nil for a spilled or LEFT OUTER build), derived once by
// build task b(j). b(j) publishes under a mutex, and every scan — and through
// the scans every gather and probe — depends on every build, so readers always
// observe the completed builds. A retried build republishes an equivalent
// value — the inputs and the build algorithm are deterministic — so
// last-write-wins is safe.
type dagState struct {
	mu     sync.Mutex
	srcs   []*exec.JoinSource
	blooms []*exec.Bloom
}

func (s *dagState) set(j int, src *exec.JoinSource, bloom *exec.Bloom) {
	s.mu.Lock()
	s.srcs[j], s.blooms[j] = src, bloom
	s.mu.Unlock()
}

func (s *dagState) get() ([]*exec.JoinSource, []*exec.Bloom) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srcs, s.blooms
}

// runStagesDAG runs an opened plan's stages as a DCP task DAG and returns
// the per-morsel outputs of the final stage in morsel order. It is
// runStagesPool on another substrate: the same morsels, builds and pipeline
// segments (selectPlan.segment), with a segment's output crossing task
// boundaries through the exchange. A build task drains its input straight
// into the JoinSource: the build side is re-read from the table's immutable
// files on a retry, so nothing of it crosses the exchange.
//
// The graph's shape is static — build b(j), gather g(j) and probes p(j,i) per
// join, a scan s(i) per morsel — while the builds decide where the segments
// end. Scan s(i) waits for every build and runs segment 0. A spilled join's
// gather is the pool's barrier, and its probes run the segment after it; an
// in-memory join was fused into the segment before it, so its gather does
// nothing and its probes forward the frame they received. A morsel with no
// rows has none after a barrier, so its later tasks forward the empty output.
func runStagesDAG(tx *core.Txn, p *selectPlan, dop int, spill *joinSpill,
	suffix func(exec.Operator) exec.Operator) ([]*colfile.Batch, error) {
	// The exchange namespace lives exactly as long as the statement:
	// joinSpill.finish deletes it on success and error alike, so neither a
	// completed query nor one killed mid-DAG leaks exchange files.
	ex := &dagExchange{dir: spill.newDir(), model: tx.CostModel()}

	ms := p.base.ms.Morsels
	M, J := len(ms), len(p.joins)
	state := &dagState{srcs: make([]*exec.JoinSource, J), blooms: make([]*exec.Bloom, J)}
	g := dcp.NewGraph()

	// segment runs a morsel's segment that starts at join from over in, and
	// writes its output as the frame called name.
	segment := func(qc *dcp.Ctx, in exec.Operator, from int, name string) (any, error) {
		srcs, blooms := state.get()
		var pruned atomic.Int64
		b, err := exec.CollectCtx(qc.Context(), p.segment(in, srcs, blooms, from, barrier(srcs, from), &pruned, suffix))
		if err != nil {
			return nil, err
		}
		if name, err = ex.write(qc, name, b); err != nil {
			return nil, err
		}
		return &dagOut{name: name, pruned: pruned.Load()}, nil
	}

	builds := make([]int, J)
	for j, pj := range p.joins {
		j, pj := j, pj
		builds[j] = dagBuildID(j)
		if err := g.Add(&dcp.Task{
			ID: dagBuildID(j), Name: fmt.Sprintf("build-j%d", j), Pool: dcp.ReadPool,
			Exec: func(qc *dcp.Ctx) (any, error) {
				src, bloom, err := pj.runBuild(tx.Parallelism())
				if err != nil {
					return nil, err
				}
				state.set(j, src, bloom)
				return nil, nil
			},
		}); err != nil {
			return nil, err
		}
	}

	for i, m := range ms {
		i, m := i, m
		if err := g.Add(&dcp.Task{
			ID: dagScanID(i), Name: fmt.Sprintf("scan-m%d", i), Pool: dcp.ReadPool, Deps: builds,
			Exec: func(qc *dcp.Ctx) (any, error) {
				op, err := p.base.fragment(m)
				if err != nil {
					return nil, err
				}
				return segment(qc, op, 0, fmt.Sprintf("s0/m%05d", i))
			},
		}); err != nil {
			return nil, err
		}
	}

	prev := dagScanID
	for j, pj := range p.joins {
		j, pj, up := j, pj, prev

		// The gather barrier: for a spilled build it assembles the full
		// per-morsel batch list (nil entries preserved — the partition-wise
		// join's global ordinal merge depends on them) and runs the
		// partition-wise grace join. It depends on its build and the previous
		// stage.
		gdeps := []int{dagBuildID(j)}
		for i := 0; i < M; i++ {
			gdeps = append(gdeps, up(i))
		}
		if err := g.Add(&dcp.Task{
			ID: dagGatherID(j), Name: fmt.Sprintf("gather-j%d", j), Pool: dcp.ReadPool, Deps: gdeps,
			Exec: func(qc *dcp.Ctx) (any, error) {
				srcs, _ := state.get()
				if srcs[j].Spilled == nil {
					return nil, nil
				}
				batches := make([]*colfile.Batch, M)
				for i := 0; i < M; i++ {
					b, err := ex.read(qc.Context(), qc, qc.Inputs[up(i)].(*dagOut).name)
					if err != nil {
						return nil, err
					}
					batches[i] = b
				}
				joined, err := srcs[j].Spilled.JoinBatches(qc.Context(), batches, pj.leftKeys, pj.leftSchema, pj.cols, dop)
				if err != nil {
					return nil, err
				}
				outs := make([]*dagOut, M)
				for i, b := range joined {
					name, err := ex.write(qc, fmt.Sprintf("g%d/m%05d", j, i), b)
					if err != nil {
						return nil, err
					}
					outs[i] = &dagOut{name: name}
				}
				return outs, nil
			},
		}); err != nil {
			return nil, err
		}

		for i := 0; i < M; i++ {
			i := i
			if err := g.Add(&dcp.Task{
				ID: dagProbeID(j, i), Name: fmt.Sprintf("probe-j%d-m%d", j, i), Pool: dcp.ReadPool,
				Deps: []int{dagGatherID(j), up(i)},
				Exec: func(qc *dcp.Ctx) (any, error) {
					srcs, _ := state.get()
					if srcs[j].Spilled == nil {
						return &dagOut{name: qc.Inputs[up(i)].(*dagOut).name}, nil
					}
					name := qc.Inputs[dagGatherID(j)].([]*dagOut)[i].name
					if next := barrier(srcs, j+1); next == j+1 && next < J {
						// An empty segment: the next barrier reads the
						// gather's frame as it is.
						return &dagOut{name: name}, nil
					}
					b, err := ex.read(qc.Context(), qc, name)
					if err != nil {
						return nil, err
					}
					if b == nil {
						return &dagOut{}, nil // no rows: none after the barrier either
					}
					return segment(qc, exec.NewBatchSource(b), j+1, fmt.Sprintf("p%d/m%05d", j, i))
				},
			}); err != nil {
				return nil, err
			}
		}
		prev = func(i int) int { return dagProbeID(j, i) }
	}

	res, err := tx.RunQueryDAG(g, 1+J)
	srcs, _ := state.get()
	for _, src := range srcs {
		spill.count(src) // completed builds count even if the run failed
	}
	if err != nil {
		return nil, err
	}

	// Fold the winning attempts' pruned-row counts into WorkStats (the totals
	// are row-based and so identical to the pool's) and gather the frames of
	// the final stage.
	var pruned int64
	batches := make([]*colfile.Batch, M)
	for i := 0; i < M; i++ {
		pruned += res.Outputs[dagScanID(i)].(*dagOut).pruned
		for j := 0; j < J; j++ {
			pruned += res.Outputs[dagProbeID(j, i)].(*dagOut).pruned
		}
		b, err := ex.read(tx.Context(), nil, res.Outputs[prev(i)].(*dagOut).name)
		if err != nil {
			return nil, err
		}
		batches[i] = b
	}
	if pruned > 0 {
		tx.Work().RuntimeFilterRows.Add(pruned)
	}
	return batches, nil
}
