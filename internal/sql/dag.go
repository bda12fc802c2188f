package sql

// Distributed query execution (paper Sections 1, 3.3): under
// Options.DistributedQueries an opened plan's stages run as a DCP task DAG
// instead of on the in-process morsel pool. The DAG is query-shaped —
// per-morsel scan tasks, one build task per join, a gather barrier per join
// stage, and per-morsel probe tasks — placed on the read pool with per-node
// slot placement. Stage outputs cross task boundaries through a query-scoped
// object-store exchange namespace (colfile's transient batch frame, which the
// grace-join spill also writes: raw columns closed by a checksum), so every
// stage is durable and re-runnable: a task lost to a node failure is retried
// on another node and deterministically rewrites the same exchange files,
// which is exactly the object-store block semantics the paper's retry story
// relies on. Output is byte-identical to the pool's at every DOP,
// join-memory budget and failure schedule — both stage runners consume one
// plan value (planSelect: the morsel decomposition, the fragment operators,
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

func dagOutOf(v any) *dagOut {
	if o, ok := v.(*dagOut); ok && o != nil {
		return o
	}
	return &dagOut{}
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
// build task b(j). b(j) publishes under a mutex and gather g(j) — and through
// it every probe of join j — depends on it, so readers always observe the
// completed build. A retried build republishes an equivalent value — the
// inputs and the build algorithm are deterministic — so last-write-wins is
// safe.
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

func (s *dagState) get(j int) (*exec.JoinSource, *exec.Bloom) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srcs[j], s.blooms[j]
}

// runStagesDAG runs an opened plan's stages as a DCP task DAG and returns
// the per-morsel outputs of the final stage in morsel order. It is
// runStagesPool on another substrate: the same morsels, fragment operators and
// joins (one plan), with stage outputs crossing task boundaries through
// the exchange. A build task drains its input straight into the JoinSource:
// the build side is re-read from the table's immutable files on a retry, so
// nothing of it crosses the exchange. A spilled join's gather is the pool's
// barrier; a morsel with no rows has none after it, so its later tasks
// forward the empty output without running a fragment.
func runStagesDAG(tx *core.Txn, p *selectPlan, dop int, spill *joinSpill,
	suffix func(exec.Operator) exec.Operator) ([]*colfile.Batch, error) {
	base, joins, tail := p.base, p.joins, p.tail
	ms := base.ms

	// The exchange namespace lives exactly as long as the statement:
	// joinSpill.finish deletes it on success and error alike, so neither a
	// completed query nor one killed mid-DAG leaks exchange files.
	ex := &dagExchange{dir: spill.newDir(), model: tx.CostModel()}

	M := len(ms.Morsels)
	J := len(joins)
	state := &dagState{srcs: make([]*exec.JoinSource, J), blooms: make([]*exec.Bloom, J)}
	g := dcp.NewGraph()

	// Stage 0: one scan task per morsel. With no joins the whole
	// fragment (scan→filter→suffix) is fused into it.
	for i, m := range ms.Morsels {
		i, m := i, m
		if err := g.Add(&dcp.Task{
			ID: dagScanID(i), Name: fmt.Sprintf("scan-m%d", i), Pool: dcp.ReadPool,
			Exec: func(qc *dcp.Ctx) (any, error) {
				op, err := base.fragment(m)
				if err != nil {
					return nil, err
				}
				if J == 0 {
					op = suffix(tail.filter(op))
				}
				b, err := exec.CollectCtx(qc.Context(), op)
				if err != nil {
					return nil, err
				}
				name, err := ex.write(qc, fmt.Sprintf("s0/m%05d", i), b)
				if err != nil {
					return nil, err
				}
				return &dagOut{name: name}, nil
			},
		}); err != nil {
			return nil, err
		}
	}

	prevID := dagScanID
	for j, dj := range joins {
		j, dj := j, dj
		prev := prevID
		last := j == J-1

		if err := g.Add(&dcp.Task{
			ID: dagBuildID(j), Name: fmt.Sprintf("build-j%d", j), Pool: dcp.ReadPool,
			Exec: func(qc *dcp.Ctx) (any, error) {
				right, err := dj.openBuild()
				if err != nil {
					return nil, err
				}
				src, err := exec.BuildGraceJoin(right, dj.rightKeys, dj.typ, tx.Parallelism(), dj.cfg)
				if err != nil {
					return nil, err
				}
				var bloom *exec.Bloom
				if src.Spilled == nil && dj.typ != exec.LeftOuterJoin {
					bloom = src.Table.BloomFilter()
				}
				state.set(j, src, bloom)
				return nil, nil
			},
		}); err != nil {
			return nil, err
		}

		// The gather barrier: for a spilled build it assembles the full
		// per-morsel batch list (nil entries preserved — the partition-
		// wise join's global ordinal merge depends on them) and runs the
		// partition-wise grace join; for an in-memory build it is a pure
		// synchronization point. It depends on its build and the previous
		// stage.
		gdeps := []int{dagBuildID(j)}
		for i := 0; i < M; i++ {
			gdeps = append(gdeps, prev(i))
		}
		if err := g.Add(&dcp.Task{
			ID: dagGatherID(j), Name: fmt.Sprintf("gather-j%d", j), Pool: dcp.ReadPool, Deps: gdeps,
			Exec: func(qc *dcp.Ctx) (any, error) {
				src, _ := state.get(j)
				if src.Spilled == nil {
					return nil, nil // in-memory build: probes share the JoinTable
				}
				batches := make([]*colfile.Batch, M)
				for i := 0; i < M; i++ {
					b, err := ex.read(qc.Context(), qc, dagOutOf(qc.Inputs[prev(i)]).name)
					if err != nil {
						return nil, err
					}
					batches[i] = b
				}
				joined, err := src.Spilled.JoinBatches(qc.Context(), batches, dj.leftKeys, dj.leftSchema, dj.cols, dop)
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
				Deps: []int{dagGatherID(j), prev(i)},
				Exec: func(qc *dcp.Ctx) (any, error) {
					ctx := qc.Context()
					src, bloom := state.get(j)
					var localPruned atomic.Int64
					name := dagOutOf(qc.Inputs[prev(i)]).name
					if src.Spilled != nil {
						name = qc.Inputs[dagGatherID(j)].([]*dagOut)[i].name
						if !last {
							// Forward: the joined batch is already durable
							// in the gather's exchange frame.
							return &dagOut{name: name}, nil
						}
					}
					b, err := ex.read(ctx, qc, name)
					if err != nil {
						return nil, err
					}
					if b == nil {
						return &dagOut{}, nil // no rows: none after the barrier either
					}
					var op exec.Operator = exec.NewBatchSource(b)
					if src.Spilled == nil {
						op = &exec.Probe{In: op, Table: src.Table, LeftKeys: dj.leftKeys,
							Cols: dj.cols, Bloom: bloom, Pruned: &localPruned}
					}
					if last {
						op = suffix(tail.filter(op))
					}
					if b, err = exec.CollectCtx(ctx, op); err != nil {
						return nil, err
					}
					if name, err = ex.write(qc, fmt.Sprintf("p%d/m%05d", j, i), b); err != nil {
						return nil, err
					}
					return &dagOut{name: name, pruned: localPruned.Load()}, nil
				},
			}); err != nil {
				return nil, err
			}
		}
		prevID = func(i int) int { return dagProbeID(j, i) }
	}

	stages := 1
	if J > 0 {
		stages = 1 + J
	}
	res, err := tx.RunQueryDAG(g, stages)
	for jx := range joins {
		src, _ := state.get(jx)
		spill.count(src) // completed builds count even if the run failed
	}
	if err != nil {
		return nil, err
	}

	// Fold the winning attempts' pruned-row counts into WorkStats (the
	// totals are row-based and so identical to the morsel path's).
	var pruned int64
	for j := 0; j < J; j++ {
		for i := 0; i < M; i++ {
			pruned += dagOutOf(res.Outputs[dagProbeID(j, i)]).pruned
		}
	}
	if pruned > 0 {
		tx.Work().RuntimeFilterRows.Add(pruned)
	}

	finalID := dagScanID
	if J > 0 {
		finalID = func(i int) int { return dagProbeID(J-1, i) }
	}
	fctx := tx.Context()
	batches := make([]*colfile.Batch, M)
	for i := 0; i < M; i++ {
		b, err := ex.read(fctx, nil, dagOutOf(res.Outputs[finalID(i)]).name)
		if err != nil {
			return nil, err
		}
		batches[i] = b
	}
	return batches, nil
}
