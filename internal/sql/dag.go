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

// Exchange chunk sizing mirrors the grace-join spill writer: chunks are
// bounded by budget/exchangeFanout, floored so pathological budgets still
// make progress. A tiny per-txn SetJoinMemoryBudget override therefore puts
// the same many-small-files pressure on the exchange that it puts on the
// spill path; budget 0 (unlimited) writes one file per stage output.
const (
	exchangeFanout   = 8
	minExchangeFlush = 4 << 10
)

// dagOut is the value a stage task hands its dependents: the exchange file
// names holding the task's output batch (empty = the morsel produced no
// rows, mirroring the morsel executor's nil entries) and the probe rows its
// bloom filter pruned. Pruned counts ride in the output rather than going
// straight to WorkStats so only the winning attempt of a retried task is
// counted — a failed attempt's side effects stand but its output (and with
// it the count) is discarded.
type dagOut struct {
	names  []string
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
	flush int64 // max bytes per chunk; <= 0 writes one chunk per batch
}

// write persists one stage output batch under prefix and returns the chunk
// names in order. Names are deterministic per (prefix, chunking), so a
// retried task overwrites its failed attempt's files with identical bytes.
func (ex *dagExchange) write(qc *dcp.Ctx, prefix string, b *colfile.Batch) ([]string, error) {
	if b == nil || b.NumRows() == 0 {
		return nil, nil
	}
	b = b.Materialize()
	var names []string
	put := func(chunk *colfile.Batch) error {
		data, err := colfile.MarshalBatch(chunk)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s/f%06d", prefix, len(names))
		if err := ex.dir.Put(name, data); err != nil {
			return err
		}
		qc.Charge(ex.model.RemoteWrite(int64(len(data))))
		names = append(names, name)
		return nil
	}
	if ex.flush <= 0 {
		if err := put(b); err != nil {
			return nil, err
		}
		return names, nil
	}
	buf := colfile.NewBatch(b.Schema)
	var mem int64
	for r := 0; r < b.NumRows(); r++ {
		for c := range buf.Cols {
			buf.Cols[c].Append(b.Cols[c], r)
		}
		mem += b.RowMemSize(r)
		if mem >= ex.flush {
			if err := put(buf); err != nil {
				return nil, err
			}
			buf = colfile.NewBatch(b.Schema)
			mem = 0
		}
	}
	if buf.NumRows() > 0 {
		if err := put(buf); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// read returns a stage output as one dense batch (nil when the producing
// morsel had no rows): the decoded chunk itself when the output is a single
// chunk — every output under an unlimited join budget — and the chunks
// concatenated otherwise. qc is nil when the FE gathers the final stage —
// the transfer is then part of the statement, not a task.
func (ex *dagExchange) read(ctx context.Context, qc *dcp.Ctx, names []string) (*colfile.Batch, error) {
	var out *colfile.Batch
	for _, name := range names {
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
		chunk, err := colfile.UnmarshalBatch(data)
		if err != nil {
			return nil, err
		}
		if len(names) == 1 {
			return chunk, nil
		}
		if out == nil {
			out = colfile.NewBatch(chunk.Schema)
		}
		out.AppendBatch(chunk)
	}
	return out, nil
}

// exchangeTee mirrors a build-side stream into the exchange as it drains, so
// the build stage's input is durable alongside its spill partitions.
type exchangeTee struct {
	in     exec.Operator
	ex     *dagExchange
	qc     *dcp.Ctx
	prefix string
	seq    int
}

func (t *exchangeTee) Schema() colfile.Schema { return t.in.Schema() }

func (t *exchangeTee) Next() (*colfile.Batch, error) {
	b, err := t.in.Next()
	if err != nil || b == nil {
		return b, err
	}
	if _, err := t.ex.write(t.qc, fmt.Sprintf("%s/b%06d", t.prefix, t.seq), b); err != nil {
		return nil, err
	}
	t.seq++
	return b, nil
}

// dagState carries the build results across tasks. Builds publish under a
// mutex and every gather (and through it every probe) depends on all build
// tasks, so readers always observe the complete set. A retried build
// republishes an equivalent value — the inputs and the build algorithm are
// deterministic — so last-write-wins is safe.
type dagState struct {
	mu   sync.Mutex
	srcs []*exec.JoinSource
}

func (s *dagState) set(j int, src *exec.JoinSource) {
	s.mu.Lock()
	s.srcs[j] = src
	s.mu.Unlock()
}

func (s *dagState) get(j int) *exec.JoinSource {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srcs[j]
}

func (s *dagState) anySpilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, src := range s.srcs {
		if src != nil && src.Spilled != nil {
			return true
		}
	}
	return false
}

// runStagesDAG runs an opened plan's stages as a DCP task DAG and returns
// the per-morsel outputs of the final stage in morsel order. It is
// runStagesPool on another substrate: the same morsels, fragment operators and
// joins (one plan), with stage outputs crossing task boundaries through
// the exchange and build inputs teed into it.
//
// Both executor shapes carry over: while no build spills, every morsel runs
// probe→filter→suffix even when its scan came up empty (the streaming shape
// — a global aggregate still emits its zero partial); once any build spills,
// empty per-morsel batches skip downstream stages (the staged shape). Which
// applies is decided at probe time from the completed builds, exactly like
// the pool decides it after draining the builds.
func runStagesDAG(tx *core.Txn, p *selectPlan, dop int, spill *joinSpill,
	suffix func(exec.Operator) exec.Operator) ([]*colfile.Batch, error) {
	base, joins, tail := p.base, p.joins, p.tail
	ms := base.ms

	// The exchange namespace lives exactly as long as the statement:
	// joinSpill.finish deletes it on success and error alike, so neither a
	// completed query nor one killed mid-DAG leaks exchange files.
	ex := &dagExchange{dir: spill.newDir(), model: tx.CostModel()}
	if budget := tx.JoinMemoryBudget(); budget > 0 {
		ex.flush = budget / exchangeFanout
		if ex.flush < minExchangeFlush {
			ex.flush = minExchangeFlush
		}
	}

	M := len(ms.Morsels)
	J := len(joins)
	state := &dagState{srcs: make([]*exec.JoinSource, J)}
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
					op = suffix(tail.filter(op, ms.Tel))
				}
				b, err := exec.CollectCtx(qc.Context(), op)
				if err != nil {
					return nil, err
				}
				names, err := ex.write(qc, fmt.Sprintf("s0/m%05d", i), b)
				if err != nil {
					return nil, err
				}
				return &dagOut{names: names}, nil
			},
		}); err != nil {
			return nil, err
		}
	}

	buildIDs := make([]int, J)
	for j := range joins {
		buildIDs[j] = dagBuildID(j)
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
				// The build's input is teed into the exchange as it drains,
				// so it is durable alongside its spill partitions.
				right = &exchangeTee{in: right, ex: ex, qc: qc, prefix: fmt.Sprintf("build%d", j)}
				src, err := exec.BuildGraceJoin(right, dj.rightKeys, dj.typ, tx.Parallelism(), dj.cfg, ms.Tel)
				if err != nil {
					return nil, err
				}
				state.set(j, src)
				return nil, nil
			},
		}); err != nil {
			return nil, err
		}

		// The gather barrier: for a spilled build it assembles the full
		// per-morsel batch list (nil entries preserved — the partition-
		// wise join's global ordinal merge depends on them) and runs the
		// partition-wise grace join; for an in-memory build it is a pure
		// synchronization point. It depends on every build so probes can
		// tell which executor shape (streaming vs staged) applies.
		gdeps := append([]int{}, buildIDs...)
		for i := 0; i < M; i++ {
			gdeps = append(gdeps, prev(i))
		}
		if err := g.Add(&dcp.Task{
			ID: dagGatherID(j), Name: fmt.Sprintf("gather-j%d", j), Pool: dcp.ReadPool, Deps: gdeps,
			Exec: func(qc *dcp.Ctx) (any, error) {
				src := state.get(j)
				if src == nil || src.Spilled == nil {
					return nil, nil // in-memory build: probes share the JoinTable
				}
				batches := make([]*colfile.Batch, M)
				for i := 0; i < M; i++ {
					b, err := ex.read(qc.Context(), qc, dagOutOf(qc.Inputs[prev(i)]).names)
					if err != nil {
						return nil, err
					}
					batches[i] = b
				}
				joined, err := src.Spilled.JoinBatches(qc.Context(), batches, dj.leftKeys, dj.leftSchema, dop)
				if err != nil {
					return nil, err
				}
				outs := make([]*dagOut, M)
				for i, b := range joined {
					names, err := ex.write(qc, fmt.Sprintf("g%d/m%05d", j, i), b)
					if err != nil {
						return nil, err
					}
					outs[i] = &dagOut{names: names}
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
					src := state.get(j)
					var localPruned atomic.Int64
					var op exec.Operator
					if src.Spilled != nil {
						outs, _ := qc.Inputs[dagGatherID(j)].([]*dagOut)
						var names []string
						if outs != nil {
							names = outs[i].names
						}
						if !last {
							// Forward: the joined batch is already durable
							// in the gather's exchange files.
							return &dagOut{names: names}, nil
						}
						b, err := ex.read(ctx, qc, names)
						if err != nil {
							return nil, err
						}
						if b == nil {
							return &dagOut{}, nil // staged shape: empty skips the suffix
						}
						op = exec.NewBatchSource(b)
					} else {
						b, err := ex.read(ctx, qc, dagOutOf(qc.Inputs[prev(i)]).names)
						if err != nil {
							return nil, err
						}
						if b == nil {
							if state.anySpilled() {
								return &dagOut{}, nil // staged shape: empty skips this stage
							}
							// Streaming shape: probe/filter/suffix run on the
							// empty stream too, like the fused morsel fragment.
							b = colfile.NewBatch(dj.leftSchema)
						}
						pr := &exec.Probe{In: exec.NewBatchSource(b), Table: src.Table, LeftKeys: dj.leftKeys, Tel: ms.Tel}
						if dj.typ != exec.LeftOuterJoin {
							pr.Bloom = src.Table.BloomFilter()
							pr.Pruned = &localPruned
						}
						op = pr
					}
					if last {
						op = suffix(tail.filter(op, ms.Tel))
					}
					b, err := exec.CollectCtx(ctx, op)
					if err != nil {
						return nil, err
					}
					names, err := ex.write(qc, fmt.Sprintf("p%d/m%05d", j, i), b)
					if err != nil {
						return nil, err
					}
					return &dagOut{names: names, pruned: localPruned.Load()}, nil
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
		spill.count(state.get(jx)) // completed builds count even if the run failed
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
		b, err := ex.read(fctx, nil, dagOutOf(res.Outputs[finalID(i)]).names)
		if err != nil {
			return nil, err
		}
		batches[i] = b
	}
	return batches, nil
}
