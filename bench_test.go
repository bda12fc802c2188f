package polaris

// One testing.B benchmark per evaluation figure of the paper (Section 7),
// plus one per design-choice ablation from DESIGN.md. Each benchmark executes
// the experiment through internal/bench and reports the figure's headline
// numbers as custom metrics in *simulated* seconds (suffix "sims/..."):
// shapes, not absolute values, are the comparison against the paper.
// cmd/benchrunner prints the full per-row tables.

import (
	"fmt"
	"testing"

	"polaris/internal/bench"
	"polaris/internal/colfile"
	"polaris/internal/exec"
)

// BenchmarkFig7IngestionScaling — Figure 7: lineitem load time at growing
// scale factors under elastic resources. Expected shape: sub-linear time
// growth; super-linear resource factor growth.
func BenchmarkFig7IngestionScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig7(0.2)
		for _, r := range rows {
			b.ReportMetric(r.LoadTime.Seconds(), "sims/load_"+r.Label)
			b.ReportMetric(float64(r.ResourceFactor), "nodes_"+r.Label)
		}
	}
}

// BenchmarkFig8BoundedVsElastic — Figure 8: 1TB and 10TB proxy loads on a
// fixed-capacity vs elastic topology. Expected shape: parity at 1TB, elastic
// winning decisively at 10TB.
func BenchmarkFig8BoundedVsElastic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig8(0.2)
		for _, r := range rows {
			b.ReportMetric(r.BoundedTime.Seconds(), "sims/bounded_"+r.Label)
			b.ReportMetric(r.ElasticTime.Seconds(), "sims/elastic_"+r.Label)
		}
	}
}

// BenchmarkFig9QueryPerformance — Figure 9: TPC-H 22-query power run,
// isolated vs with a concurrent uncommitted load into the same tables.
// Expected shape: near-parity (WLM separation + SI + warm immutable caches).
func BenchmarkFig9QueryPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig9(0.1)
		var iso, conc float64
		for _, r := range rows {
			iso += r.Isolated.Seconds()
			conc += r.Concurrent.Seconds()
		}
		b.ReportMetric(iso, "sims/isolated_total")
		b.ReportMetric(conc, "sims/concurrent_total")
		b.ReportMetric(conc/iso, "slowdown_ratio")
	}
}

// BenchmarkFig10CompactionHealth — Figure 10: WP1 SU/DM alternation with
// autonomous compaction. Expected shape: DM flips tables red, compaction
// returns them green by the next SU phase.
func BenchmarkFig10CompactionHealth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bench.Fig10(0.2)
		red := 0
		for _, s := range res.Timeline {
			if !s.Healthy {
				red++
			}
		}
		b.ReportMetric(float64(len(res.Timeline)), "samples")
		b.ReportMetric(float64(red), "red_samples")
		b.ReportMetric(float64(res.Compactions), "compactions")
	}
}

// BenchmarkFig11CheckpointLifetimes — Figure 11: WP1 longevity; each DM phase
// creates exactly 10 manifests per table, minting one checkpoint per table
// per phase.
func BenchmarkFig11CheckpointLifetimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig11(0.2)
		perTable := map[string]int{}
		folded := 0
		for _, r := range rows {
			perTable[r.Table]++
			folded += r.Folded
		}
		b.ReportMetric(float64(len(rows)), "checkpoints")
		b.ReportMetric(float64(len(perTable)), "tables")
		if len(rows) > 0 {
			b.ReportMetric(float64(folded)/float64(len(rows)), "manifests_per_checkpoint")
		}
	}
}

// BenchmarkFig12ReadWriteConcurrency — Figure 12: WP3 phases; SU with
// concurrent DM or Optimize runs longer than isolated SU.
func BenchmarkFig12ReadWriteConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig12(0.2)
		for _, r := range rows {
			b.ReportMetric(r.SUTime.Seconds(), "sims/"+r.Phase)
		}
	}
}

// microFiles returns the shared 1M-row micro-benchmark dataset (built in
// internal/bench so cmd/benchrunner -json measures the same pipelines).
func microFiles(b *testing.B) ([]exec.ScanFile, int64) {
	files, rows, err := bench.MicroFiles()
	if err != nil {
		b.Fatal(err)
	}
	return files, rows
}

// renderBenchRows stringifies a batch for cheap cross-DOP identity checks.
func renderBenchRows(out *colfile.Batch) string {
	rows := make([][]any, out.NumRows())
	for r := range rows {
		rows[r] = out.Row(r)
	}
	return fmt.Sprintf("%v", rows)
}

// BenchmarkParallelScan — morsel-driven parallel scan+aggregate over the 1M
// row bench dataset at growing degrees of parallelism. Expected shape on
// multi-core hardware: near-linear scaling, ≥2x at dop=8 vs dop=1 (compare
// the sub-benchmarks' ns/op). Results are integer aggregates merged in key
// order, so every DOP returns byte-identical output; the dop=1 sub-benchmark
// verifies that against the merged runs.
func BenchmarkParallelScan(b *testing.B) {
	files, rows := microFiles(b)
	var serial string
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := bench.ParallelScanAggregate(files, dop)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					rendered := renderBenchRows(out)
					if serial == "" {
						serial = rendered
					} else if rendered != serial {
						b.Fatalf("dop=%d result differs from dop=1", dop)
					}
				}
			}
			b.SetBytes(int64(len(files)) * files[0].R.Size())
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkParallelJoin — morsel-parallel hash-join probe over the same 1M
// row dataset: scan → filter → probe against a shared immutable JoinTable
// (built once, outside the measured loop), merged in morsel order. The probe
// is the PR2 hot path: typed zero-box keys, per-worker scratch buffers and
// bulk Take gathers — allocs/op is the headline metric, recorded per DOP in
// BENCH_PR2.json. Results are byte-identical across every DOP (joins carry
// no float-summation caveat); the dop=1 sub-benchmark pins that.
func BenchmarkParallelJoin(b *testing.B) {
	files, rows := microFiles(b)
	table, err := bench.ParallelJoinTable()
	if err != nil {
		b.Fatal(err)
	}
	var serial string
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := bench.ParallelJoinProbe(files, table, dop)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					if out.NumRows() == 0 {
						b.Fatal("join produced no rows")
					}
					rendered := renderBenchRows(out)
					if serial == "" {
						serial = rendered
					} else if rendered != serial {
						b.Fatalf("dop=%d join result differs from dop=1", dop)
					}
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "probe_rows/s")
		})
	}
}

// BenchmarkParallelJoinSpill — the same join pipeline forced through the
// grace-join spill path (build side over budget, both sides partitioned to a
// spill store, partition-wise join merged back into probe-row order). The
// ns/op delta against BenchmarkParallelJoin is the measured price of
// spilling; the identity check against the in-memory join's bytes is the
// budget-invariance half of the determinism contract.
func BenchmarkParallelJoinSpill(b *testing.B) {
	files, rows := microFiles(b)
	table, err := bench.ParallelJoinTable()
	if err != nil {
		b.Fatal(err)
	}
	for _, dop := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			var inMem string
			for i := 0; i < b.N; i++ {
				out, err := bench.ParallelJoinSpill(files, dop)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					ref, err := bench.ParallelJoinProbe(files, table, dop)
					if err != nil {
						b.Fatal(err)
					}
					inMem = renderBenchRows(ref)
					if got := renderBenchRows(out); got != inMem {
						b.Fatalf("dop=%d spilled join differs from in-memory join", dop)
					}
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "probe_rows/s")
		})
	}
}

// BenchmarkParallelJoinBloom — the PR7 bloom runtime filter on the probe hot
// path: the same morsel-parallel probe pipeline against a sparse build table
// (16 distinct keys) whose bloom filter rejects ~98% of probe rows before the
// hash-table walk. Compare ns/op against the nobloom sub-benchmark at the
// same DOP: the delta is the measured value of runtime pruning. The first
// iteration pins the determinism half of the contract — bloom on and off
// produce byte-identical output, and the filter observably pruned rows.
func BenchmarkParallelJoinBloom(b *testing.B) {
	files, rows := microFiles(b)
	table, err := bench.ParallelJoinBloomTable()
	if err != nil {
		b.Fatal(err)
	}
	for _, dop := range []int{1, 4, 8} {
		for _, bloom := range []bool{true, false} {
			name := fmt.Sprintf("dop=%d", dop)
			if !bloom {
				name += "/nobloom"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, pruned, err := bench.ParallelJoinBloom(files, table, dop, bloom)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						ref, _, err := bench.ParallelJoinBloom(files, table, dop, false)
						if err != nil {
							b.Fatal(err)
						}
						if renderBenchRows(out) != renderBenchRows(ref) {
							b.Fatalf("dop=%d bloom=%v: pruned join differs from unfiltered join", dop, bloom)
						}
						if bloom && pruned == 0 {
							b.Fatal("bloom filter pruned no probe rows")
						}
					}
				}
				b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "probe_rows/s")
			})
		}
	}
}

// BenchmarkParallelSort — parallel ORDER BY over the 1M row dataset: each
// morsel worker sorts its rows into a run (SortRuns on encoded sort keys),
// merged by a loser-tree k-way merge. val DESC carries heavy ties, so the
// stable-by-morsel-order rule is on the hot path. Results are byte-identical
// across every DOP; the dop=1 sub-benchmark pins that.
func BenchmarkParallelSort(b *testing.B) {
	files, rows := microFiles(b)
	var serial string
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := bench.ParallelSort(files, dop)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					if int64(out.NumRows()) != rows {
						b.Fatalf("sort emitted %d of %d rows", out.NumRows(), rows)
					}
					rendered := renderBenchRows(out)
					if serial == "" {
						serial = rendered
					} else if rendered != serial {
						b.Fatalf("dop=%d sorted result differs from dop=1", dop)
					}
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkParallelTopN — the ORDER BY ... LIMIT pushdown over the same
// dataset: per-worker bounded TopN (at most 100 rows shipped per worker)
// plus an early-cutoff merge. Compare ns/op against BenchmarkParallelSort:
// the pushdown's whole point is that this does not pay for a full sort.
func BenchmarkParallelTopN(b *testing.B) {
	files, rows := microFiles(b)
	var serial string
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := bench.ParallelTopN(files, dop)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					if out.NumRows() != bench.ParallelTopNRows {
						b.Fatalf("top-N emitted %d rows, want %d", out.NumRows(), bench.ParallelTopNRows)
					}
					rendered := renderBenchRows(out)
					if serial == "" {
						serial = rendered
					} else if rendered != serial {
						b.Fatalf("dop=%d top-N result differs from dop=1", dop)
					}
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkKeyEncoding — the per-row key manufacturing cost this PR removed
// from the join/aggregation hot path: the legacy fmt-based encoding (boxed
// Value + Fprintf per column) vs the typed Vec.AppendKey encoding with a
// reused scratch buffer. Compare allocs/op: fmt allocates per row, typed
// amortizes to ~zero.
func BenchmarkKeyEncoding(b *testing.B) {
	batch := bench.KeyEncodeBatch(1 << 14)
	keys := []int{0, 1}
	b.Run("fmt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if bench.FmtKeyEncode(batch, keys) == 0 {
				b.Fatal("empty encoding")
			}
		}
	})
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if bench.TypedKeyEncode(batch, keys) == 0 {
				b.Fatal("empty encoding")
			}
		}
	})
}

// BenchmarkAblationConflictGranularity — DESIGN.md ablation 1: committed
// transactions out of N concurrent disjoint-file updaters, table vs file
// granularity (paper 4.4.1).
func BenchmarkAblationConflictGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationConflictGranularity(6)
		for _, r := range rows {
			b.ReportMetric(r.Value, "committed_"+r.Config)
		}
	}
}

// BenchmarkAblationCheckpointThreshold — DESIGN.md ablation 3: cold snapshot
// reconstruction cost vs checkpoint frequency (paper 5.2).
func BenchmarkAblationCheckpointThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationCheckpointThreshold(29, []int{0, 10, 5})
		for _, r := range rows {
			b.ReportMetric(r.SimTime.Seconds(), "sims/"+r.Config)
		}
	}
}

// BenchmarkAblationCompaction — DESIGN.md ablation 4: read amplification on
// a heavily deleted table, fragmented vs compacted (paper 5.1).
func BenchmarkAblationCompaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationCompaction()
		for _, r := range rows {
			b.ReportMetric(r.Value, "rows_scanned_"+r.Config)
		}
	}
}

// BenchmarkAblationCoWvsMoR — DESIGN.md ablation 5: write amplification of
// trickle deletes and read amplification of subsequent scans under
// copy-on-write vs merge-on-read (paper 2.1).
func BenchmarkAblationCoWvsMoR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationCoWvsMoR()
		for _, r := range rows {
			b.ReportMetric(r.Value, r.Config+"_"+r.Metric)
		}
	}
}

// BenchmarkAblationWLM — DESIGN.md ablation 6: read-task completion with
// shared vs separated node pools under heavy writes (paper 4.3).
func BenchmarkAblationWLM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationWLM()
		for _, r := range rows {
			b.ReportMetric(r.SimTime.Seconds(), "sims/"+r.Config)
		}
	}
}

// BenchmarkParallelDAGQuery — distributed query execution: the same
// join+aggregate SELECT through the in-process morsel executor
// (DistributedQueries off) and as a DCP task DAG with object-store exchange
// (on), at growing DOP. The DAG path pays the exchange serialization tax for
// fault-tolerant re-runnable stages; this benchmark tracks that overhead and
// pins byte-identity between the two paths on the first iteration of every
// sub-benchmark. (dop=1 is the same task graph run by one worker.)
func BenchmarkParallelDAGQuery(b *testing.B) {
	for _, dop := range []int{1, 4, 8} {
		morsel, err := bench.PrepareDAGQuery(false, dop)
		if err != nil {
			b.Fatal(err)
		}
		out, err := morsel.Run()
		if err != nil {
			b.Fatal(err)
		}
		want := renderBenchRows(out)
		h, err := bench.PrepareDAGQuery(true, dop)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			tasksBefore := h.DagTasks()
			for i := 0; i < b.N; i++ {
				out, err := h.Run()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && renderBenchRows(out) != want {
					b.Fatalf("dop=%d: DAG output differs from morsel executor", dop)
				}
			}
			b.ReportMetric(float64(h.DagTasks()-tasksBefore)/float64(b.N), "tasks/op")
		})
	}
}
