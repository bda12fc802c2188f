// Command benchrunner regenerates every table and figure of the paper's
// evaluation (Section 7) plus the DESIGN.md ablations, printing the same
// rows/series the paper reports. Times are simulated (cost-model) durations;
// compare shapes against the paper, not absolute values.
//
// Usage:
//
//	benchrunner                      # all figures
//	benchrunner -fig 9               # one figure
//	benchrunner -scale 1.0           # bigger workloads, sharper curves
//	benchrunner -ablations           # the ablation suite
//	benchrunner -json BENCH_PR3.json # wall-clock micro-bench suite → JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"polaris/internal/bench"
	"polaris/internal/colfile"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to run (7-12); 0 = all")
	scale := flag.Float64("scale", 0.5, "workload scale multiplier")
	ablations := flag.Bool("ablations", false, "run the ablation suite instead of figures")
	jsonPath := flag.String("json", "", "run the wall-clock micro-benchmarks and write results to this JSON file")
	flag.Parse()

	s := bench.Scale(*scale)
	if *jsonPath != "" {
		if err := runMicroJSON(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *ablations {
		runAblations()
		return
	}
	figs := []int{7, 8, 9, 10, 11, 12}
	if *fig != 0 {
		figs = []int{*fig}
	}
	for _, f := range figs {
		switch f {
		case 7:
			fig7(s)
		case 8:
			fig8(s)
		case 9:
			fig9(s)
		case 10:
			fig10(s)
		case 11:
			fig11(s)
		case 12:
			fig12(s)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %d (have 7-12)\n", f)
			os.Exit(2)
		}
	}
}

// microResult is one row of the machine-readable benchmark output: the
// wall-clock and allocation profile of a micro-benchmark at one
// configuration. The file these land in (BENCH_PR2.json and successors) is
// the per-PR perf trajectory: later PRs diff their numbers against it.
type microResult struct {
	Name        string  `json:"name"`
	DOP         int     `json:"dop,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// microReport is the top-level JSON document.
type microReport struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []microResult `json:"results"`
}

// runMicroJSON measures the parallel scan, join, full-sort and top-N
// micro-benchmarks at DOP 1/4/8 plus the fmt-vs-typed key-encoding baseline,
// and writes the results as JSON. The key-encoding pair is the measured
// evidence for the PR2 typed-key claim: "fmt" is the legacy per-row boxed
// encoding kept only as a baseline, "typed" is what the executor now runs;
// the sort/top-N pair (PR3) measures what the LIMIT pushdown saves over a
// full parallel sort.
func runMicroJSON(path string) error {
	files, _, err := bench.MicroFiles()
	if err != nil {
		return err
	}
	table, err := bench.ParallelJoinTable()
	if err != nil {
		return err
	}
	var report microReport
	report.GoVersion = runtime.Version()
	report.GOMAXPROCS = runtime.GOMAXPROCS(0)

	record := func(name string, dop int, r testing.BenchmarkResult) {
		report.Results = append(report.Results, microResult{
			Name: name, DOP: dop, Iterations: r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
		})
		fmt.Printf("%-24s dop=%d  %12.0f ns/op  %9d allocs/op\n",
			name, dop, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp())
	}

	for _, dop := range []int{1, 4, 8} {
		dop := dop
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.ParallelScanAggregate(files, dop); err != nil {
					b.Fatal(err)
				}
			}
		})
		record("ParallelScan", dop, r)
	}
	for _, dop := range []int{1, 4, 8} {
		dop := dop
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.ParallelJoinProbe(files, table, dop); err != nil {
					b.Fatal(err)
				}
			}
		})
		record("ParallelJoin", dop, r)
	}
	for _, dop := range []int{1, 4, 8} {
		dop := dop
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.ParallelJoinSpill(files, dop); err != nil {
					b.Fatal(err)
				}
			}
		})
		record("ParallelJoinSpill", dop, r)
	}
	bloomTable, err := bench.ParallelJoinBloomTable()
	if err != nil {
		return err
	}
	for _, dop := range []int{1, 4, 8} {
		dop := dop
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, pruned, err := bench.ParallelJoinBloom(files, bloomTable, dop, true)
				if err != nil {
					b.Fatal(err)
				}
				if out.NumRows() == 0 || pruned == 0 {
					b.Fatalf("bloom probe: %d rows, %d pruned", out.NumRows(), pruned)
				}
			}
		})
		record("ParallelJoinBloom", dop, r)
	}
	for _, dop := range []int{1, 4, 8} {
		dop := dop
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.ParallelSort(files, dop); err != nil {
					b.Fatal(err)
				}
			}
		})
		record("ParallelSort", dop, r)
	}
	for _, dop := range []int{1, 4, 8} {
		dop := dop
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.ParallelTopN(files, dop); err != nil {
					b.Fatal(err)
				}
			}
		})
		record("ParallelTopN", dop, r)
	}

	// Distributed DAG execution vs the in-process morsel path for the same
	// SQL join+aggregate: the pair quantifies the object-store exchange tax
	// (measured distributed at 4/8 only, the rows the committed snapshots
	// have).
	for _, dop := range []int{1, 4, 8} {
		for _, distributed := range []bool{false, true} {
			name := "ParallelDAGQuery/morsel"
			if distributed {
				if dop == 1 {
					continue
				}
				name = "ParallelDAGQuery/dag"
			}
			h, err := bench.PrepareDAGQuery(distributed, dop)
			if err != nil {
				return err
			}
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := h.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
			record(name, dop, r)
		}
	}

	batch := bench.KeyEncodeBatch(1 << 14)
	keyEncoders := []struct {
		name string
		fn   func(*colfile.Batch, []int) int
	}{
		{"KeyEncoding/fmt", bench.FmtKeyEncode},
		{"KeyEncoding/typed", bench.TypedKeyEncode},
	}
	for _, e := range keyEncoders {
		e := e
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if e.fn(batch, []int{0, 1}) == 0 {
					b.Fatal("empty encoding")
				}
			}
		})
		record(e.name, 0, r)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func header(title, paperShape string) {
	fmt.Printf("\n=== %s ===\n", title)
	fmt.Printf("paper shape: %s\n\n", paperShape)
}

func fig7(s bench.Scale) {
	header("Figure 7: load time for TPC-H lineitem at various scale factors",
		"load time grows sub-linearly with data size; resource factor grows super-linearly (labels 1, 3, 26, 240, 2896)")
	rows := bench.Fig7(s)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Label, strconv.FormatInt(r.Rows, 10), strconv.Itoa(r.SourceFiles),
			bench.Secs(r.LoadTime), strconv.Itoa(r.ResourceFactor),
		})
	}
	fmt.Print(bench.RenderTable(
		[]string{"scale", "rows", "source_files", "load_sims", "resource_factor"}, out))
}

func fig8(s bench.Scale) {
	header("Figure 8: lineitem load, bounded (fixed) vs unbounded (elastic) resources",
		"1TB: bounded == elastic (240 vs 240); 10TB: bounded far slower (2896 vs 304)")
	rows := bench.Fig8(s)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Label, bench.Secs(r.BoundedTime), bench.Secs(r.ElasticTime),
			strconv.Itoa(r.BoundedRes), strconv.Itoa(r.ElasticRes),
			fmt.Sprintf("%.2fx", float64(r.BoundedTime)/float64(r.ElasticTime)),
		})
	}
	fmt.Print(bench.RenderTable(
		[]string{"scale", "bounded_sims", "elastic_sims", "bounded_nodes", "elastic_nodes", "elastic_gain"}, out))
}

func fig9(s bench.Scale) {
	header("Figure 9: TPC-H query times, isolated vs concurrent load into the same tables",
		"per-query times barely change under concurrent load (WLM + SI + warm immutable caches)")
	rows := bench.Fig9(s)
	var out [][]string
	var iso, conc float64
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("Q%d", r.Query), bench.Ms(r.Isolated), bench.Ms(r.Concurrent),
			fmt.Sprintf("%.2fx", float64(r.Concurrent)/float64(r.Isolated)),
		})
		iso += r.Isolated.Seconds()
		conc += r.Concurrent.Seconds()
	}
	out = append(out, []string{"TOTAL", fmt.Sprintf("%.2f", iso*1000),
		fmt.Sprintf("%.2f", conc*1000), fmt.Sprintf("%.2fx", conc/iso)})
	fmt.Print(bench.RenderTable(
		[]string{"query", "isolated_ms", "concurrent_ms", "ratio"}, out))
}

func fig10(s bench.Scale) {
	header("Figure 10: data compaction correcting storage health during WP1",
		"DM phases flip tables to unhealthy (red); autonomous compaction restores green before the next SU phase")
	res := bench.Fig10(s)
	// render the timeline as one row per phase with green/red cells per table
	byPhase := map[string]map[string]bool{}
	var phases []string
	tables := map[string]bool{}
	for _, sm := range res.Timeline {
		if _, ok := byPhase[sm.Phase]; !ok {
			byPhase[sm.Phase] = map[string]bool{}
			phases = append(phases, sm.Phase)
		}
		byPhase[sm.Phase][sm.Table] = sm.Healthy
		tables[sm.Table] = true
	}
	var names []string
	for _, sm := range res.Timeline {
		if tables[sm.Table] {
			names = append(names, sm.Table)
			tables[sm.Table] = false
		}
	}
	var out [][]string
	for _, p := range phases {
		row := []string{p}
		for _, tbl := range names {
			if byPhase[p][tbl] {
				row = append(row, "green")
			} else {
				row = append(row, "RED")
			}
		}
		out = append(out, row)
	}
	fmt.Print(bench.RenderTable(append([]string{"phase"}, names...), out))
	fmt.Printf("\ncompactions run: %d\n", res.Compactions)
}

func fig11(s bench.Scale) {
	header("Figure 11: manifest checkpoint lifetimes per table within WP1",
		"each DM phase creates 10 manifests per table (2 INSERT + 6 DELETE + 2 compactions), minting one checkpoint per table per phase")
	rows := bench.Fig11(s)
	var out [][]string
	for _, r := range rows {
		end := "open"
		if r.EndSeq > 0 {
			end = strconv.FormatInt(r.EndSeq, 10)
		}
		out = append(out, []string{
			r.Table, strconv.FormatInt(r.StartSeq, 10), end, strconv.Itoa(r.Folded),
		})
	}
	fmt.Print(bench.RenderTable(
		[]string{"table", "checkpoint_seq", "superseded_at_seq", "manifests_folded"}, out))
}

func fig12(s bench.Scale) {
	header("Figure 12: LST-Bench WP3 concurrency phases",
		"SU phases with concurrent DM or Optimize take significantly longer than isolated SU phases")
	rows := bench.Fig12(s)
	var out [][]string
	for _, r := range rows {
		conc := "-"
		if r.Concurrent != "" {
			conc = r.Concurrent
		}
		out = append(out, []string{
			r.Phase, conc, bench.Secs(r.SUTime),
			strconv.FormatInt(r.WorkRows, 10),
			strconv.FormatInt(r.RemoteBytes, 10),
			strconv.FormatInt(r.Commits, 10),
		})
	}
	fmt.Print(bench.RenderTable(
		[]string{"phase", "concurrent", "su_sims", "scan_rows", "remote_bytes", "commits"}, out))
}

func runAblations() {
	header("Ablation: conflict granularity (paper 4.4.1)",
		"file granularity admits concurrent disjoint-file updaters that table granularity aborts")
	rows := bench.AblationConflictGranularity(6)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Config, r.Metric, fmt.Sprintf("%.0f", r.Value)})
	}
	fmt.Print(bench.RenderTable([]string{"config", "metric", "value"}, out))

	header("Ablation: checkpoint threshold (paper 5.2)",
		"cold snapshot reconstruction gets cheaper as checkpoints get more frequent")
	rows = bench.AblationCheckpointThreshold(29, []int{0, 10, 5})
	out = nil
	for _, r := range rows {
		out = append(out, []string{r.Config, bench.Ms(r.SimTime)})
	}
	fmt.Print(bench.RenderTable([]string{"config", "cold_snapshot_ms"}, out))

	header("Ablation: compaction (paper 5.1)",
		"compaction removes deleted rows physically, cutting read amplification")
	rows = bench.AblationCompaction()
	out = nil
	for _, r := range rows {
		out = append(out, []string{r.Config, fmt.Sprintf("%.0f", r.Value), bench.Ms(r.SimTime)})
	}
	fmt.Print(bench.RenderTable([]string{"config", "rows_scanned", "scan_ms"}, out))

	header("Ablation: copy-on-write vs merge-on-read deletes (paper 2.1)",
		"MoR trickle deletes write tiny DVs (low write amplification); CoW scans fewer rows afterwards")
	rows = bench.AblationCoWvsMoR()
	out = nil
	for _, r := range rows {
		out = append(out, []string{r.Config, r.Metric, fmt.Sprintf("%.0f", r.Value)})
	}
	fmt.Print(bench.RenderTable([]string{"config", "metric", "value"}, out))

	header("Ablation: workload management separation (paper 4.3)",
		"separated pools keep read completion independent of queued writes")
	rows = bench.AblationWLM()
	out = nil
	for _, r := range rows {
		out = append(out, []string{r.Config, bench.Ms(r.SimTime)})
	}
	fmt.Print(bench.RenderTable([]string{"config", "read_completion_ms"}, out))
}
