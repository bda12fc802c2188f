// Command benchrunner regenerates every table and figure of the paper's
// evaluation (Section 7) plus ablations of the design choices the paper argues
// for (Sections 2.1, 4.3, 4.4.1, 5.1 and 5.2), printing the same rows/series
// the paper reports. Times are simulated (cost-model) durations;
// compare shapes against the paper, not absolute values.
//
// Usage:
//
//	benchrunner                      # all figures
//	benchrunner -fig 9               # one figure
//	benchrunner -scale 1.0           # bigger workloads, sharper curves
//	benchrunner -ablations           # the ablation suite
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"polaris/internal/bench"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to run (7-12); 0 = all")
	scale := flag.Float64("scale", 0.5, "workload scale multiplier")
	ablations := flag.Bool("ablations", false, "run the ablation suite instead of figures")
	flag.Parse()

	s := bench.Scale(*scale)
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
		"each DM phase creates 9 manifests per table (2 INSERT + 6 DELETE + 1 compaction; the second compaction finds no victim and commits nothing); a table is checkpointed once the manifests since its last checkpoint weigh as much as that checkpoint")
	rows := bench.Fig11(s)
	var out [][]string
	for _, r := range rows {
		end := "open"
		if r.EndSeq > 0 {
			end = strconv.FormatInt(r.EndSeq, 10)
		}
		out = append(out, []string{
			r.Table, strconv.FormatInt(r.StartSeq, 10), end, strconv.Itoa(r.Folded),
			strconv.FormatInt(r.FoldedBytes, 10), strconv.FormatInt(r.Bytes, 10),
		})
	}
	fmt.Print(bench.RenderTable(
		[]string{"table", "checkpoint_seq", "superseded_at_seq", "manifests_folded", "manifest_bytes_folded", "checkpoint_bytes"}, out))
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
