// Command bench is the repository's benchmark: five workloads over the
// public surface of the system, end-to-end metrics from runs with tracing
// off, per-layer metrics from a separate traced run, and a correctness gate
// in the same command. README.md in this directory is the catalogue;
// BENCHMARK.json at the root of the repository names the same workloads and
// metrics for the pipeline.
//
//	go run ./bench -seed 1                        every workload, every metric
//	go run ./bench -workload dm_txn -trace 0      one workload, end-to-end only
//	go run ./bench -workload dm_txn -trace s.json one workload's traced run, spans written to s.json
//	go run ./bench -repeat 10 -trace 0            spread of each metric vs its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload only (default: all five)")
		seed         = flag.Int64("seed", 1, "seed of the benchmark's own choices: query order, DML keys, reader statement order")
		seconds      = flag.Float64("seconds", runSeconds, "length of each measured phase; numbers compare only at BENCHMARK.json's run_seconds, the default")
		trace        = flag.String("trace", "", "0: the untraced run, end-to-end metrics; 1: the traced run, per-layer metrics; a file name: the traced run of one workload, spans written there; empty: both runs")
		jsonOut      = flag.Bool("json", false, "print workload -> metric -> {value, unit, samples} as the last line")
		repeat       = flag.Int("repeat", 1, "run the set this many times with seeds seed, seed+1, ... and check every spread against its bound")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	names, err := selectWorkloads(*workloadName)
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: 1, setups: 3}
	which := modes{untraced: *trace == "" || *trace == "0", traced: *trace != "0"}
	if *trace != "" && *trace != "0" && *trace != "1" {
		cfg.spans = *trace
		if err == nil && len(names) != 1 {
			err = fmt.Errorf("-trace %s holds one workload's spans: name it with -workload", *trace)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Printf("bench: nproc=%d gomaxprocs=%d %s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *seconds)

	var ok bool
	if *repeat > 1 {
		ok = runRepeated(os.Stdout, names, cfg, which, *repeat)
	} else {
		ok = runOnce(os.Stdout, names, cfg, which, *jsonOut, *workloadName != "")
	}
	if !ok {
		os.Exit(1)
	}
}

// modes says which of a workload's two runs to make.
type modes struct{ untraced, traced bool }

func selectWorkloads(name string) ([]string, error) {
	var all []string
	for _, w := range workloadSpecs {
		if w.Name == name {
			return []string{name}, nil
		}
		all = append(all, w.Name)
	}
	if name != "" {
		return nil, fmt.Errorf("unknown workload %q, want one of %v", name, all)
	}
	return all, nil
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(name string, cfg runConfig, traced bool) (*result, error) {
	if traced {
		// Set-up time is an end-to-end metric; the traced run sets up once.
		cfg.setups = 1
	}
	switch name {
	case "dm_txn":
		return runDMTxn(cfg, traced)
	case "http_mixed":
		return runHTTPMixed(cfg, traced)
	}
	return readSpecs[name].run(cfg, traced)
}

// runModes runs a workload in the modes asked for and merges the metrics:
// the end-to-end ones from the untraced run, the per-layer ones from the
// traced run.
func runModes(name string, cfg runConfig, which modes) (*result, error) {
	merged := &result{workload: name, metrics: make(map[string]metric)}
	for _, traced := range []bool{false, true} {
		if (traced && !which.traced) || (!traced && !which.untraced) {
			continue
		}
		r, err := runWorkload(name, cfg, traced)
		if err != nil {
			return nil, err
		}
		for k, m := range r.metrics {
			merged.metrics[k] = m
		}
		merged.attempted += r.attempted
		merged.failed += r.failed
		merged.failures = append(merged.failures, r.failures...)
		if traced {
			merged.self, merged.dopScaling = r.self, r.dopScaling
		}
		if merged.phase == 0 {
			merged.phase = r.phase
		}
		// Each run starts from a collected heap, so that one run's garbage is
		// not the next one's pause.
		runtime.GC()
	}
	return merged, nil
}

// runOnce runs the workloads once and prints every metric. With one
// workload selected, the last line is the pipeline's result object.
func runOnce(w io.Writer, names []string, cfg runConfig, which modes, jsonOut, single bool) bool {
	ok := true
	all := make(map[string]map[string]metric)
	var last *result
	for _, name := range names {
		r, err := runModes(name, cfg, which)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return false
		}
		printResult(w, r)
		ok = ok && r.failed == 0
		all[name] = r.metrics
		last = r
	}
	switch {
	case jsonOut:
		writeJSONLine(w, all)
	case single:
		// The pipeline's result object: value and unit only.
		type valueUnit struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		metrics := make(map[string]valueUnit, len(last.metrics))
		for name, m := range last.metrics {
			metrics[name] = valueUnit{m.Value, m.Unit}
		}
		writeJSONLine(w, map[string]any{
			"correct": last.failed == 0, "attempted": last.attempted, "failed": last.failed,
			"metrics": metrics,
		})
	}
	return ok
}

func writeJSONLine(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", data)
}

// printResult prints one workload's metrics by name, with unit and sample
// count, then the correctness verdict and, after a traced run, each span
// name's self time.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s == measured phase %.1f s\n", r.workload, r.phase.Seconds())
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end metrics (no layer prefix) first, then by name.
		ei, ej := layerOf(names[i]) == names[i], layerOf(names[j]) == names[j]
		if ei != ej {
			return ei
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-38s %16.4f %-7s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
	if len(r.self) > 0 {
		fmt.Fprintf(w, "-- self time per span name (duration minus child coverage) --\n")
		for _, s := range r.self {
			fmt.Fprintf(w, "%-38s %12.3f ms self %12.3f ms total  spans=%d\n", s.Name, ms(s.Self), ms(s.Total), s.Spans)
		}
	}
	if r.dopScaling > 0 {
		fmt.Fprintf(w, "exec.scan_agg DOP 1 / DOP %d: %.2fx\n", runtime.GOMAXPROCS(0), r.dopScaling)
	}
	// failed_ratio is the eleventh end-to-end metric. It is 0 on every good
	// run, which BENCHMARK.json's metrics may not be, so the pipeline reads it
	// from the result object's attempted and failed.
	fmt.Fprintf(w, "%-38s %16.4f %-7s n=%d (failed %d)\n", "failed_ratio",
		ratio(float64(r.failed), float64(r.attempted)), "ratio", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// runRepeated is the self-check: the set n times, each with another seed;
// per (workload, metric) the median, quartiles and the interquartile spread
// as a share of the median, against the metric's bound. It fails when a
// spread exceeds the bound or when the second half of the runs is worse than
// the first by more than the bound.
func runRepeated(w io.Writer, names []string, cfg runConfig, which modes, n int) bool {
	ok := true
	for _, name := range names {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			r, err := runModes(name, c, which)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return false
			}
			if r.failed > 0 {
				printResult(w, r)
				ok = false
			}
			for k, m := range r.metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		fmt.Fprintf(w, "\n== %s: %d runs, seeds %d..%d ==\n", name, n, cfg.seed, cfg.seed+int64(n)-1)
		fmt.Fprintf(w, "%-28s %12s %12s %12s %8s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "drift", "bound")
		for _, spec := range endToEndSpecs {
			v := values[spec.Name]
			if len(v) == 0 {
				continue
			}
			q1, med, q3 := quartiles(v)
			spread := ratio(q3-q1, med)
			_, first, _ := quartiles(v[:len(v)/2])
			_, second, _ := quartiles(v[len(v)/2:])
			drift := ratio(second-first, first)
			if spec.Better == "higher" {
				drift = -drift
			}
			verdict := ""
			// setup_s is judged on drift only, as the pipeline judges it.
			if (spread > spec.Bound && spec.Name != "setup_s") || drift > spec.Bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-28s %12.4f %12.4f %12.4f %7.1f%% %+7.1f%% %7.1f%%%s\n",
				spec.Name, q1, med, q3, 100*spread, 100*drift, 100*spec.Bound, verdict)
		}
		for _, spec := range perLayerSpecs {
			if v := values[spec.Name]; len(v) > 0 {
				q1, med, q3 := quartiles(v)
				fmt.Fprintf(w, "%-38s %14.4f %14.4f %14.4f %7.1f%%\n", spec.Name, q1, med, q3, 100*ratio(q3-q1, med))
			}
		}
	}
	return ok
}
