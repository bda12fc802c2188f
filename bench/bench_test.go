package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"polaris"
	"polaris/internal/sql"
	"polaris/internal/workload"
)

// smokeConfig is a tiny amount of work through the same code as a full run:
// small tables, a quarter of a second per phase (two passes or transactions
// on the library workloads), one set-up, the operator rungs on two files of
// their dataset. join_spill keeps half its tables: a 64 KiB budget spills no
// join below scale factor 2.
func smokeConfig(workload string) runConfig {
	cfg := runConfig{seed: 1, seconds: 0.25, scale: 0.1, setups: 1}
	if workload == "join_spill" {
		cfg.scale = 0.5
	}
	return cfg
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest pins BENCHMARK.json to the catalogue in catalogue.go and
// checks the limits the pipeline puts on the file.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEndSpecs {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range perLayerSpecs {
		name(m.Name)
		if layerOf(m.Name) == m.Name {
			t.Errorf("per-layer metric %s names no layer", m.Name)
		}
	}
	if len(perLayerSpecs) > 128 || len(endToEndSpecs) > 16 || len(workloadSpecs) > 8 {
		t.Error("too many workloads or metrics for BENCHMARK.json")
	}
}

// TestSmoke runs all five workloads, untraced and traced, and checks that
// each run passes its own correctness gate, reports exactly the declared
// metrics with finite values, and leaves the layers a workload is predicted
// to bypass at zero.
func TestSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			untraced := firstSmoke(t, w.Name, false)
			traced := firstSmoke(t, w.Name, true)

			for _, m := range endToEndSpecs {
				v, ok := untraced.metrics[m.Name]
				if !ok {
					t.Errorf("end-to-end metric %s not reported", m.Name)
				} else if v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %v %q, want a positive value in %q", m.Name, v.Value, v.Unit, m.Unit)
				}
			}
			if len(untraced.metrics) != len(endToEndSpecs) {
				t.Errorf("untraced run reported %d metrics, want the %d end-to-end ones", len(untraced.metrics), len(endToEndSpecs))
			}
			for _, m := range perLayerSpecs {
				v, ok := traced.metrics[m.Name]
				if !ok {
					t.Errorf("per-layer metric %s not reported", m.Name)
				} else if (v.Value < 0 && layerOf(m.Name) != "server") || v.Unit != m.Unit {
					// The server's overheads are differences of two timings
					// and may come out below zero on a tiny run.
					t.Errorf("%s = %v %q, want a value >= 0 in %q", m.Name, v.Value, v.Unit, m.Unit)
				}
			}
			if len(traced.metrics) != len(perLayerSpecs) {
				t.Errorf("traced run reported %d metrics, want the %d per-layer ones", len(traced.metrics), len(perLayerSpecs))
			}

			for name, v := range traced.metrics {
				bypassed := (strings.HasPrefix(name, "dcp.") && w.Name != "join_dag") ||
					(strings.HasPrefix(name, "exec.join_spill") && !strings.HasSuffix(name, "_ns_per_row") && w.Name != "join_spill") ||
					(strings.HasPrefix(name, "server.") && w.Name != "http_mixed")
				if bypassed && v.Value != 0 {
					t.Errorf("%s = %v on %s, predicted 0", name, v.Value, w.Name)
				}
			}
			if w.Name == "join_dag" && traced.metrics["dcp.tasks_per_stmt"].Value == 0 {
				t.Error("join_dag ran no DCP tasks")
			}
			if w.Name == "join_spill" && traced.metrics["exec.join_spills"].Value == 0 {
				t.Error("join_spill spilled no join")
			}
			if len(traced.self) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestExactCounters checks that two runs with one seed report identical
// values for the counters later issues may rest a claim on.
func TestExactCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four more phases")
	}
	for _, name := range []string{"join_dag", "dm_txn"} {
		for _, traced := range []bool{false, true} {
			a, b := firstSmoke(t, name, traced), runSmoke(t, name, traced)
			for _, metric := range []string{"store_bytes_per_user_byte", "put_bytes_per_user_byte",
				"exec.rows_scanned_per_stmt", "dcp.tasks_per_stmt", "objectstore.puts_per_stmt"} {
				if _, ok := a.metrics[metric]; ok && a.metrics[metric].Value != b.metrics[metric].Value {
					t.Errorf("%s %s: %v then %v with the same seed", name, metric, a.metrics[metric].Value, b.metrics[metric].Value)
				}
			}
		}
	}
}

// firstRuns keeps each (workload, mode)'s first smoke run, so that the tests
// that only need a run do not each pay for their own.
var firstRuns = map[string]*result{}

func firstSmoke(t *testing.T, name string, traced bool) *result {
	t.Helper()
	key := fmt.Sprint(name, traced)
	if firstRuns[key] == nil {
		firstRuns[key] = runSmoke(t, name, traced)
	}
	return firstRuns[key]
}

func runSmoke(t *testing.T, name string, traced bool) *result {
	t.Helper()
	r, err := runWorkload(name, smokeConfig(name), traced)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d: %v", name, r.attempted, r.failed, r.failures)
	}
	for n, v := range r.metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s is not finite", name, n)
		}
	}
	return r
}

// TestResultLine checks the shape of the object the pipeline reads.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one more phase")
	}
	cfg := smokeConfig("tpch_power")
	var out bytes.Buffer
	if !runOnce(&out, []string{"tpch_power"}, cfg, modes{untraced: true}, false, true) {
		t.Fatalf("run failed:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEndSpecs) {
		t.Errorf("result line %+v", line)
	}
}

// TestLoadMatchesWorkload pins env.go's loader to workload.LoadTPCH. The
// benchmark loads batches it generated beforehand, so that setup_s and
// core.bulkload_rows_per_s time the system's load and not the generator
// (three quarters of LoadTPCH's time); this test fails when the two loaders
// stop storing the same tables.
func TestLoadMatchesWorkload(t *testing.T) {
	const sf = 0.5
	d := generate(sf)
	e, err := openLoaded(polaris.DefaultConfig(), d)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	db := polaris.Open(polaris.DefaultConfig())
	defer db.Close()
	rows, err := workload.LoadTPCH(db.Engine(), sf, lineitemFiles(sf))
	if err != nil {
		t.Fatal(err)
	}
	if rows != d.lineitemRows {
		t.Errorf("lineitem: %d rows generated, LoadTPCH loaded %d", d.lineitemRows, rows)
	}
	want := db.Engine().Store
	if e.eng.Store.Count() != want.Count() || e.eng.Store.TotalSize() != want.TotalSize() {
		t.Errorf("store holds %d blobs, %d bytes; LoadTPCH's holds %d blobs, %d bytes",
			e.eng.Store.Count(), e.eng.Store.TotalSize(), want.Count(), want.TotalSize())
	}
	ours, theirs := e.session(), sql.NewSession(db.Engine())
	for i, q := range workload.THQueries() {
		a, err := ours.Exec(q)
		if err != nil {
			t.Fatalf("Q%d: %v", i+1, err)
		}
		b, err := theirs.Exec(q)
		if err != nil {
			t.Fatalf("Q%d on LoadTPCH's tables: %v", i+1, err)
		}
		if !sameBytes(a, b) {
			t.Errorf("Q%d differs between the two loaders", i+1)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "a", Start: 0, End: 100, Parent: -1},
		{Name: "b", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps the first child
		{Name: "c", Start: 90, End: 130, Parent: 0}, // runs past the parent
	}}
	got := make(map[string]selfTime)
	for _, s := range tr.selfTimes() {
		got[s.Name] = s
	}
	if got["a"].Self != 40 || got["b"].Self != 60 || got["c"].Self != 40 {
		t.Errorf("self times %+v, want a=40 (100 minus 10..60 and 90..100), b=60, c=40", got)
	}
}
