// Package bench reproduces every evaluation figure of the paper (Section 7)
// as a programmatic experiment returning structured rows. cmd/benchrunner
// prints them and figures_test.go asserts their shapes; the numbers they
// report are *simulated* durations from the compute cost model,
// so the comparison against the paper is about shape — who wins, by what
// rough factor, where crossovers fall — not absolute values.
package bench

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"polaris/internal/catalog"
	"polaris/internal/compute"
	"polaris/internal/core"
	"polaris/internal/objectstore"
	"polaris/internal/sql"
	"polaris/internal/sto"
	"polaris/internal/workload"
)

// Scale multiplies all workload sizes; the figure tests run at 0.1–0.2, and
// larger values sharpen the curves cmd/benchrunner prints.
type Scale float64

func newEngine(elastic bool, maxNodes int) *core.Engine {
	return newEngineT(elastic, maxNodes, 400, 0.3)
}

func newEngineT(elastic bool, maxNodes int, smallRows int64, deletedFrac float64) *core.Engine {
	opts := core.DefaultOptions()
	opts.Distributions = 8
	opts.RowsPerFile = 4000
	opts.RowsPerGroup = 1000
	opts.CompactSmallRows = smallRows
	opts.CompactDeletedFrac = deletedFrac
	// Laptop-scale loads finish in simulated hundreds of milliseconds, so the
	// datacenter-scale 2s provisioning delay would dominate every elastic
	// grow; scale it to match the workload like the rest of the cost model.
	model := compute.DefaultCostModel()
	model.ProvisionDelay = 100 * time.Millisecond
	fabric := compute.NewFabric(compute.Config{
		Elastic: elastic, MaxNodes: maxNodes, InitNodes: 2, SlotsPer: 4,
		Model: model,
	})
	return core.NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)
}

// Fig7Row is one bar of Figure 7: lineitem load time at a scale factor under
// elastic resources, labeled with the resource factor used.
type Fig7Row struct {
	Label          string  // "1GB", "10GB", ...
	ScaleFactor    float64 // internal SF
	SourceFiles    int
	Rows           int64
	LoadTime       time.Duration // simulated
	ResourceFactor int           // nodes provisioned (the bar label)
}

// Fig7 runs the ingestion-scaling experiment: loading lineitem at
// geometrically growing scale factors on an elastic topology. Paper shape:
// load time grows sub-linearly in data size; the resource factor grows
// super-linearly (1, 3, 26, 240, 2896).
func Fig7(s Scale) []Fig7Row {
	labels := []string{"1GB", "10GB", "100GB", "1TB", "10TB"}
	sfs := []float64{0.01, 0.1, 1, 10, 100}
	var out []Fig7Row
	for i, sf := range sfs {
		sf *= float64(s)
		eng := newEngine(true, 0)
		// TPC-H ships ~40 source files per 100GB and 400 per TB; parallelism
		// is bounded by the source file count (Section 7.1).
		files := int(4 * sfs[i] * float64(s))
		if files < 1 {
			files = 1
		}
		var loadSim time.Duration
		err := eng.AutoCommit(func(tx *core.Txn) error {
			td := workload.THTables()[0]
			if _, err := tx.CreateTable(td.Name, td.Schema, td.DistCol, td.SortCol); err != nil {
				return err
			}
			if _, err := tx.BulkLoad("lineitem", workload.LineitemSources(sf, files)); err != nil {
				return err
			}
			loadSim = tx.SimTime()
			return nil
		})
		if err != nil {
			panic(fmt.Sprintf("bench: fig7 sf=%v: %v", sf, err))
		}
		out = append(out, Fig7Row{
			Label: labels[i], ScaleFactor: sf, SourceFiles: files,
			Rows:     int64(sf * workload.RowsPerSF),
			LoadTime: loadSim, ResourceFactor: eng.Fabric.Provisioned(),
		})
	}
	return out
}

// Fig8Row is one bar pair of Figure 8: load time under a bounded (fixed
// capacity) vs unbounded (elastic) topology.
type Fig8Row struct {
	Label       string
	ScaleFactor float64
	BoundedTime time.Duration
	ElasticTime time.Duration
	BoundedRes  int
	ElasticRes  int
}

// Fig8 compares fixed-capacity and elastic loads at the 1TB and 10TB proxy
// scales. Paper shape: at 1TB the two match; at 10TB the bounded model is far
// slower (2896 vs 304) because capacity is capped.
func Fig8(s Scale) []Fig8Row {
	labels := []string{"1TB", "10TB"}
	sfs := []float64{10, 100}
	const cap1TB = 4 // fixed capacity sized to the 1TB load (previous-gen model)
	var out []Fig8Row
	for i, base := range sfs {
		sf := base * float64(s)
		files := int(4 * base * float64(s))
		if files < 1 {
			files = 1
		}
		row := Fig8Row{Label: labels[i], ScaleFactor: sf}
		for _, elastic := range []bool{false, true} {
			eng := newEngine(elastic, cap1TB)
			var sim time.Duration
			err := eng.AutoCommit(func(tx *core.Txn) error {
				td := workload.THTables()[0]
				if _, err := tx.CreateTable(td.Name, td.Schema, td.DistCol, td.SortCol); err != nil {
					return err
				}
				_, err := tx.BulkLoad("lineitem", workload.LineitemSources(sf, files))
				sim = tx.SimTime()
				return err
			})
			if err != nil {
				panic(fmt.Sprintf("bench: fig8: %v", err))
			}
			if elastic {
				row.ElasticTime, row.ElasticRes = sim, eng.Fabric.Provisioned()
			} else {
				row.BoundedTime, row.BoundedRes = sim, eng.Fabric.Provisioned()
			}
		}
		out = append(out, row)
	}
	return out
}

// Fig9Row is one query of Figure 9: TPC-H query time isolated vs with a
// concurrent (uncommitted) load into the same tables.
type Fig9Row struct {
	Query      int
	Isolated   time.Duration
	Concurrent time.Duration
}

// Fig9 runs the 22-query TPC-H power run twice — isolated, then with a bulk
// insert transaction running concurrently into lineitem, never committing.
// Paper shape: per-query times barely change, because WLM separates the load
// onto write nodes, SI keeps reads consistent, and caches stay warm over
// immutable files.
func Fig9(s Scale) []Fig9Row {
	sf := 0.5 * float64(s)
	eng := newEngine(true, 0)
	if _, err := workload.LoadTPCH(eng, sf, 4); err != nil {
		panic(fmt.Sprintf("bench: fig9 load: %v", err))
	}
	queries := workload.THQueries()

	run := func(concurrent bool) []time.Duration {
		var stopLoad chan struct{}
		var loadDone chan struct{}
		if concurrent {
			stopLoad = make(chan struct{})
			loadDone = make(chan struct{})
			go func() {
				defer close(loadDone)
				// one long uncommitted ingestion transaction (per the paper)
				tx := eng.Begin()
				defer tx.Rollback()
				base := int64(10_000_000)
				for chunk := 0; ; chunk++ {
					select {
					case <-stopLoad:
						return
					default:
					}
					lo := base + int64(chunk)*500
					if _, err := tx.Insert("lineitem", workload.LineitemBatch(lo, lo+500)); err != nil {
						return
					}
				}
			}()
		}
		sess := sql.NewSession(eng)
		defer sess.Close()
		// cold run to warm caches, then measure 3 warm runs (paper 7.2)
		times := make([]time.Duration, len(queries))
		for warm := 0; warm < 4; warm++ {
			for qi, q := range queries {
				res, err := sess.Exec(q)
				if err != nil {
					panic(fmt.Sprintf("bench: fig9 Q%d: %v", qi+1, err))
				}
				if warm > 0 {
					times[qi] += res.SimTime
				}
			}
		}
		for qi := range times {
			times[qi] /= 3
		}
		if concurrent {
			close(stopLoad)
			<-loadDone
		}
		return times
	}

	iso := run(false)
	conc := run(true)
	out := make([]Fig9Row, len(queries))
	for i := range queries {
		out[i] = Fig9Row{Query: i + 1, Isolated: iso[i], Concurrent: conc[i]}
	}
	return out
}

// Fig10Sample is one point of Figure 10's storage-health timeline.
type Fig10Sample struct {
	Phase   string // SU or DM, with ordinal
	Table   string
	Healthy bool
}

// Fig10Result carries the timeline plus compaction activity.
type Fig10Result struct {
	Timeline    []Fig10Sample
	Compactions int
}

// Fig10 runs the WP1-style alternation of Single User and Data Maintenance
// phases with autonomous compaction. Paper shape: DM flips tables to
// unhealthy (red); within the phase the STO compacts; by the next SU phase
// every table is green again.
func Fig10(s Scale) Fig10Result {
	rows := int64(2000 * float64(s))
	// Health here keys on the deleted-row fraction: each DM phase deletes
	// ~28% of rows (6 of 21 residues), crossing the 20% fragmentation
	// threshold exactly as the paper's "files affected by deletes" do; the
	// small-file signal is disabled so the timeline isolates fragmentation.
	eng := newEngineT(true, 0, 0, 0.2)
	if err := workload.LoadDS(eng, rows); err != nil {
		panic(fmt.Sprintf("bench: fig10 load: %v", err))
	}
	orch := sto.New(eng, sto.Config{AutoCompact: true})
	queries := workload.DSQueries(8)
	next := rows * 10
	var res Fig10Result
	sample := func(phase string) {
		for _, h := range orch.SampleHealth() {
			res.Timeline = append(res.Timeline, Fig10Sample{Phase: phase, Table: h.Table, Healthy: h.Healthy})
		}
	}
	const phases = 4
	for p := 0; p < phases; p++ {
		if _, err := workload.RunSU(eng, queries); err != nil {
			panic(err)
		}
		sample(fmt.Sprintf("SU_%d", p+1))
		_, err := workload.RunDM(eng, workload.DMConfig{
			Tables:     workload.DSTableNames()[:3],
			InsertRows: rows / 10, DeleteEvery: 3, NextSK: &next,
			Compact: func(table string) { /* discovery happens via sampling */ },
		})
		if err != nil {
			panic(err)
		}
		sample(fmt.Sprintf("DM_%d", p+1)) // sampling triggers auto-compaction
		sample(fmt.Sprintf("DM_%d+", p+1))
	}
	if _, err := workload.RunSU(eng, queries); err != nil {
		panic(err)
	}
	sample(fmt.Sprintf("SU_%d", phases+1))
	res.Compactions = len(orch.Compactions())
	return res
}

// Fig11Row is one checkpoint lifetime bar of Figure 11.
type Fig11Row struct {
	Table    string
	StartSeq int64
	EndSeq   int64 // 0 = still newest
	Bytes    int64 // the checkpoint file's size
	// Folded manifests, FoldedBytes of them, were committed since the
	// previous checkpoint (or the first manifest the STO saw); LastFolded
	// is the size of the newest.
	Folded      int
	FoldedBytes int64
	LastFolded  int64
}

// Fig11 runs the WP1 longevity pattern: each DM phase issues 2 INSERTs and 6
// DELETEs per table with compaction run twice (after each set of 3
// deletes). The first rewrites the INSERTs' files of mixed cells; the
// second finds no victim (the last 3 deletes fragment no file) and commits
// nothing, so a phase adds 9 manifests per table. The paper checkpoints
// after a count of manifests; here a table is checkpointed once the
// manifests since its last checkpoint weigh as much as that checkpoint (the
// STO's rule, internal/sto), so the checkpoints a phase mints follow the
// bytes its manifests carry, not their number.
func Fig11(s Scale) []Fig11Row {
	eng := newEngine(true, 0)
	rows := int64(2000 * float64(s))
	if err := workload.LoadDS(eng, rows); err != nil {
		panic(fmt.Sprintf("bench: fig11 load: %v", err))
	}
	orch := sto.New(eng, sto.Config{})
	next := rows * 10
	const phases = 3
	for p := 0; p < phases; p++ {
		_, err := workload.RunDM(eng, workload.DMConfig{
			Tables:     workload.DSTableNames(),
			InsertRows: rows / 10, DeleteEvery: 3, NextSK: &next,
			Compact: func(table string) { orch.Compact(table) },
		})
		if err != nil {
			panic(err)
		}
	}
	tx := eng.Begin()
	defer tx.Rollback()
	tables, _ := tx.ListTables()
	nameOf := make(map[int64]string, len(tables))
	for _, m := range tables {
		nameOf[m.ID] = m.Name
	}
	var out []Fig11Row
	for _, cp := range orch.Checkpoints() {
		out = append(out, Fig11Row{
			Table: nameOf[cp.TableID], StartSeq: cp.Seq, EndSeq: cp.EndSeq, Bytes: cp.Bytes,
			Folded: cp.Manifest, FoldedBytes: cp.ManifestBytes, LastFolded: cp.LastManifest,
		})
	}
	return out
}

// Fig12Row is one phase bar of Figure 12: SU duration, with what ran
// concurrently, plus the phase's modeled work and contention counters.
// Durations vary with scheduling; the counters are deterministic functions
// of what each query's snapshot covered, so tests assert on them.
type Fig12Row struct {
	Phase      string
	Concurrent string // "", "DM", "Optimize"
	SUTime     time.Duration
	// WorkRows counts physical rows fetched by scan tasks during the phase
	// (modeled scan work; grows when concurrent writes enlarge snapshots).
	WorkRows int64
	// RemoteBytes counts bytes read from remote storage during the phase —
	// cache misses caused by concurrently committed files.
	RemoteBytes int64
	// Commits counts write transactions committed during the phase (the
	// contention source: 0 in isolated phases).
	Commits int64
}

// Fig12 runs the WP3 concurrency phases: SU alone, SU with interleaved DM,
// SU alone, SU with interleaved storage optimization, SU alone. Paper shape:
// the concurrent phases take longer and do measurably more work because each
// query's fresh snapshot sees newly committed data (cache misses, new
// files), while isolation keeps every query consistent. Write work is woven
// between queries deterministically (workload.RunInterleaved) so the
// counters are reproducible run to run.
func Fig12(s Scale) []Fig12Row {
	eng := newEngine(true, 0)
	rows := int64(3000 * float64(s))
	if err := workload.LoadDS(eng, rows); err != nil {
		panic(fmt.Sprintf("bench: fig12 load: %v", err))
	}
	var commits atomic.Int64
	eng.Subscribe(func(core.CommitEvent) { commits.Add(1) })
	orch := sto.New(eng, sto.Config{})
	remoteBytes := func() int64 {
		var total int64
		for _, n := range eng.Fabric.Nodes() {
			total += n.Stats().BytesFromRemote
		}
		return total
	}
	// Three rounds of the query set per phase: one-time cold costs amortize
	// within a phase, so an isolated phase measures steady state while a
	// concurrent phase stays elevated throughout (its snapshot keeps moving).
	base := workload.DSQueries(10)
	var queries []string
	for r := 0; r < 3; r++ {
		queries = append(queries, base...)
	}
	next := rows * 10
	dmCfg := func() workload.DMConfig {
		return workload.DMConfig{
			Tables:     workload.DSTableNames()[:4],
			InsertRows: rows / 5, DeleteEvery: 3, NextSK: &next,
		}
	}
	// Unrecorded warm-up run so SU_1 measures warm-cache steady state, like
	// the paper's cold run before measurement (7.2).
	if _, err := workload.RunSU(eng, queries); err != nil {
		panic(err)
	}
	var out []Fig12Row

	run := func(phase, concurrent string) {
		rows0, _, _ := eng.Work.Snapshot()
		rb0 := remoteBytes()
		c0 := commits.Load()
		var su workload.PhaseResult
		switch concurrent {
		case "DM":
			var err error
			su, _, err = workload.RunInterleaved(eng, queries, dmCfg())
			if err != nil {
				panic(err)
			}
		case "Optimize":
			// Storage optimization woven between queries deterministically:
			// one table compaction lands before each of the first queries.
			var steps []func() error
			for _, tbl := range workload.DSTableNames() {
				tbl := tbl
				steps = append(steps, func() error { orch.Compact(tbl); return nil })
			}
			var err error
			su, err = workload.RunInterleavedSteps(eng, queries, steps)
			if err != nil {
				panic(err)
			}
		default:
			var err error
			su, err = workload.RunSU(eng, queries)
			if err != nil {
				panic(err)
			}
		}
		rows1, _, _ := eng.Work.Snapshot()
		out = append(out, Fig12Row{
			Phase: phase, Concurrent: concurrent, SUTime: su.SimTime,
			WorkRows:    rows1 - rows0,
			RemoteBytes: remoteBytes() - rb0,
			Commits:     commits.Load() - c0,
		})
	}
	run("SU_1", "")
	run("SU_2", "DM")
	run("SU_3", "")
	run("SU_4", "Optimize")
	run("SU_5", "")
	return out
}

// RenderTable renders rows of "column: value" maps as an aligned text table.
func RenderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

// Ms formats a duration as fractional milliseconds.
func Ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond)) }

// Secs formats a duration as fractional seconds.
func Secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
