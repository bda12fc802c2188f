package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	ibench "polaris/internal/bench"
	"polaris/internal/colfile"
	"polaris/internal/exec"
	"polaris/internal/sql"
)

// The rungs time each layer beneath a statement on its own, bottom up,
// against the store state the workload left behind: objectstore get, colfile
// decode / encode / spill codec, core snapshot and scan, the exec operators
// (on internal/bench's fixed 1M-row dataset), the planner, and last the
// STO's vacuum. They run after the measured phase and after its counters
// have been read, so they move no counter-based metric.

// rungTables are the tables the storage rungs read: the two every workload
// queries and the two the write workloads change.
var rungTables = []string{"lineitem", "orders"}

func runRungs(e *env, r *result, tr *tracer, stmts []string, scale float64) {
	root := tr.begin("rungs", -1, tr.request())
	defer tr.end(root)
	// timed runs fn inside a span and returns how long it took.
	timed := func(name string, fn func() error) time.Duration {
		sp := tr.begin(name, root, 0)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		tr.end(sp)
		r.check(err == nil, "rung %s: %v", name, err)
		return d
	}

	storageRungs(e, r, timed)
	execRungs(r, timed, scale)
	planRung(e, r, timed, stmts)

	d := timed("sto.vacuum", func() error {
		_, err := e.db.Orchestrator().GarbageCollect()
		return err
	})
	r.set("sto.vacuum_ms", ms(d), 1)
}

type timedFn func(name string, fn func() error) time.Duration

func storageRungs(e *env, r *result, timed timedFn) {
	// Live data blobs of the rung tables, in a fixed order.
	var paths []string
	ids := make(map[string]int64)
	tx := e.eng.Begin()
	for _, table := range rungTables {
		state, meta, err := tx.Snapshot(table, -1)
		if err != nil {
			r.check(false, "rung snapshot %s: %v", table, err)
			continue
		}
		ids[table] = meta.ID
		for _, f := range state.LiveFiles() {
			paths = append(paths, f.Path)
		}
	}
	tx.Rollback()
	sort.Strings(paths)

	var (
		blobs [][]byte
		size  int64
	)
	d := timed("objectstore.get", func() error {
		for _, p := range paths {
			data, err := e.eng.Store.Get(p)
			if err != nil {
				return err
			}
			blobs = append(blobs, data)
			size += int64(len(data))
		}
		return nil
	})
	r.set("objectstore.get_ns_per_mb", ratio(float64(d), float64(size)/(1<<20)), len(paths))

	var (
		files [][]*colfile.Batch
		rows  int64
	)
	d = timed("colfile.decode", func() error {
		for _, data := range blobs {
			rd, err := colfile.OpenReader(data)
			if err != nil {
				return err
			}
			var groups []*colfile.Batch
			for g := 0; g < rd.NumRowGroups(); g++ {
				b, err := rd.ReadRowGroup(g, nil)
				if err != nil {
					return err
				}
				groups = append(groups, b)
				rows += int64(b.NumRows())
			}
			files = append(files, groups)
		}
		return nil
	})
	r.set("colfile.decode_ns_per_row", nsPer(d, rows), int(rows))

	d = timed("colfile.encode", func() error {
		for _, groups := range files {
			if len(groups) == 0 {
				continue
			}
			w := colfile.NewWriter(groups[0].Schema)
			for _, b := range groups {
				if err := w.WriteBatch(b); err != nil {
					return err
				}
			}
			if _, err := w.Finish(); err != nil {
				return err
			}
		}
		return nil
	})
	r.set("colfile.encode_ns_per_row", nsPer(d, rows), int(rows))

	d = timed("colfile.spill_codec", func() error {
		for _, groups := range files {
			for _, b := range groups {
				data, err := colfile.MarshalBatch(b)
				if err != nil {
					return err
				}
				if _, err := colfile.UnmarshalBatch(data); err != nil {
					return err
				}
			}
		}
		return nil
	})
	r.set("colfile.spill_codec_ns_per_row", nsPer(d, rows), int(rows))

	// Txn.Snapshot with the engine's snapshot cache warm, then after
	// Cache.Invalidate, which is what every statement after a commit pays.
	const warmCalls, coldCalls = 1000, 5
	snapshot := func(calls int, invalidate bool) func() error {
		return func() error {
			for i := 0; i < calls; i++ {
				for _, table := range rungTables {
					if invalidate {
						e.eng.Cache.Invalidate(ids[table])
					}
					tx := e.eng.Begin()
					_, _, err := tx.Snapshot(table, -1)
					tx.Rollback()
					if err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	d = timed("core.snapshot_warm", snapshot(warmCalls, false))
	r.set("core.snapshot_warm_us", usPer(d, warmCalls*len(rungTables)), warmCalls*len(rungTables))
	d = timed("core.snapshot_cold", snapshot(coldCalls, true))
	r.set("core.snapshot_cold_ms", ms(d)/float64(coldCalls*len(rungTables)), coldCalls*len(rungTables))

	dop := runtime.GOMAXPROCS(0)
	var scanned int64
	d = timed("core.scan", func() error {
		tx := e.eng.Begin()
		defer tx.Rollback()
		for _, table := range rungTables {
			scan, err := tx.ScanMorsels(table, -1, dop*4)
			if err != nil {
				return err
			}
			batches, err := exec.RunMorsels(scan.Morsels, dop, func(m exec.Morsel) (exec.Operator, error) {
				return exec.NewMorselScan(m, nil, nil, scan.Tel)
			})
			if err != nil {
				return err
			}
			for _, b := range batches {
				if b != nil {
					scanned += int64(b.NumRows())
				}
			}
		}
		return nil
	})
	r.set("core.scan_ns_per_row", nsPer(d, scanned), int(scanned))
}

// execRungs times internal/bench's operator pipelines at DOP = GOMAXPROCS,
// over the share of its dataset's files that scale asks for.
func execRungs(r *result, timed timedFn, scale float64) {
	files, rows, err := ibench.MicroFiles()
	if err != nil {
		r.check(false, "exec rungs: %v", err)
		return
	}
	n := int(math.Ceil(scale * float64(len(files))))
	rows = rows * int64(n) / int64(len(files))
	files = files[:n]
	table, err := ibench.ParallelJoinTable()
	if err != nil {
		r.check(false, "exec rungs: %v", err)
		return
	}
	dop := runtime.GOMAXPROCS(0)
	// Each rung reports the fastest of a few repetitions, fewer for the two
	// that take a few hundred milliseconds.
	rungs := []struct {
		name string
		reps int
		fn   func(dop int) error
	}{
		{"exec.scan_agg", 3, func(dop int) error { _, err := ibench.ParallelScanAggregate(files, dop); return err }},
		{"exec.join_probe", 3, func(dop int) error { _, err := ibench.ParallelJoinProbe(files, table, dop); return err }},
		{"exec.sort", 2, func(dop int) error { _, err := ibench.ParallelSort(files, dop); return err }},
		{"exec.topn", 3, func(dop int) error { _, err := ibench.ParallelTopN(files, dop); return err }},
		{"exec.join_spill", 2, func(dop int) error { _, err := ibench.ParallelJoinSpill(files, dop); return err }},
	}
	var parallel time.Duration
	for i, rg := range rungs {
		rg := rg
		best := timed(rg.name, func() error { return rg.fn(dop) })
		for rep := 1; rep < rg.reps; rep++ {
			if d := timed(rg.name, func() error { return rg.fn(dop) }); d < best {
				best = d
			}
		}
		r.set(rg.name+"_ns_per_row", nsPer(best, rows), int(rows))
		if i == 0 {
			parallel = best
		}
	}
	// A DOP-scaling ratio means nothing on one core, so none is taken there.
	if dop > 1 {
		serial := timed("exec.scan_agg_dop1", func() error { return rungs[0].fn(1) })
		r.dopScaling = ratio(float64(serial), float64(parallel))
	}
}

// planRung times the planner alone: EXPLAIN of every SELECT the workload
// issues, already parsed.
func planRung(e *env, r *result, timed timedFn, stmts []string) {
	const reps = 5
	var plans []sql.Statement
	for _, text := range stmts {
		st, err := sql.Parse(text)
		if err != nil {
			r.check(false, "plan rung: %v", err)
			continue
		}
		if sel, ok := st.(*sql.SelectStmt); ok {
			plans = append(plans, &sql.ExplainStmt{Query: sel})
		}
	}
	sess := e.session()
	defer sess.Close()
	d := timed("sql.plan", func() error {
		for i := 0; i < reps; i++ {
			for _, st := range plans {
				if _, err := sess.ExecParsed(st); err != nil {
					return err
				}
			}
		}
		return nil
	})
	r.set("sql.plan_us_per_stmt", usPer(d, reps*len(plans)), reps*len(plans))
}
