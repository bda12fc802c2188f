package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"polaris"
	"polaris/internal/colfile"
	"polaris/internal/core"
	"polaris/internal/sql"
	"polaris/internal/workload"
)

// tpchData is one scale factor's tables, generated once per process by
// internal/workload's fixed generators and loaded into every database a run
// sets up. Generating is the benchmark's own cost, so it stays out of
// setup_s; loading is the system's, so it stays in.
type tpchData struct {
	sf           float64
	lineitem     []*colfile.Batch // one batch per bulk-load source file
	tables       map[string]*colfile.Batch
	userBytes    int64
	lineitemRows int64
	orders       int64 // row count of orders; its keys are 1..orders
}

var dataCache = map[float64]*tpchData{}

func generate(sf float64) *tpchData {
	if d := dataCache[sf]; d != nil {
		return d
	}
	d := &tpchData{sf: sf, tables: map[string]*colfile.Batch{
		"orders":   workload.OrdersBatch(sf),
		"customer": workload.CustomerBatch(sf),
		"supplier": workload.SupplierBatch(sf),
		"part":     workload.PartBatch(sf),
		"nation":   workload.NationBatch(),
	}}
	for _, src := range workload.LineitemSources(sf, lineitemFiles(sf)) {
		// The generator's Rows function cannot fail.
		b, _ := src.Rows()
		d.lineitem = append(d.lineitem, b)
		d.userBytes += userBytes(b)
		d.lineitemRows += int64(b.NumRows())
	}
	for _, b := range d.tables {
		d.userBytes += userBytes(b)
	}
	d.orders = int64(d.tables["orders"].NumRows())
	dataCache[sf] = d
	return d
}

// lineitemFiles is the bulk load's source-file count: TPC-H ships 40 files
// per 100 GB, which internal/workload scales to 4 per unit of scale factor;
// capped so a small table is not cut into files of a few hundred rows.
func lineitemFiles(sf float64) int {
	n := int(sf * 4 / 10)
	if n < 2 {
		n = 2
	}
	return n
}

// userBytes is the size of a batch as the user counts it: 8 bytes per INT or
// FLOAT value, the string's length per VARCHAR value.
func userBytes(b *colfile.Batch) int64 {
	b = b.Materialize()
	var n int64
	for _, v := range b.Cols {
		switch v.Type {
		case colfile.String:
			for _, s := range v.Strs {
				n += int64(len(s))
			}
		default:
			n += 8 * int64(v.Len())
		}
	}
	return n
}

// env is one database set up for a workload.
type env struct {
	db   *polaris.DB
	eng  *core.Engine
	data *tpchData
	// bulkLoad is the time Txn.BulkLoad took for lineitem.
	bulkLoad time.Duration
	// coldPass is the first pass of the workload's statements, on cold node
	// caches.
	coldPass time.Duration
	// loaded holds the store's size and cumulative put bytes right after the
	// load committed.
	loadedSize, loadedPut int64
}

// openLoaded opens a database and loads the TPC-H tables the way
// workload.LoadTPCH does, from the pre-generated batches.
func openLoaded(cfg polaris.Config, d *tpchData) (*env, error) {
	db := polaris.Open(cfg)
	e := &env{db: db, eng: db.Engine(), data: d}
	err := e.eng.AutoCommit(func(tx *core.Txn) error {
		for _, td := range workload.THTables() {
			if _, err := tx.CreateTable(td.Name, td.Schema, td.DistCol, td.SortCol); err != nil {
				return err
			}
		}
		var sources []core.SourceFile
		for i, b := range d.lineitem {
			b := b
			sources = append(sources, core.SourceFile{
				Name:     fmt.Sprintf("lineitem.tbl.%d", i),
				SizeHint: int64(b.NumRows()) * 120,
				Rows:     func() (*colfile.Batch, error) { return b, nil },
			})
		}
		t0 := time.Now()
		if _, err := tx.BulkLoad("lineitem", sources); err != nil {
			return err
		}
		e.bulkLoad = time.Since(t0)
		for _, name := range []string{"orders", "customer", "supplier", "part", "nation"} {
			if _, err := tx.Insert(name, d.tables[name]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("load TPC-H sf %v: %w", d.sf, err)
	}
	e.loadedSize = e.eng.Store.TotalSize()
	e.loadedPut = e.eng.Store.Metrics().BytesWritten
	return e, nil
}

func (e *env) close() { e.db.Close() }

func (e *env) session() *sql.Session { return sql.NewSession(e.eng) }

// counters is every public counter the layers expose, read at one instant.
type counters struct {
	rowsScanned, filesRead, bytesRead                int64
	mergeFreeAggs, topNPushdowns                     int64
	joinSpills, joinSpillBytes, joinSpillPartitions  int64
	pushedFilters, runtimeFilterRows                 int64
	dagTasks, dagRetries, dagStages                  int64
	admQueued, admAdmitted, admRejected, admWaitNs   int64
	puts, gets, lists, deletes, bytesPut, bytesGot   int64
	catBegun, catCommitted, catAborted, catConflicts int64
	snapHits, snapMisses                             int64
	nodeHits, nodeMisses, nodeRemoteBytes            int64
	simNs                                            int64
	totalAlloc, mallocs, gcPauseNs                   uint64
}

// readCounters stops the world for runtime.ReadMemStats, so it is called at
// phase boundaries only.
func readCounters(eng *core.Engine) counters {
	w := &eng.Work
	sm := eng.Store.Metrics()
	cs := eng.Catalog.Stats()
	hits, misses := eng.Cache.Stats()
	c := counters{
		rowsScanned: w.RowsScanned.Load(), filesRead: w.FilesRead.Load(), bytesRead: w.BytesRead.Load(),
		mergeFreeAggs: w.MergeFreeAggs.Load(), topNPushdowns: w.TopNPushdowns.Load(),
		joinSpills: w.JoinSpills.Load(), joinSpillBytes: w.JoinSpillBytes.Load(),
		joinSpillPartitions: w.JoinSpillPartitions.Load(),
		pushedFilters:       w.PushedFilters.Load(), runtimeFilterRows: w.RuntimeFilterRows.Load(),
		dagTasks: w.DagTasks.Load(), dagRetries: w.DagRetries.Load(), dagStages: w.DagStages.Load(),
		admQueued: w.Admission.Queued.Load(), admAdmitted: w.Admission.Admitted.Load(),
		admRejected: w.Admission.Rejected.Load(), admWaitNs: w.Admission.QueueWaitNanos.Load(),
		puts: sm.Puts, gets: sm.Gets, lists: sm.Lists, deletes: sm.Deletes,
		bytesPut: sm.BytesWritten, bytesGot: sm.BytesRead,
		catBegun: cs.Begun, catCommitted: cs.Committed, catAborted: cs.Aborted, catConflicts: cs.WriteConflicts,
		snapHits: hits, snapMisses: misses,
		simNs: int64(eng.SimTotal()),
	}
	for _, n := range eng.Fabric.Nodes() {
		st := n.Stats()
		c.nodeHits += st.MemHits + st.SSDHits
		c.nodeMisses += st.Misses
		c.nodeRemoteBytes += st.BytesFromRemote
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.totalAlloc, c.mallocs, c.gcPauseNs = m.TotalAlloc, m.Mallocs, m.PauseTotalNs
	return c
}

// blobUsage sums the live blobs whose name contains part.
func blobUsage(eng *core.Engine, part string) (blobs, bytes int64) {
	for _, b := range eng.Store.ListInfo("tables/") {
		if strings.Contains(b.Name, part) {
			blobs++
			bytes += b.Size
		}
	}
	return blobs, bytes
}
