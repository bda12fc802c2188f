package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/dcp"
	"polaris/internal/deletevector"
	"polaris/internal/exec"
	"polaris/internal/manifest"
	"polaris/internal/objectstore"
)

// Snapshot reconstructs the table state visible to this transaction
// (paper 3.2.1, 4.1.1): the Manifests rows visible under catalog SI, replayed
// over the newest usable checkpoint, overlaid with the transaction's own
// pending changes. asOfSeq >= 0 time-travels to that commit sequence
// (Query As Of, 6.1). The state may be shared with other readers: callers
// must not write it.
func (t *Txn) Snapshot(table string, asOfSeq int64) (*manifest.TableState, catalog.TableMeta, error) {
	if err := t.check(); err != nil {
		return nil, catalog.TableMeta{}, err
	}
	meta, err := catalog.LookupTable(t.catTx, table)
	if err != nil {
		return nil, catalog.TableMeta{}, err
	}
	state, err := t.reconstruct(meta, asOfSeq)
	if err != nil {
		return nil, catalog.TableMeta{}, err
	}
	// Multi-statement overlay: changes of prior statements in this txn are
	// visible to subsequent statements (3.2.3).
	if ts, ok := t.tables[meta.ID]; ok && len(ts.actions) > 0 && asOfSeq < 0 {
		state, err = state.Overlay(ts.actions)
		if err != nil {
			return nil, catalog.TableMeta{}, err
		}
	}
	return state, meta, nil
}

// reconstruct builds the committed snapshot of a table as of asOfSeq
// (negative = transaction snapshot). The state is shared with the snapshot
// cache and every other reader of that sequence: callers never write it.
//
// The warm path reads one catalog row: the newest visible Manifests row names
// the sequence wanted, and the snapshot cache holds the table's newest state.
// Only a miss lists the table's Manifests rows and looks up its checkpoint.
func (t *Txn) reconstruct(meta catalog.TableMeta, asOfSeq int64) (*manifest.TableState, error) {
	wantSeq, err := catalog.LatestManifestSeq(t.catTx, meta.ID, asOfSeq)
	if err != nil {
		return nil, err
	}
	if cached := t.eng.Cache.Get(meta.ID, wantSeq); cached != nil {
		return cached, nil
	}
	rows, err := catalog.ScanManifests(t.catTx, meta.ID, wantSeq)
	if err != nil {
		return nil, err
	}

	// Checkpoint: load the newest checkpoint at or below the snapshot (5.2).
	var cp *manifest.Checkpoint
	cpRow, ok, err := catalog.LatestCheckpoint(t.catTx, meta.ID, wantSeq)
	if err != nil {
		return nil, err
	}
	node := t.anyNode()
	if ok {
		data, d, err := node.ReadFile(t.eng.Store, cpRow.Path)
		if err == nil {
			t.charge(d)
			cp, err = manifest.UnmarshalCheckpoint(data)
			if err != nil {
				return nil, fmt.Errorf("core: corrupt checkpoint %s: %w", cpRow.Path, err)
			}
		}
		// A missing checkpoint file is not fatal: fall back to full replay.
	}

	// Replay manifests after the checkpoint.
	if cp != nil {
		rows = slices.DeleteFunc(rows, func(row catalog.ManifestRow) bool { return row.Seq <= cp.Seq })
	}
	committed, err := t.readManifests(node, rows, manifest.Decode)
	if err != nil {
		return nil, err
	}
	state, err := manifest.Reconstruct(cp, committed, wantSeq)
	if err != nil {
		return nil, err
	}
	// The only write to a replayed state outside its replay, made before Put
	// publishes it.
	if state.LastSeq < wantSeq {
		state.LastSeq = wantSeq // empty-manifest commits still advance
	}
	t.eng.Cache.Put(meta.ID, state)
	return state, nil
}

// readManifests reads the manifests of rows, in row order, and decodes each
// with decode: manifest.Decode for the input of a replay, and
// manifest.DecodeRemovals for the record of every file a table removed that
// garbage collection reads.
func (t *Txn) readManifests(node *compute.Node, rows []catalog.ManifestRow, decode func([]byte) ([]manifest.Action, error)) ([]manifest.CommittedManifest, error) {
	out := make([]manifest.CommittedManifest, 0, len(rows))
	for _, row := range rows {
		data, d, err := node.ReadFile(t.eng.Store, row.ManifestFile)
		if err != nil {
			return nil, fmt.Errorf("core: read manifest %s: %w", row.ManifestFile, err)
		}
		t.charge(d)
		actions, err := decode(data)
		if err != nil {
			return nil, fmt.Errorf("core: decode manifest %s: %w", row.ManifestFile, err)
		}
		out = append(out, manifest.CommittedManifest{Seq: row.Seq, Path: row.ManifestFile, Actions: actions})
	}
	return out, nil
}

// anyNode picks a live node for FE-side metadata IO (read pool side).
func (t *Txn) anyNode() *compute.Node {
	nodes := t.eng.Fabric.Nodes()
	if len(nodes) == 0 {
		nodes, _ = t.eng.Fabric.AllocateForJob(1)
	}
	return nodes[0]
}

// writeNode picks a node from the WLM write pool for FE-coordinated writes
// (deletion vectors, compaction output, checkpoints), so maintenance IO lands
// on write nodes and read-pool caches stay representative (paper 4.3).
func (t *Txn) writeNode() *compute.Node {
	nodes := t.eng.Fabric.Nodes()
	if len(nodes) == 0 {
		nodes, _ = t.eng.Fabric.AllocateForJob(1)
	}
	if t.eng.opts.WLMSeparate && len(nodes) >= 2 {
		return nodes[len(nodes)/2]
	}
	return nodes[0]
}

// cellFiles holds one scan task's inputs: the files of a disjoint set of
// cells (a distribution bucket). After the fetch phase, opened[i] is files[i]
// opened for scanning.
type cellFiles struct {
	files  []*manifest.FileEntry
	opened []exec.ScanFile
}

// partitionCells groups a snapshot's live files into per-distribution cell
// sets, the disjoint task inputs of the paper's data model (2.3). A file of
// mixed cells (manifest.MixedCells) belongs to no cell: such files are dealt
// round-robin, in path order, over the same distributions sets, so a read
// never runs more fetch tasks than there are cells.
func partitionCells(state *manifest.TableState, distributions int) []cellFiles {
	cells := make([]cellFiles, distributions)
	mixed := 0
	for _, f := range state.LiveFiles() {
		p := f.Partition
		if p == manifest.MixedCells {
			p = mixed % distributions
			mixed++
		}
		cells[p%distributions].files = append(cells[p%distributions].files, f)
	}
	return cells
}

// fetchScanFiles runs the distributed fetch phase of a read: one DCP task
// per non-empty cell set pulls that cell's data and deletion-vector files
// through the node cache hierarchy, charging simulated IO and CPU plus the
// engine-wide modeled work counters. It runs under the statement's context
// ctx, so a cancelled statement abandons the cells not yet started. Cell file
// lists are returned in cell order, which fixes the global row order every
// downstream packaging preserves; empty cells are dropped.
func (t *Txn) fetchScanFiles(ctx context.Context, state *manifest.TableState, meta catalog.TableMeta) ([]cellFiles, error) {
	eng := t.eng
	model := t.eng.Fabric.Model()
	var cells []cellFiles
	var tasks []*dcp.Task
	for i, cell := range partitionCells(state, t.eng.opts.Distributions) {
		if len(cell.files) == 0 {
			continue
		}
		cells = append(cells, cell)
		tasks = append(tasks, &dcp.Task{
			ID: i + 1, Name: fmt.Sprintf("scan-%s-cell%d", meta.Name, i), Pool: dcp.ReadPool,
			Exec: func(ctx *dcp.Ctx) (any, error) {
				var out fetchOut
				for _, fe := range cell.files {
					sf, n, d, err := eng.openLive(ctx.Node, fe)
					if err != nil {
						return nil, err
					}
					ctx.Charge(d)
					out.files = append(out.files, sf)
					// Merge-on-read scans pay for physical rows: deleted
					// rows are read and filtered out at scan time (2.1).
					out.rows += fe.Rows
					out.bytes += n
				}
				ctx.Charge(model.CPU(out.rows)) // per-cell scan CPU
				return out, nil
			},
		})
	}

	if len(tasks) == 0 {
		return nil, nil
	}

	outs, err := t.runJob(ctx, tasks)
	if err != nil {
		return nil, err
	}
	// Counted from the winning attempts only: a retried cell reads its files
	// again, but the statement scanned them once.
	work := &t.eng.Work
	for i, o := range outs {
		out := o.(fetchOut)
		cells[i].opened = out.files
		work.RowsScanned.Add(out.rows)
		work.FilesRead.Add(int64(len(out.files)))
		work.BytesRead.Add(out.bytes)
	}
	return cells, nil
}

// fetchOut is one fetch task's output: its cell's opened files and the rows
// and bytes it read.
type fetchOut struct {
	files       []exec.ScanFile
	rows, bytes int64
}

// openLive opens one live data file and its deletion vector (nil when it has
// none) through node's cache hierarchy: the file comes back as the reader the
// node keeps beside its cached bytes. It returns the bytes read — file plus
// vector — and the simulated time the reads take.
func (e *Engine) openLive(node *compute.Node, fe *manifest.FileEntry) (sf exec.ScanFile, bytes int64, d time.Duration, err error) {
	if sf.R, d, err = node.OpenFile(e.Store, fe.Path); err != nil {
		return exec.ScanFile{}, 0, 0, err
	}
	bytes = sf.R.Size()
	if fe.DV != "" {
		dv, n, dd, err := e.readDV(node, fe.DV)
		if err != nil {
			return exec.ScanFile{}, 0, 0, err
		}
		sf.DV, bytes, d = dv, bytes+n, d+dd
	}
	return sf, bytes, d, nil
}

// readDV reads one deletion-vector file through node's cache, returning it
// decoded — the vector the node keeps beside its cached bytes, shared and
// never written — with its size and the simulated time of the read.
func (e *Engine) readDV(node *compute.Node, path string) (*deletevector.Vector, int64, time.Duration, error) {
	dv, n, d, err := node.OpenDV(e.Store, path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: read dv %s: %w", path, err)
	}
	return dv, n, d, nil
}

// MorselScan is the input of a morsel-parallel table read: the snapshot's
// live files fetched through the fabric — one fetch task per distribution
// cell, the one place a read still follows d(r) — split into morsels whose
// in-order concatenation equals the table's global row order (see Morsels:
// a Parallelism-sized split, or one morsel of every file), plus the table schema
// and Tel, a thread-safe scan sink the morsels' scans may share (rows and
// bytes read, row groups pruned). SELECT passes none to its scans, and
// nothing turns it into simulated CPU.
type MorselScan struct {
	Morsels []exec.Morsel
	Schema  colfile.Schema
	Tel     *exec.Telemetry
}

// Morsels fetches the live files of an already-resolved snapshot (see
// Snapshot) — the one fetch every read shares — and packages them as morsels;
// column projection and zone-map pruning are applied by the caller when it
// builds the per-morsel scans. want > 0 asks for about that many morsels
// (typically a small multiple of the worker count, so the queue
// load-balances) sized by rows — consecutive small files packed together,
// large files split by row group (exec.SplitMorsels) — and none for an empty
// table. want <= 0 asks for exactly one morsel holding every file in table
// order (empty for an empty table) — the input of a consumer that drains the
// table whole, such as a join build. The fetch runs under ctx.
func (t *Txn) Morsels(ctx context.Context, state *manifest.TableState, meta catalog.TableMeta, want int) (*MorselScan, error) {
	cells, err := t.fetchScanFiles(ctx, state, meta)
	if err != nil {
		return nil, err
	}
	var flat []exec.ScanFile
	for _, cell := range cells {
		flat = append(flat, cell.opened...)
	}
	ms := &MorselScan{Schema: meta.Schema, Tel: &exec.Telemetry{}}
	if want <= 0 {
		ms.Morsels = []exec.Morsel{{Files: flat}}
	} else {
		ms.Morsels = exec.SplitMorsels(flat, want)
	}
	return ms, nil
}

// ScanMorsels resolves a table snapshot and fetches it as about want morsels
// (see Morsels), so a caller can fan them out over a worker pool. asOfSeq
// time-travels the read (0 or negative = current snapshot).
func (t *Txn) ScanMorsels(table string, asOfSeq int64, want int) (*MorselScan, error) {
	if asOfSeq == 0 {
		asOfSeq = -1
	}
	state, meta, err := t.Snapshot(table, asOfSeq)
	if err != nil {
		return nil, err
	}
	if want < 1 {
		want = 1
	}
	//polaris:ctx harness entry point: benchmarks fetch a whole table with no statement behind it
	return t.Morsels(context.Background(), state, meta, want)
}

// Parallelism returns the engine's configured intra-query parallelism target.
func (t *Txn) Parallelism() int { return t.eng.opts.Parallelism }

// NewSpillDir allocates a fresh query-scoped spill namespace in the object
// store for a grace-spilling join. The caller owns cleanup: spill files are
// transient query state, deleted when the statement finishes (on success and
// on error alike).
func (t *Txn) NewSpillDir() *objectstore.SpillDir {
	t.eng.mu.Lock()
	t.eng.nextSpillID++
	n := t.eng.nextSpillID
	t.eng.mu.Unlock()
	return objectstore.NewSpillDir(t.eng.Store, fmt.Sprintf("t%d-q%d", t.id, n))
}

// Work exposes the engine-wide modeled-work counters to the query layer.
func (t *Txn) Work() *WorkStats { return &t.eng.Work }

// LeaseDOP reserves up to want worker slots on the fabric for this query's
// morsel workers, returning the granted degree of parallelism and a release
// function (safe to call more than once).
func (t *Txn) LeaseDOP(want int) (int, func()) {
	lease := t.eng.Fabric.LeaseSlots(want)
	return lease.Granted(), lease.Release
}

// TableStats summarizes a table snapshot for the STO and for SHOW commands.
type TableStats struct {
	Name       string
	TableID    int64
	Files      int
	Rows       int64
	Deleted    int64
	SizeBytes  int64
	Manifests  int
	LastSeq    int64
	Health     manifest.Health
	SnapshotAt time.Time
}

// Stats reports storage statistics for a table (the coarse statistics the BE
// pushes to the STO in Section 5.1).
func (t *Txn) Stats(table string) (TableStats, error) {
	state, meta, err := t.Snapshot(table, -1)
	if err != nil {
		return TableStats{}, err
	}
	rows, err := catalog.ScanManifests(t.catTx, meta.ID, -1)
	if err != nil {
		return TableStats{}, err
	}
	opts := t.eng.opts
	h := state.AssessHealth(opts.CompactSmallRows, opts.CompactDeletedFrac, opts.RowsPerFile)
	return TableStats{
		Name: meta.Name, TableID: meta.ID,
		Files: h.NumFiles, Rows: h.TotalRows - h.DeletedRows, Deleted: h.DeletedRows,
		SizeBytes: state.TotalSize(), Manifests: len(rows), LastSeq: state.LastSeq,
		//polaris:nondet SnapshotAt is the wall-clock time the statistics were taken, reported to the caller and never written to storage
		Health: h, SnapshotAt: time.Now(),
	}, nil
}
