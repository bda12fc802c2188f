package core

import (
	"fmt"
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
// (Query As Of, 6.1).
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
// (negative = transaction snapshot).
func (t *Txn) reconstruct(meta catalog.TableMeta, asOfSeq int64) (*manifest.TableState, error) {
	rows, err := catalog.ScanManifests(t.catTx, meta.ID, asOfSeq)
	if err != nil {
		return nil, err
	}
	wantSeq := int64(0)
	if len(rows) > 0 {
		wantSeq = rows[len(rows)-1].Seq
	}
	// Snapshot cache: exact state for this sequence may already be cached.
	if cached := t.eng.Cache.Get(meta.ID, wantSeq); cached != nil {
		return cached, nil
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
	var committed []manifest.CommittedManifest
	for _, row := range rows {
		if cp != nil && row.Seq <= cp.Seq {
			continue
		}
		data, d, err := node.ReadFile(t.eng.Store, row.ManifestFile)
		if err != nil {
			return nil, fmt.Errorf("core: read manifest %s: %w", row.ManifestFile, err)
		}
		t.charge(d)
		actions, err := manifest.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("core: decode manifest %s: %w", row.ManifestFile, err)
		}
		committed = append(committed, manifest.CommittedManifest{
			Seq: row.Seq, Path: row.ManifestFile, Actions: actions,
		})
	}
	state, err := manifest.Reconstruct(cp, committed, wantSeq)
	if err != nil {
		return nil, err
	}
	if state.LastSeq < wantSeq {
		state.LastSeq = wantSeq // empty-manifest commits still advance
	}
	t.eng.Cache.Put(meta.ID, state)
	return state, nil
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
// sets, the disjoint task inputs of the paper's data model (2.3).
func partitionCells(state *manifest.TableState, distributions int) []cellFiles {
	cells := make([]cellFiles, distributions)
	for _, f := range state.LiveFiles() {
		p := f.Partition % distributions
		if p < 0 {
			p += distributions
		}
		cells[p].files = append(cells[p].files, f)
	}
	return cells
}

// ScanOptions tune a table scan.
type ScanOptions struct {
	// Columns projects the scan; nil reads all columns.
	Columns []string
	// AsOfSeq time-travels the read; negative = current snapshot.
	AsOfSeq int64
	// Prune optionally skips row groups via zone maps.
	Prune *exec.PruneHint
}

// Scan executes a distributed read of a table and returns an operator
// streaming the visible rows in the table's global row order: one scan over
// the snapshot's files (see Morsels).
func (t *Txn) Scan(table string, opts ScanOptions) (exec.Operator, *exec.Telemetry, error) {
	if opts.AsOfSeq == 0 {
		opts.AsOfSeq = -1
	}
	state, meta, err := t.Snapshot(table, opts.AsOfSeq)
	if err != nil {
		return nil, nil, err
	}
	return t.scanState(state, meta, opts)
}

func (t *Txn) scanState(state *manifest.TableState, meta catalog.TableMeta, opts ScanOptions) (exec.Operator, *exec.Telemetry, error) {
	ms, err := t.Morsels(state, meta, 0)
	if err != nil {
		return nil, nil, err
	}
	s, err := exec.NewMorselScan(ms.Morsels[0], opts.Columns, opts.Prune, ms.Tel)
	if err != nil {
		return nil, nil, err
	}
	if err := s.SetSchema(meta.Schema); err != nil {
		return nil, nil, err
	}
	return s, ms.Tel, nil
}

// fetchScanFiles runs the distributed fetch phase of a read: one DCP task
// per non-empty cell set pulls that cell's data and deletion-vector files
// through the node cache hierarchy, charging simulated IO and CPU plus the
// engine-wide modeled work counters. It runs under the statement's context,
// so a cancelled statement abandons the cells not yet started. Cell file
// lists are returned in cell order, which fixes the global row order every
// downstream packaging preserves; empty cells are dropped.
func (t *Txn) fetchScanFiles(state *manifest.TableState, meta catalog.TableMeta) ([]cellFiles, error) {
	g := dcp.NewGraph()
	eng := t.eng
	model := t.eng.Fabric.Model()
	work := &t.eng.Work
	var cells []cellFiles
	var taskIDs []int
	for i, cell := range partitionCells(state, t.eng.opts.Distributions) {
		if len(cell.files) == 0 {
			continue
		}
		cell := cell
		id := i + 1
		cells = append(cells, cell)
		taskIDs = append(taskIDs, id)
		err := g.Add(&dcp.Task{
			ID: id, Name: fmt.Sprintf("scan-%s-cell%d", meta.Name, i), Pool: dcp.ReadPool,
			Exec: func(ctx *dcp.Ctx) (any, error) {
				var files []exec.ScanFile
				var rows, bytes int64
				for _, fe := range cell.files {
					sf, n, d, err := eng.openLive(ctx.Node, fe)
					if err != nil {
						return nil, err
					}
					ctx.Charge(d)
					files = append(files, sf)
					// Merge-on-read scans pay for physical rows: deleted
					// rows are read and filtered out at scan time (2.1).
					rows += fe.Rows
					bytes += n
				}
				ctx.Charge(model.CPU(rows)) // per-cell scan CPU
				work.RowsScanned.Add(rows)
				work.FilesRead.Add(int64(len(files)))
				work.BytesRead.Add(bytes)
				return files, nil
			},
		})
		if err != nil {
			return nil, err
		}
	}

	if len(taskIDs) == 0 {
		return nil, nil
	}

	res, err := t.runJob(t.Context(), g, t.eng.opts.TaskFailureInjector)
	if err != nil {
		return nil, err
	}
	for i, o := range dcp.Gather(res, taskIDs) {
		cells[i].opened = o.([]exec.ScanFile)
	}
	return cells, nil
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

// readDV reads and decodes one deletion-vector file through node's cache,
// returning its size and the simulated time of the read.
func (e *Engine) readDV(node *compute.Node, path string) (*deletevector.Vector, int64, time.Duration, error) {
	data, d, err := node.ReadFile(e.Store, path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: read dv %s: %w", path, err)
	}
	dv, err := deletevector.Unmarshal(data)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: corrupt dv %s: %w", path, err)
	}
	return dv, int64(len(data)), d, nil
}

// MorselScan is the input of a morsel-parallel table read: the snapshot's
// live files fetched through the fabric — one fetch task per distribution
// cell, the one place a read still follows d(r) — split into morsels whose
// in-order concatenation equals the table's global row order (see Morsels:
// a Parallelism-sized split, or one morsel of every file), plus the table schema
// and Tel, a thread-safe scan sink the morsels' scans may share (rows and
// bytes read, row groups pruned). Txn.Scan hands it to its callers; SELECT
// passes none, and nothing turns it into simulated CPU.
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
// load-balances): one per file, large files further split by row group, and
// none for an empty table. want <= 0 asks for exactly one morsel holding every
// file in table order (empty for an empty table) — the input of a consumer
// that drains the table whole, a join build or Scan.
func (t *Txn) Morsels(state *manifest.TableState, meta catalog.TableMeta, want int) (*MorselScan, error) {
	cells, err := t.fetchScanFiles(state, meta)
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
	return t.Morsels(state, meta, want)
}

// Parallelism returns the engine's configured intra-query parallelism target.
func (t *Txn) Parallelism() int { return t.eng.opts.Parallelism }

// JoinMemoryBudget returns the hash-join build-side memory budget in bytes
// for this transaction: the per-transaction override when one was set (see
// SetJoinMemoryBudget), the engine-wide configuration otherwise (0 or
// negative = unlimited, never spill).
func (t *Txn) JoinMemoryBudget() int64 {
	if t.joinBudget != nil {
		return *t.joinBudget
	}
	return t.eng.opts.JoinMemoryBudget
}

// SetJoinMemoryBudget overrides the engine-wide JoinMemoryBudget for this
// transaction only — the hook a serving front end uses to give each session
// its own memory budget (0 or negative = unlimited). Call before the
// statement's joins start draining their build sides.
func (t *Txn) SetJoinMemoryBudget(b int64) { t.joinBudget = &b }

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
// function (safe to call more than once). When the front end has adopted an
// admission-granted lease onto the transaction (AdoptLease), that grant is
// returned instead — capped at want — and the release is a no-op because
// the admission layer owns the lease's lifetime.
func (t *Txn) LeaseDOP(want int) (int, func()) {
	if t.adoptedDOP > 0 {
		n := t.adoptedDOP
		if want > 0 && n > want {
			n = want
		}
		return n, func() {}
	}
	lease := t.eng.Fabric.LeaseSlots(want)
	return lease.Granted(), lease.Release
}

// AdoptLease hands the transaction a worker-slot count that an admission
// controller already leased from the fabric for the current statement;
// LeaseDOP will return it instead of leasing again (avoiding the double
// accounting of an admission slot plus an executor slot for one statement).
// The caller keeps ownership of the underlying lease and must clear the
// adoption (ClearAdoptedLease) before releasing it.
func (t *Txn) AdoptLease(granted int) {
	if granted > 0 {
		t.adoptedDOP = granted
	}
}

// ClearAdoptedLease detaches the admission-granted slot count set by
// AdoptLease, returning the transaction to direct fabric leasing.
func (t *Txn) ClearAdoptedLease() { t.adoptedDOP = 0 }

// ReadAll is a convenience that scans a table and materializes all rows.
func (t *Txn) ReadAll(table string) (*ResultSet, error) {
	op, _, err := t.Scan(table, ScanOptions{})
	if err != nil {
		return nil, err
	}
	b, err := exec.Collect(op)
	if err != nil {
		return nil, err
	}
	return &ResultSet{Batch: b}, nil
}

// ResultSet is a materialized query result.
type ResultSet struct {
	Batch *colfile.Batch
}

// NumRows returns the number of rows in the result.
func (r *ResultSet) NumRows() int { return r.Batch.NumRows() }

// Row materializes row i as Go values.
func (r *ResultSet) Row(i int) []any { return r.Batch.Row(i) }

// Columns returns the result column names.
func (r *ResultSet) Columns() []string {
	out := make([]string, len(r.Batch.Schema))
	for i, f := range r.Batch.Schema {
		out[i] = f.Name
	}
	return out
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
	h := state.AssessHealth(t.eng.opts.CompactSmallRows, t.eng.opts.CompactDeletedFrac)
	var deleted int64
	for _, f := range state.Files {
		deleted += f.DeletedRows
	}
	return TableStats{
		Name: meta.Name, TableID: meta.ID,
		Files: len(state.Files), Rows: state.TotalRows(), Deleted: deleted,
		SizeBytes: state.TotalSize(), Manifests: len(rows), LastSeq: state.LastSeq,
		//polaris:nondet SnapshotAt is the wall-clock time the statistics were taken, reported to the caller and never written to storage
		Health: h, SnapshotAt: time.Now(),
	}, nil
}
