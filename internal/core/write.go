package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/dcp"
	"polaris/internal/deletevector"
	"polaris/internal/exec"
	"polaris/internal/manifest"
)

// distHash is d(r): the system-defined distribution function mapping a row
// to a bucket (paper 2.3), here by lane i (not NULL) of its distribution
// column v.
//
// The bucket is FNV-1a 32 over the value's text as fmt's %v prints it —
// the decimal integer, the shortest 'g' float, the string itself, true or
// false — formatted from the typed lane, so no value is boxed. Those bytes
// are where every stored row's cell came from; they may not change.
func distHash(v *colfile.Vec, i, buckets int) int {
	var buf [32]byte
	var text []byte
	h := uint32(2166136261)
	switch v.Type {
	case colfile.Int64:
		text = strconv.AppendInt(buf[:0], v.Ints[i], 10)
	case colfile.Float64:
		text = strconv.AppendFloat(buf[:0], v.Floats[i], 'g', -1, 64)
	case colfile.String:
		s := v.Strs[i]
		for j := 0; j < len(s); j++ {
			h = (h ^ uint32(s[j])) * 16777619
		}
	case colfile.Bool:
		text = strconv.AppendBool(buf[:0], v.Bools[i])
	}
	for _, c := range text {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % uint32(buckets))
}

// partitionBatch splits rows by d(r) over the distribution column.
func partitionBatch(b *colfile.Batch, distCol string, buckets int) []*colfile.Batch {
	out := make([]*colfile.Batch, buckets)
	for i := range out {
		out[i] = colfile.NewBatch(b.Schema)
	}
	dc := b.Schema.ColIndex(distCol)
	for r := 0; r < b.NumRows(); r++ {
		p := 0
		if dc >= 0 && !b.Cols[dc].IsNull(r) {
			p = distHash(b.Cols[dc], r, buckets)
		} else if dc < 0 {
			p = r % buckets // round-robin when no distribution column
		}
		for c := range b.Cols {
			out[p].Cols[c].Append(b.Cols[c], r)
		}
	}
	return out
}

// sortBatchBy orders rows by the clustering column p(r) so zone maps are
// selective (the Z-order stand-in).
func sortBatchBy(b *colfile.Batch, col string) (*colfile.Batch, error) {
	c := b.Schema.ColIndex(col)
	if c < 0 || b.NumRows() == 0 {
		return b, nil
	}
	return exec.Collect(&exec.Sort{In: exec.NewBatchSource(b), Keys: []exec.SortKey{{Col: c}}})
}

// writeDataFiles seals rows, already in their final order, as data files of
// at most perFile rows each (0: one file) in RowsPerGroup row groups, the
// table's clustering column recorded in every footer; name(i) is the i-th
// file's path. Each file is written through node and its cost charged to the
// caller, and yields one Add action carrying its sketches. It is the one
// place data files are sealed: INSERT and BULK LOAD tasks (3.2.2),
// copy-on-write DELETE (2.1) and COMPACT (5.1) all call it.
func (e *Engine) writeDataFiles(node *compute.Node, charge func(time.Duration), creator int64, meta catalog.TableMeta, partition int, rows *colfile.Batch, perFile int, name func(i int) string) ([]manifest.Action, error) {
	total := rows.NumRows()
	if perFile <= 0 {
		perFile = total
	}
	var actions []manifest.Action
	for lo := 0; lo < total; lo += perFile {
		hi := min(lo+perFile, total)
		w := colfile.NewWriter(meta.Schema)
		if meta.SortCol != "" {
			w.SetSortedBy(meta.SortCol)
		}
		for g0 := lo; g0 < hi; g0 += e.opts.RowsPerGroup {
			if err := w.WriteBatch(sliceCols(rows, g0, min(g0+e.opts.RowsPerGroup, hi))); err != nil {
				return nil, err
			}
		}
		data, err := w.Finish()
		if err != nil {
			return nil, err
		}
		path := name(len(actions))
		d, err := node.WriteFile(e.Store, path, data, creator)
		if err != nil {
			return nil, err
		}
		charge(d)
		actions = append(actions, manifest.Action{
			Op: manifest.OpAdd, Kind: manifest.KindData, Path: path,
			Rows: int64(hi - lo), Size: int64(len(data)), Partition: partition,
			Sketches: w.Sketches(),
		})
	}
	return actions, nil
}

func sliceCols(b *colfile.Batch, lo, hi int) *colfile.Batch {
	out := &colfile.Batch{Schema: b.Schema, Cols: make([]*colfile.Vec, len(b.Cols))}
	for i, v := range b.Cols {
		out.Cols[i] = v.Slice(lo, hi)
	}
	return out
}

// writeTaskResult is one write task's contribution: its staged manifest
// block plus the pending actions it encodes (3.2.2 step 6).
type writeTaskResult struct {
	blockID string
	actions []manifest.Action
	rows    int64
}

// stageBlock ends a write task: it stages the task's actions as one manifest
// block, its ID unique per writing attempt (3.2.2), and charges the task's
// CPU and the block's upload.
func (e *Engine) stageBlock(ctx *dcp.Ctx, blob, blockID string, actions []manifest.Action) (writeTaskResult, error) {
	res := writeTaskResult{blockID: blockID, actions: actions}
	for _, a := range actions {
		res.rows += a.Rows
	}
	model := e.Fabric.Model()
	ctx.Charge(model.CPU(res.rows))
	payload := manifest.Encode(actions)
	if err := e.Store.StageBlock(blob, blockID, payload); err != nil {
		return res, err
	}
	ctx.Charge(model.RemoteWrite(int64(len(payload))))
	return res, nil
}

// commitWriteJob runs an INSERT or BULK LOAD job and does its FE half
// (3.2.3): the tasks' block IDs are gathered, sorted and committed after the
// blocks earlier statements of this transaction committed to the table's
// manifest blob, and only then do the tasks' actions join the transaction's
// pending state.
func (t *Txn) commitWriteJob(ts *txnTable, g *dcp.Graph, taskIDs []int) (int64, error) {
	// Write jobs run to completion, not under the statement's context: an
	// UPDATE cancelled between its delete half and its insert half would
	// leave an explicit transaction holding the delete alone.
	res, err := t.runJob(context.Background(), g, t.eng.opts.TaskFailureInjector)
	if err != nil {
		return 0, err
	}
	var blocks []string
	var actions []manifest.Action
	var rows int64
	for _, out := range dcp.Gather(res, taskIDs) {
		wr := out.(writeTaskResult)
		blocks = append(blocks, wr.blockID)
		actions = append(actions, wr.actions...)
		rows += wr.rows
	}
	sort.Strings(blocks)
	all := append(append([]string{}, ts.blockIDs...), blocks...)
	if err := t.eng.Store.CommitBlockList(TablePaths{ID: ts.meta.ID}.ManifestFile(t.id), all, t.id); err != nil {
		return 0, err
	}
	t.charge(t.eng.Fabric.Model().RemoteWrite(0))
	ts.blockIDs = all
	ts.actions = append(ts.actions, actions...)
	ts.blockSeq++
	if ts.kind == wroteNothing {
		ts.kind = wroteInserts
	}
	return rows, nil
}

// Insert appends rows to a table. The DML is compiled into one DCP write task
// per non-empty distribution bucket; each task writes private Parquet files
// and stages its manifest block; the FE aggregates block IDs and commits the
// block list, appending to any blocks from prior statements (3.2.2, 3.2.3).
func (t *Txn) Insert(table string, rows *colfile.Batch) (int64, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	meta, err := catalog.LookupTable(t.catTx, table)
	if err != nil {
		return 0, err
	}
	if !rows.Schema.Equal(meta.Schema) {
		return 0, fmt.Errorf("core: insert schema mismatch for %s", table)
	}
	if rows.NumRows() == 0 {
		return 0, nil
	}
	ts := t.tableState(meta)
	eng, txnID := t.eng, t.id
	paths := TablePaths{ID: meta.ID}
	rowsPerFile := eng.opts.RowsPerFile

	g := dcp.NewGraph()
	var taskIDs []int
	fileSeq := ts.blockSeq * 1000 // unique file numbering across statements
	for p, part := range partitionBatch(rows, meta.DistributionCol, eng.opts.Distributions) {
		if part.NumRows() == 0 {
			continue
		}
		base := fileSeq
		fileSeq += (part.NumRows()+rowsPerFile-1)/rowsPerFile + 1
		taskIDs = append(taskIDs, p+1)
		err := g.Add(&dcp.Task{
			ID: p + 1, Name: fmt.Sprintf("insert-%s-p%d", meta.Name, p), Pool: dcp.WritePool,
			Exec: func(ctx *dcp.Ctx) (any, error) {
				sorted, err := sortBatchBy(part, meta.SortCol)
				if err != nil {
					return nil, err
				}
				// Attempt-unique paths: a retried task writes fresh files;
				// the originals become dangling and are GC'd (4.3).
				actions, err := eng.writeDataFiles(ctx.Node, ctx.Charge, txnID, meta, p, sorted, rowsPerFile, func(n int) string {
					return paths.DataFile(txnID, p, base+n*10+ctx.Attempt)
				})
				if err != nil {
					return nil, err
				}
				return eng.stageBlock(ctx, paths.ManifestFile(txnID), fmt.Sprintf("t%d-p%d-a%d", txnID, p, ctx.Attempt), actions)
			},
		})
		if err != nil {
			return 0, err
		}
	}
	return t.commitWriteJob(ts, g, taskIDs)
}

// Delete removes rows matching pred. In merge-on-read mode (the default,
// 4.1.1) deletes generate deletion-vector files for affected data files; if a
// file already carries a DV (committed or from an earlier statement of this
// txn), the new DV is the merge, recorded as Remove(old)+Add(merged) (4.2).
// In copy-on-write mode (2.1) affected files are rewritten without the
// deleted rows. prune is an optional zone-map range pred implies — every row
// satisfying pred has prune.Col in [Lo, Hi] — that lets the row finder skip
// row groups; nil reads them all.
func (t *Txn) Delete(table string, pred exec.Expr, prune *exec.PruneHint) (int64, error) {
	meta, err := t.Table(table)
	if err != nil {
		return 0, err
	}
	// Compile before any IO: an ill-typed predicate is the statement's
	// error whatever the table holds.
	prog, err := exec.Compile(pred, meta.Schema)
	if err != nil {
		return 0, err
	}
	if prog.OutType() != colfile.Bool {
		return 0, fmt.Errorf("core: DELETE predicate is %s, not bool", prog.OutType())
	}
	state, meta, err := t.Snapshot(table, -1)
	if err != nil {
		return 0, err
	}
	// The finder decodes the predicate's columns and nothing else.
	found, err := t.findRows(state, meta, prog, prune, false)
	if err != nil {
		return 0, err
	}
	return t.deleteRows(state, meta, found.ords)
}

// deleteRows deletes the rows the row finder matched — per data file, their
// file-global ordinals — from an already reconstructed snapshot, file by file
// in path order. Merge-on-read writes each file's deletion vector, merged
// with the one the file already carries; copy-on-write rewrites the file
// without the rows (paper 2.1: "deletes the entire data file where rows are
// being updated and replaces it with a new file").
func (t *Txn) deleteRows(state *manifest.TableState, meta catalog.TableMeta, matched map[string][]uint32) (int64, error) {
	if len(matched) == 0 {
		return 0, nil
	}
	ts := t.tableState(meta)
	paths := TablePaths{ID: meta.ID}
	node := t.writeNode()
	var deleted int64
	var newActions []manifest.Action
	n := ts.blockSeq * 100
	for _, path := range sortedKeys(matched) {
		fe := state.Files[path]
		drop := deletevector.FromRows(matched[path])
		if t.eng.opts.Deletes == CopyOnWrite {
			deleted += int64(drop.Cardinality())
			survivors, err := t.liveRows(node, fe, drop)
			if err != nil {
				return 0, err
			}
			newActions = append(newActions, ts.removeFile(fe)...)
			written, err := t.eng.writeDataFiles(node, t.charge, t.id, meta, fe.Partition, survivors, 0, func(int) string {
				return fmt.Sprintf("%scow-%d-%d.pcf", paths.DataPrefix(), t.id, n)
			})
			if err != nil {
				return 0, err
			}
			n += len(written)
			newActions = append(newActions, written...)
			continue
		}
		before := 0
		if fe.DV != "" {
			old, _, d, err := t.eng.readDV(node, fe.DV)
			if err != nil {
				return 0, err
			}
			t.charge(d)
			before = old.Cardinality()
			drop.Union(old)
			newActions = append(newActions, manifest.Action{
				Op: manifest.OpRemove, Kind: manifest.KindDV, Path: fe.DV, Target: path,
			})
		}
		deleted += int64(drop.Cardinality() - before)
		dvPath := paths.DVFile(t.id, n)
		n++
		d, err := node.WriteFile(t.eng.Store, dvPath, drop.Marshal(), t.id)
		if err != nil {
			return 0, err
		}
		t.charge(d)
		newActions = append(newActions, manifest.Action{
			Op: manifest.OpAdd, Kind: manifest.KindDV, Path: dvPath, Target: path,
			DeletedRows: int64(drop.Cardinality()), Partition: fe.Partition,
		})
		ts.touchedFiles[path] = true
	}
	t.charge(t.eng.Fabric.Model().CPU(deleted))
	if err := t.rewriteManifest(ts, paths, newActions); err != nil {
		return 0, err
	}
	ts.kind = wroteUpdates
	return deleted, nil
}

// liveRows reads a data file whole through node and returns the rows that
// survive its deletion vector and drop (nil: the vector alone) — what
// copy-on-write DELETE and COMPACT rewrite. drop is modified.
func (t *Txn) liveRows(node *compute.Node, fe *manifest.FileEntry, drop *deletevector.Vector) (*colfile.Batch, error) {
	sf, _, d, err := t.eng.openLive(node, fe)
	if err != nil {
		return nil, err
	}
	t.charge(d)
	all, err := sf.R.ReadAll()
	if err != nil {
		return nil, err
	}
	switch {
	case drop == nil && sf.DV == nil:
		return all, nil
	case drop == nil:
		drop = sf.DV
	case sf.DV != nil:
		drop.Union(sf.DV)
	}
	return all.Filter(drop.FilterMask(all.NumRows())), nil
}

// removeFile logically removes a data file being rewritten, and its deletion
// vector, and adds the file to the transaction's conflict set.
func (ts *txnTable) removeFile(fe *manifest.FileEntry) []manifest.Action {
	ts.touchedFiles[fe.Path] = true
	actions := []manifest.Action{{Op: manifest.OpRemove, Kind: manifest.KindData, Path: fe.Path}}
	if fe.DV != "" {
		actions = append(actions, manifest.Action{
			Op: manifest.OpRemove, Kind: manifest.KindDV, Path: fe.DV, Target: fe.Path,
		})
	}
	return actions
}

// foundRows is what the row finder reports: per data file, the ascending
// file-global ordinals of its matching live rows; the rows themselves, all
// columns, in the table's global row order (when asked for); and the scan's
// work counters.
type foundRows struct {
	ords map[string][]uint32
	rows *colfile.Batch
	tel  exec.Telemetry
}

// findRows is the row finder behind UPDATE and DELETE: the live rows of a
// snapshot that satisfy pred, found the way SELECT finds them. The snapshot's
// files come through the shared fetch (fetchScanFiles), and each cell runs as
// one exec.Scan with pred pushed into it — deletion-vector-live rows only,
// the predicate's columns decoded first, the rest only for row groups with a
// match — under the caller's zone-map range, so the work follows the rows
// touched rather than the table. Rows a deletion vector already removed are
// never evaluated; a runtime error on a live row is the statement's error.
// Without wide the scan is projected to the predicate's columns (DELETE needs
// ordinals only); with it every column is read and the matching old row
// versions are returned too (UPDATE computes the new versions from them).
func (t *Txn) findRows(state *manifest.TableState, meta catalog.TableMeta, pred *exec.Prog, prune *exec.PruneHint, wide bool) (*foundRows, error) {
	cells, err := t.fetchScanFiles(state, meta)
	if err != nil {
		return nil, err
	}
	found := &foundRows{ords: make(map[string][]uint32)}
	var cols []string // nil = all
	if wide {
		found.rows = colfile.NewBatch(meta.Schema)
	} else {
		idxs := pred.Cols()
		if len(idxs) == 0 {
			idxs = []int{0} // a constant predicate still needs the row counts
		}
		for _, c := range idxs {
			cols = append(cols, meta.Schema[c].Name)
		}
		pred = pred.Narrow()
	}
	for _, cell := range cells {
		s, err := exec.NewScan(cell.opened, cols, prune, &found.tel)
		if err != nil {
			return nil, err
		}
		// A predicate that reads no column (DELETE FROM t, WHERE 1 = 1) is
		// not pushable: it runs in a Filter over every live row instead.
		var op exec.Operator = s
		pushed := s.PushPredicate(pred)
		if !pushed {
			op = &exec.Filter{In: s, Pred: pred}
		}
		for {
			b, err := op.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			file, ords := s.Ordinals()
			if !pushed && b.Sel != nil {
				// The Filter kept some of the scan's dense batch: its
				// selection indexes the rows Ordinals enumerated.
				kept := make([]uint32, len(b.Sel))
				for i, p := range b.Sel {
					kept[i] = ords[p]
				}
				ords = kept
			}
			path := cell.files[file].Path
			found.ords[path] = append(found.ords[path], ords...)
			if wide {
				found.rows.AppendBatch(b)
			}
		}
	}
	return found, nil
}

// rewriteManifest reconciles the transaction's pending actions with a new
// statement's actions and rewrites the manifest blob — the paper's FE-side
// compaction of the aggregated blocks (3.2.3, footnote 3). Reconciliation
// removes Add/Remove pairs that cancel within the transaction (e.g. a DV
// superseded by a later statement's merged DV).
func (t *Txn) rewriteManifest(ts *txnTable, paths TablePaths, newActions []manifest.Action) error {
	combined := reconcileActions(append(append([]manifest.Action{}, ts.actions...), newActions...))
	blob := paths.ManifestFile(t.id)
	blockID := fmt.Sprintf("t%d-rewrite-%d", t.id, ts.blockSeq)
	payload := manifest.Encode(combined)
	if err := t.eng.Store.StageBlock(blob, blockID, payload); err != nil {
		return err
	}
	if err := t.eng.Store.CommitBlockList(blob, []string{blockID}, t.id); err != nil {
		return err
	}
	t.charge(t.eng.Fabric.Model().RemoteWrite(int64(len(payload))))
	ts.actions = combined
	ts.blockIDs = []string{blockID}
	ts.blockSeq++
	return nil
}

// reconcileActions folds a transaction's action log so the final manifest
// carries no information made obsolete by later statements (3.2.3): an Add
// followed by a Remove of the same path cancels both; later DV adds for a
// target supersede earlier ones.
func reconcileActions(actions []manifest.Action) []manifest.Action {
	type slot struct {
		act  manifest.Action
		dead bool
	}
	slots := make([]*slot, 0, len(actions))
	addIdx := make(map[string]*slot) // live Add by path
	dvByTarget := make(map[string]*slot)
	var out []manifest.Action
	for _, a := range actions {
		s := &slot{act: a}
		switch {
		case a.Op == manifest.OpAdd && a.Kind == manifest.KindData:
			addIdx[a.Path] = s
		case a.Op == manifest.OpRemove && a.Kind == manifest.KindData:
			if prev, ok := addIdx[a.Path]; ok && !prev.dead {
				// added and removed within this txn: both vanish
				prev.dead = true
				s.dead = true
				delete(addIdx, a.Path)
				if dv, ok := dvByTarget[a.Path]; ok {
					dv.dead = true
					delete(dvByTarget, a.Path)
				}
			}
		case a.Op == manifest.OpAdd && a.Kind == manifest.KindDV:
			if prev, ok := dvByTarget[a.Target]; ok {
				prev.dead = true
			}
			dvByTarget[a.Target] = s
		case a.Op == manifest.OpRemove && a.Kind == manifest.KindDV:
			if prev, ok := dvByTarget[a.Target]; ok && prev.act.Path == a.Path {
				// this txn's own DV being replaced: drop both halves
				prev.dead = true
				s.dead = true
				delete(dvByTarget, a.Target)
			}
		}
		slots = append(slots, s)
	}
	for _, s := range slots {
		if !s.dead {
			out = append(out, s.act)
		}
	}
	return out
}

// Update rewrites matching rows: per the paper, an update is a deletion of
// the old row versions plus an insertion of the new versions (4.1.1 step 2).
// set maps column names to expressions evaluated over the old rows; prune is
// the optional zone-map range of Delete.
func (t *Txn) Update(table string, pred exec.Expr, set map[string]exec.Expr, prune *exec.PruneHint) (int64, error) {
	meta, err := t.Table(table)
	if err != nil {
		return 0, err
	}
	// In sorted order, the order runUpdate binds them in, so the error names
	// the same column every run.
	for _, col := range sortedKeys(set) {
		if meta.Schema.ColIndex(col) < 0 {
			return 0, fmt.Errorf("core: unknown column %q in UPDATE", col)
		}
	}
	// Compile the predicate and the new-version expressions before any IO.
	predProg, err := exec.Compile(pred, meta.Schema)
	if err != nil {
		return 0, err
	}
	if predProg.OutType() != colfile.Bool {
		// exec.Filter's words, so UPDATE and SELECT reject WHERE k alike —
		// over an empty table too, where no scan would get to say them.
		return 0, fmt.Errorf("exec: predicate yields %s, not bool", predProg.OutType())
	}
	exprs := make([]*exec.Prog, len(meta.Schema))
	for i, f := range meta.Schema {
		var e exec.Expr = exec.ColRef{Idx: i, Name: f.Name}
		if se, ok := set[f.Name]; ok {
			e = se
		}
		if exprs[i], err = exec.Compile(e, meta.Schema); err != nil {
			return 0, err
		}
	}
	state, meta, err := t.Snapshot(table, -1)
	if err != nil {
		return 0, err
	}
	// One pass finds the matching rows' ordinals and their old versions;
	// the new versions are materialized before the old ones are deleted.
	found, err := t.findRows(state, meta, predProg, prune, true)
	if err != nil {
		return 0, err
	}
	if found.rows.NumRows() == 0 {
		return 0, nil
	}
	proj := &exec.Project{In: exec.NewBatchSource(found.rows), Exprs: exprs, Names: fieldNames(meta.Schema)}
	newRows, err := exec.Collect(proj)
	if err != nil {
		return 0, err
	}
	updated, err := adoptSchema(newRows, meta.Schema)
	if err != nil {
		return 0, err
	}
	n, err := t.deleteRows(state, meta, found.ords)
	if err != nil {
		return 0, err
	}
	if _, err := t.Insert(table, updated); err != nil {
		return 0, err
	}
	t.tableState(meta).kind = wroteUpdates // insert reset would mark inserts
	return n, nil
}

// adoptSchema retypes a projected batch as the table's: a column already of
// the table's type is adopted as it is; a mismatched one — a NULL literal is
// typed int64, numeric literals convert — goes value by value through
// AppendValue, with its conversions and its errors.
func adoptSchema(b *colfile.Batch, schema colfile.Schema) (*colfile.Batch, error) {
	out := &colfile.Batch{Schema: schema, Cols: make([]*colfile.Vec, len(schema))}
	for i, v := range b.Cols {
		if v.Type == schema[i].Type {
			out.Cols[i] = v
			continue
		}
		out.Cols[i] = colfile.NewVec(schema[i].Type)
		for r := 0; r < v.Len(); r++ {
			if err := out.Cols[i].AppendValue(v.Value(r)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func fieldNames(s colfile.Schema) []string {
	out := make([]string, len(s))
	for i, f := range s {
		out[i] = f.Name
	}
	return out
}

// SourceFile is one bulk-load input: a generator producing that source file's
// rows. Parallelism of a load is bounded by the number of source files — the
// paper's Fig. 7 bottleneck ("we do not scale out the reading within a
// source file, only across source files").
type SourceFile struct {
	Name string
	// Rows generates the file's batch when the load task runs.
	Rows func() (*colfile.Batch, error)
	// SizeHint drives cost-based resource allocation.
	SizeHint int64
}

// BulkLoad ingests a set of source files into a table: one DCP write task per
// source file, sized by cost-based allocation over the fabric (Section 7.1).
// A task writes one file per distribution cell its source reaches, however
// many rows that is.
func (t *Txn) BulkLoad(table string, sources []SourceFile) (int64, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	meta, err := catalog.LookupTable(t.catTx, table)
	if err != nil {
		return 0, err
	}
	ts := t.tableState(meta)
	eng, txnID := t.eng, t.id
	paths := TablePaths{ID: meta.ID}

	g := dcp.NewGraph()
	var taskIDs []int
	base := ts.blockSeq * 1000
	for i, src := range sources {
		taskIDs = append(taskIDs, i+1)
		err := g.Add(&dcp.Task{
			ID: i + 1, Name: "load-" + src.Name, Pool: dcp.WritePool,
			Exec: func(ctx *dcp.Ctx) (any, error) {
				batch, err := src.Rows()
				if err != nil {
					return nil, err
				}
				if !batch.Schema.Equal(meta.Schema) {
					return nil, fmt.Errorf("core: bulk load schema mismatch for %s (source %s)", meta.Name, src.Name)
				}
				// Simulated read of the source file.
				ctx.Charge(eng.Fabric.Model().RemoteRead(src.SizeHint))
				var actions []manifest.Action
				for p, part := range partitionBatch(batch, meta.DistributionCol, eng.opts.Distributions) {
					sorted, err := sortBatchBy(part, meta.SortCol)
					if err != nil {
						return nil, err
					}
					written, err := eng.writeDataFiles(ctx.Node, ctx.Charge, txnID, meta, p, sorted, 0, func(int) string {
						return paths.DataFile(txnID, p, base+i*100+p*10+ctx.Attempt)
					})
					if err != nil {
						return nil, err
					}
					actions = append(actions, written...)
				}
				return eng.stageBlock(ctx, paths.ManifestFile(txnID), fmt.Sprintf("t%d-s%d-a%d", txnID, i, ctx.Attempt), actions)
			},
		})
		if err != nil {
			return 0, err
		}
	}
	return t.commitWriteJob(ts, g, taskIDs)
}
