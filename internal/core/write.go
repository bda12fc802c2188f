package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/dcp"
	"polaris/internal/deletevector"
	"polaris/internal/exec"
	"polaris/internal/manifest"
)

// DistHash is d(r): the system-defined distribution function mapping a row
// to a bucket (paper 2.3). Exported because the SQL planner reuses it to
// cell-align grace-join spill partitions with the table's storage cells —
// one implementation, so the alignment cannot drift from the write path.
func DistHash(v any, buckets int) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%v", v)
	return int(h.Sum32() % uint32(buckets))
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
			p = DistHash(b.Cols[dc].Value(r), buckets)
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
func sortBatchBy(b *colfile.Batch, col string) *colfile.Batch {
	c := b.Schema.ColIndex(col)
	if c < 0 || b.NumRows() == 0 {
		return b
	}
	srt := &exec.Sort{In: exec.NewBatchSource(b), Keys: []exec.SortKey{{Col: c}}}
	out, err := exec.Collect(srt)
	if err != nil {
		return b
	}
	return out
}

// writeTaskResult is one write task's contribution: staged manifest block IDs
// plus the pending actions they encode (3.2.2 step 6).
type writeTaskResult struct {
	blockIDs []string
	actions  []manifest.Action
	rows     int64
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
	parts := partitionBatch(rows, meta.DistributionCol, t.eng.opts.Distributions)

	g := dcp.NewGraph()
	paths := TablePaths{ID: meta.ID}
	manifestBlob := paths.ManifestFile(t.id)
	store := t.eng.Store
	model := t.eng.Fabric.Model()
	rowsPerFile := t.eng.opts.RowsPerFile
	rowsPerGroup := t.eng.opts.RowsPerGroup
	sortCol := meta.SortCol
	txnID := t.id

	var taskIDs []int
	fileSeq := ts.blockSeq * 1000 // unique file numbering across statements
	for p, part := range parts {
		if part.NumRows() == 0 {
			continue
		}
		p, part := p, part
		base := fileSeq
		fileSeq += (part.NumRows()+rowsPerFile-1)/rowsPerFile + 1
		id := p + 1
		taskIDs = append(taskIDs, id)
		err := g.Add(&dcp.Task{
			ID: id, Name: fmt.Sprintf("insert-%s-p%d", meta.Name, p), Pool: dcp.WritePool,
			Exec: func(ctx *dcp.Ctx) (any, error) {
				sorted := sortBatchBy(part, sortCol)
				var res writeTaskResult
				n := 0
				for lo := 0; lo < sorted.NumRows(); lo += rowsPerFile {
					hi := lo + rowsPerFile
					if hi > sorted.NumRows() {
						hi = sorted.NumRows()
					}
					w := colfile.NewWriter(sorted.Schema)
					if sortCol != "" {
						w.SetSortedBy(sortCol)
					}
					for g0 := lo; g0 < hi; g0 += rowsPerGroup {
						g1 := g0 + rowsPerGroup
						if g1 > hi {
							g1 = hi
						}
						if err := w.WriteBatch(sliceCols(sorted, g0, g1)); err != nil {
							return nil, err
						}
					}
					data, err := w.Finish()
					if err != nil {
						return nil, err
					}
					// Attempt-unique path: a retried task writes fresh files;
					// the originals become dangling and are GC'd (4.3).
					path := paths.DataFile(txnID, p, base+n*10+ctx.Attempt)
					d, err := ctx.Node.WriteFile(store, path, data, txnID)
					if err != nil {
						return nil, err
					}
					ctx.Charge(d)
					res.actions = append(res.actions, manifest.Action{
						Op: manifest.OpAdd, Kind: manifest.KindData, Path: path,
						Rows: int64(hi - lo), Size: int64(len(data)), Partition: p,
						Sketches: w.Sketches(),
					})
					res.rows += int64(hi - lo)
					n++
				}
				ctx.Charge(model.CPU(res.rows))
				// Stage this task's manifest block (3.2.2: block ID unique
				// per writing BE attempt).
				blockID := fmt.Sprintf("t%d-p%d-a%d", txnID, p, ctx.Attempt)
				payload := manifest.Encode(res.actions)
				if err := store.StageBlock(manifestBlob, blockID, payload); err != nil {
					return nil, err
				}
				ctx.Charge(model.RemoteWrite(int64(len(payload))))
				res.blockIDs = []string{blockID}
				return res, nil
			},
		})
		if err != nil {
			return 0, err
		}
	}

	nodes, delay := t.eng.Fabric.AllocateForJob(len(taskIDs))
	res, err := dcp.Run(g, t.eng.pools(nodes), dcp.Options{
		MaxAttempts:     t.eng.opts.MaxTaskAttempts,
		Overhead:        model.TaskOverhead,
		StartOffset:     delay,
		FailureInjector: t.eng.opts.TaskFailureInjector,
	})
	if err != nil {
		return 0, err
	}
	t.charge(res.Makespan)

	// FE: aggregate block IDs from all tasks and commit the manifest blob,
	// appending to blocks committed by prior statements of this txn.
	var newBlocks []string
	var newActions []manifest.Action
	var inserted int64
	for _, out := range dcp.Gather(res, taskIDs) {
		wr := out.(writeTaskResult)
		newBlocks = append(newBlocks, wr.blockIDs...)
		newActions = append(newActions, wr.actions...)
		inserted += wr.rows
	}
	sort.Strings(newBlocks)
	all := append(append([]string{}, ts.blockIDs...), newBlocks...)
	if err := store.CommitBlockList(manifestBlob, all, t.id); err != nil {
		return 0, err
	}
	t.charge(model.RemoteWrite(0))
	ts.blockIDs = all
	ts.actions = append(ts.actions, newActions...)
	ts.blockSeq++
	if ts.kind == wroteNothing {
		ts.kind = wroteInserts
	}
	return inserted, nil
}

func sliceCols(b *colfile.Batch, lo, hi int) *colfile.Batch {
	out := &colfile.Batch{Schema: b.Schema, Cols: make([]*colfile.Vec, len(b.Cols))}
	for i, v := range b.Cols {
		out.Cols[i] = v.Slice(lo, hi)
	}
	return out
}

// Delete removes rows matching pred. In merge-on-read mode (the default,
// 4.1.1) deletes generate deletion-vector files for affected data files; if a
// file already carries a DV (committed or from an earlier statement of this
// txn), the new DV is the merge, recorded as Remove(old)+Add(merged) (4.2).
// In copy-on-write mode (2.1) affected files are rewritten without the
// deleted rows.
func (t *Txn) Delete(table string, pred exec.Expr) (int64, error) {
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
	return t.deleteMatching(state, meta, prog)
}

// deleteMatching is Delete over an already reconstructed snapshot and an
// already compiled boolean predicate (Update shares both with its scan).
func (t *Txn) deleteMatching(state *manifest.TableState, meta catalog.TableMeta, pred *exec.Prog) (int64, error) {
	ts := t.tableState(meta)
	matched, err := t.matchRows(state, pred)
	if err != nil {
		return 0, err
	}
	if len(matched) == 0 {
		return 0, nil
	}
	if t.eng.opts.Deletes == CopyOnWrite {
		return t.deleteCopyOnWrite(state, meta, ts, matched)
	}

	paths := TablePaths{ID: meta.ID}
	model := t.eng.Fabric.Model()
	node := t.writeNode()
	var deleted int64
	var newActions []manifest.Action
	n := ts.blockSeq * 100
	files := make([]string, 0, len(matched))
	for f := range matched {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, path := range files {
		rows := matched[path]
		fe := state.Files[path]
		merged := deletevector.FromRows(rows)
		if fe.DV != "" {
			oldData, d, err := node.ReadFile(t.eng.Store, fe.DV)
			if err != nil {
				return 0, fmt.Errorf("core: read dv %s: %w", fe.DV, err)
			}
			t.charge(d)
			old, err := deletevector.Unmarshal(oldData)
			if err != nil {
				return 0, fmt.Errorf("core: corrupt dv %s: %w", fe.DV, err)
			}
			before := old.Cardinality()
			merged.Union(old)
			deleted += int64(merged.Cardinality() - before)
			newActions = append(newActions, manifest.Action{
				Op: manifest.OpRemove, Kind: manifest.KindDV, Path: fe.DV, Target: path,
			})
		} else {
			deleted += int64(merged.Cardinality())
		}
		dvPath := paths.DVFile(t.id, n)
		n++
		data := merged.Marshal()
		d, err := node.WriteFile(t.eng.Store, dvPath, data, t.id)
		if err != nil {
			return 0, err
		}
		t.charge(d)
		newActions = append(newActions, manifest.Action{
			Op: manifest.OpAdd, Kind: manifest.KindDV, Path: dvPath, Target: path,
			DeletedRows: int64(merged.Cardinality()), Partition: fe.Partition,
		})
		ts.touchedFiles[path] = true
	}
	t.charge(model.CPU(deleted))

	if err := t.rewriteManifest(ts, paths, newActions); err != nil {
		return 0, err
	}
	ts.kind = wroteUpdates
	return deleted, nil
}

// deleteCopyOnWrite rewrites every affected data file without the matched
// rows (paper 2.1: "deletes the entire data file where rows are being updated
// and replaces it with a new file").
func (t *Txn) deleteCopyOnWrite(state *manifest.TableState, meta catalog.TableMeta, ts *txnTable, matched map[string][]uint32) (int64, error) {
	paths := TablePaths{ID: meta.ID}
	node := t.writeNode()
	model := t.eng.Fabric.Model()
	var deleted int64
	var newActions []manifest.Action
	n := ts.blockSeq * 100
	files := make([]string, 0, len(matched))
	for f := range matched {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, path := range files {
		fe := state.Files[path]
		data, d, err := node.ReadFile(t.eng.Store, path)
		if err != nil {
			return 0, err
		}
		t.charge(d)
		r, err := colfile.OpenReader(data)
		if err != nil {
			return 0, err
		}
		all, err := r.ReadAll()
		if err != nil {
			return 0, err
		}
		drop := deletevector.FromRows(matched[path])
		deleted += int64(drop.Cardinality())
		if fe.DV != "" {
			dvData, dd, err := node.ReadFile(t.eng.Store, fe.DV)
			if err != nil {
				return 0, err
			}
			t.charge(dd)
			old, err := deletevector.Unmarshal(dvData)
			if err != nil {
				return 0, err
			}
			drop.Union(old)
		}
		survivors := all.Filter(drop.FilterMask(all.NumRows()))
		newActions = append(newActions, manifest.Action{
			Op: manifest.OpRemove, Kind: manifest.KindData, Path: path,
		})
		if fe.DV != "" {
			newActions = append(newActions, manifest.Action{
				Op: manifest.OpRemove, Kind: manifest.KindDV, Path: fe.DV, Target: path,
			})
		}
		ts.touchedFiles[path] = true
		if survivors.NumRows() > 0 {
			w := colfile.NewWriter(meta.Schema)
			if meta.SortCol != "" {
				w.SetSortedBy(meta.SortCol)
			}
			for g0 := 0; g0 < survivors.NumRows(); g0 += t.eng.opts.RowsPerGroup {
				g1 := g0 + t.eng.opts.RowsPerGroup
				if g1 > survivors.NumRows() {
					g1 = survivors.NumRows()
				}
				if err := w.WriteBatch(sliceCols(survivors, g0, g1)); err != nil {
					return 0, err
				}
			}
			out, err := w.Finish()
			if err != nil {
				return 0, err
			}
			newPath := fmt.Sprintf("%scow-%d-%d.pcf", paths.DataPrefix(), t.id, n)
			n++
			d, err := node.WriteFile(t.eng.Store, newPath, out, t.id)
			if err != nil {
				return 0, err
			}
			t.charge(d)
			newActions = append(newActions, manifest.Action{
				Op: manifest.OpAdd, Kind: manifest.KindData, Path: newPath,
				Rows: int64(survivors.NumRows()), Size: int64(len(out)), Partition: fe.Partition,
				Sketches: w.Sketches(),
			})
		}
	}
	t.charge(model.CPU(deleted))
	if err := t.rewriteManifest(ts, paths, newActions); err != nil {
		return 0, err
	}
	ts.kind = wroteUpdates
	return deleted, nil
}

// matchRows evaluates pred over each live file and returns, per file, the
// matching row ordinals (file-global, DV-adjusted rows excluded). One EvalCtx
// serves the whole statement, so kernel scratch is reused across row groups.
// Row groups are read dense (no Sel), so row i is lane i of the result.
func (t *Txn) matchRows(state *manifest.TableState, pred *exec.Prog) (map[string][]uint32, error) {
	ctx := pred.NewCtx()
	out := make(map[string][]uint32)
	node := t.writeNode()
	for _, fe := range state.LiveFiles() {
		data, d, err := node.ReadFile(t.eng.Store, fe.Path)
		if err != nil {
			return nil, err
		}
		t.charge(d)
		r, err := colfile.OpenReader(data)
		if err != nil {
			return nil, err
		}
		var dv *deletevector.Vector
		if fe.DV != "" {
			dvData, dd, err := node.ReadFile(t.eng.Store, fe.DV)
			if err != nil {
				return nil, err
			}
			t.charge(dd)
			dv, err = deletevector.Unmarshal(dvData)
			if err != nil {
				return nil, err
			}
		}
		base := uint32(0)
		for g := 0; g < r.NumRowGroups(); g++ {
			batch, err := r.ReadRowGroup(g, nil)
			if err != nil {
				return nil, err
			}
			pv, err := pred.Run(ctx, batch)
			if err != nil {
				return nil, err
			}
			for i := 0; i < batch.NumRows(); i++ {
				ord := base + uint32(i)
				if dv != nil && dv.Contains(ord) {
					continue // already deleted
				}
				if !pv.IsNull(i) && pv.Bools[i] {
					out[fe.Path] = append(out[fe.Path], ord)
				}
			}
			base += uint32(batch.NumRows())
		}
		t.charge(t.eng.Fabric.Model().CPU(int64(r.NumRows())))
	}
	return out, nil
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
// set maps column names to expressions evaluated over the old rows.
func (t *Txn) Update(table string, pred exec.Expr, set map[string]exec.Expr) (int64, error) {
	meta, err := t.Table(table)
	if err != nil {
		return 0, err
	}
	for col := range set {
		if meta.Schema.ColIndex(col) < 0 {
			return 0, fmt.Errorf("core: unknown column %q in UPDATE", col)
		}
	}
	// Compile the predicate and the new-version expressions before any IO;
	// the scan below and the delete step share the one compiled predicate.
	predProg, err := exec.Compile(pred, meta.Schema)
	if err != nil {
		return 0, err
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
	// Materialize the new versions of matching rows before deleting them.
	op, _, err := t.scanState(state, meta, ScanOptions{})
	if err != nil {
		return 0, err
	}
	matching, err := exec.Collect(&exec.Filter{In: op, Pred: predProg})
	if err != nil {
		return 0, err
	}
	if matching.NumRows() == 0 {
		return 0, nil
	}
	updated := colfile.NewBatch(meta.Schema)
	proj := &exec.Project{In: exec.NewBatchSource(matching), Exprs: exprs, Names: fieldNames(meta.Schema)}
	newRows, err := exec.Collect(proj)
	if err != nil {
		return 0, err
	}
	// Project loses exact schema names/types match; rebuild as table schema.
	for r := 0; r < newRows.NumRows(); r++ {
		if err := updated.AppendRow(newRows.Row(r)...); err != nil {
			return 0, err
		}
	}
	n, err := t.deleteMatching(state, meta, predProg)
	if err != nil {
		return 0, err
	}
	if _, err := t.Insert(table, updated); err != nil {
		return 0, err
	}
	t.tableState(meta).kind = wroteUpdates // insert reset would mark inserts
	return n, nil
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
func (t *Txn) BulkLoad(table string, sources []SourceFile) (int64, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	meta, err := catalog.LookupTable(t.catTx, table)
	if err != nil {
		return 0, err
	}
	ts := t.tableState(meta)
	paths := TablePaths{ID: meta.ID}
	manifestBlob := paths.ManifestFile(t.id)
	store := t.eng.Store
	model := t.eng.Fabric.Model()
	rowsPerGroup := t.eng.opts.RowsPerGroup
	txnID := t.id
	distributions := t.eng.opts.Distributions
	sortCol := meta.SortCol
	distCol := meta.DistributionCol

	g := dcp.NewGraph()
	var taskIDs []int
	base := ts.blockSeq * 1000
	for i, src := range sources {
		i, src := i, src
		id := i + 1
		taskIDs = append(taskIDs, id)
		err := g.Add(&dcp.Task{
			ID: id, Name: "load-" + src.Name, Pool: dcp.WritePool,
			Exec: func(ctx *dcp.Ctx) (any, error) {
				batch, err := src.Rows()
				if err != nil {
					return nil, err
				}
				// Simulated read of the source file.
				ctx.Charge(model.RemoteRead(src.SizeHint))
				var res writeTaskResult
				parts := partitionBatch(batch, distCol, distributions)
				for p, part := range parts {
					if part.NumRows() == 0 {
						continue
					}
					sorted := sortBatchBy(part, sortCol)
					w := colfile.NewWriter(sorted.Schema)
					if sortCol != "" {
						w.SetSortedBy(sortCol)
					}
					for g0 := 0; g0 < sorted.NumRows(); g0 += rowsPerGroup {
						g1 := g0 + rowsPerGroup
						if g1 > sorted.NumRows() {
							g1 = sorted.NumRows()
						}
						if err := w.WriteBatch(sliceCols(sorted, g0, g1)); err != nil {
							return nil, err
						}
					}
					data, err := w.Finish()
					if err != nil {
						return nil, err
					}
					path := paths.DataFile(txnID, p, base+i*100+p*10+ctx.Attempt)
					d, err := ctx.Node.WriteFile(store, path, data, txnID)
					if err != nil {
						return nil, err
					}
					ctx.Charge(d)
					res.actions = append(res.actions, manifest.Action{
						Op: manifest.OpAdd, Kind: manifest.KindData, Path: path,
						Rows: int64(sorted.NumRows()), Size: int64(len(data)), Partition: p,
						Sketches: w.Sketches(),
					})
					res.rows += int64(sorted.NumRows())
				}
				ctx.Charge(model.CPU(res.rows))
				blockID := fmt.Sprintf("t%d-s%d-a%d", txnID, i, ctx.Attempt)
				payload := manifest.Encode(res.actions)
				if err := store.StageBlock(manifestBlob, blockID, payload); err != nil {
					return nil, err
				}
				ctx.Charge(model.RemoteWrite(int64(len(payload))))
				res.blockIDs = []string{blockID}
				return res, nil
			},
		})
		if err != nil {
			return 0, err
		}
	}

	nodes, delay := t.eng.Fabric.AllocateForJob(len(sources))
	res, err := dcp.Run(g, t.eng.pools(nodes), dcp.Options{
		MaxAttempts:     t.eng.opts.MaxTaskAttempts,
		Overhead:        model.TaskOverhead,
		StartOffset:     delay,
		FailureInjector: t.eng.opts.TaskFailureInjector,
	})
	if err != nil {
		return 0, err
	}
	t.charge(res.Makespan)

	var newBlocks []string
	var loaded int64
	for _, out := range dcp.Gather(res, taskIDs) {
		wr := out.(writeTaskResult)
		newBlocks = append(newBlocks, wr.blockIDs...)
		ts.actions = append(ts.actions, wr.actions...)
		loaded += wr.rows
	}
	sort.Strings(newBlocks)
	all := append(append([]string{}, ts.blockIDs...), newBlocks...)
	if err := store.CommitBlockList(manifestBlob, all, t.id); err != nil {
		return 0, err
	}
	ts.blockIDs = all
	ts.blockSeq++
	if ts.kind == wroteNothing {
		ts.kind = wroteInserts
	}
	return loaded, nil
}
