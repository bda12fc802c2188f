package core

import (
	"fmt"
	"strings"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/manifest"
)

// This file implements the storage-optimization mechanisms of paper
// Section 5. The System Task Orchestrator (internal/sto) provides the
// triggers and scheduling; the mechanisms run here because they are ordinary
// transactions over the same storage engine.

// CompactionResult reports what a compaction rewrote.
type CompactionResult struct {
	InputFiles  int
	OutputFiles int
	RowsKept    int64
	RowsDropped int64 // deleted rows physically filtered out
}

// CompactTable rewrites low-quality data files (5.1): files below the
// small-rows threshold or above the deleted-fraction threshold are read,
// deleted rows are filtered out, and replacement files are written at target
// size. The operation runs inside this (ordinarily dedicated) transaction
// with the same SI semantics as user transactions — so it can conflict with
// concurrent updates, which the paper calls out as a known cost.
func (t *Txn) CompactTable(table string) (CompactionResult, error) {
	var res CompactionResult
	if err := t.check(); err != nil {
		return res, err
	}
	state, meta, err := t.Snapshot(table, -1)
	if err != nil {
		return res, err
	}
	smallRows := t.eng.opts.CompactSmallRows
	maxFrac := t.eng.opts.CompactDeletedFrac

	var victims []*manifest.FileEntry
	for _, f := range state.LiveFiles() {
		fragmented := f.Rows > 0 && float64(f.DeletedRows)/float64(f.Rows) > maxFrac
		small := f.Rows < smallRows
		if fragmented || small {
			victims = append(victims, f)
		}
	}
	// Compacting a single small healthy file into itself is churn; require
	// either fragmentation or at least two mergeable files.
	if len(victims) == 0 || (len(victims) == 1 && victims[0].DeletedRows == 0) {
		return res, nil
	}
	res.InputFiles = len(victims)

	// Read the surviving rows of each victim, grouped by partition so the
	// replacement files keep the cell model intact.
	node := t.writeNode()
	byPartition := make(map[int]*colfile.Batch)
	for _, fe := range victims {
		sf, _, d, err := t.eng.openLive(node, fe)
		if err != nil {
			return res, err
		}
		t.charge(d)
		all, err := sf.R.ReadAll()
		if err != nil {
			return res, err
		}
		if sf.DV != nil {
			keep := sf.DV.FilterMask(all.NumRows())
			res.RowsDropped += int64(all.NumRows()) - int64(countTrue(keep))
			all = all.Filter(keep)
		}
		dst, ok := byPartition[fe.Partition]
		if !ok {
			dst = colfile.NewBatch(meta.Schema)
			byPartition[fe.Partition] = dst
		}
		dst.AppendBatch(all)
		res.RowsKept += int64(all.NumRows())
	}

	ts := t.tableState(meta)
	paths := TablePaths{ID: meta.ID}
	var actions []manifest.Action
	// Logical removal of the rewritten files (GC deletes them after
	// retention, 5.1) ...
	for _, fe := range victims {
		actions = append(actions, manifest.Action{Op: manifest.OpRemove, Kind: manifest.KindData, Path: fe.Path})
		if fe.DV != "" {
			actions = append(actions, manifest.Action{
				Op: manifest.OpRemove, Kind: manifest.KindDV, Path: fe.DV, Target: fe.Path,
			})
		}
		ts.touchedFiles[fe.Path] = true
	}
	// ... replaced by the compacted files.
	n := ts.blockSeq * 100
	for p, batch := range byPartition {
		if batch.NumRows() == 0 {
			continue
		}
		sorted := sortBatchBy(batch, meta.SortCol)
		for lo := 0; lo < sorted.NumRows(); lo += t.eng.opts.RowsPerFile {
			hi := lo + t.eng.opts.RowsPerFile
			if hi > sorted.NumRows() {
				hi = sorted.NumRows()
			}
			w := colfile.NewWriter(meta.Schema)
			if meta.SortCol != "" {
				w.SetSortedBy(meta.SortCol)
			}
			for g0 := lo; g0 < hi; g0 += t.eng.opts.RowsPerGroup {
				g1 := g0 + t.eng.opts.RowsPerGroup
				if g1 > hi {
					g1 = hi
				}
				if err := w.WriteBatch(sliceCols(sorted, g0, g1)); err != nil {
					return res, err
				}
			}
			data, err := w.Finish()
			if err != nil {
				return res, err
			}
			path := fmt.Sprintf("%scompact-%d-p%d-%d.pcf", paths.DataPrefix(), t.id, p, n)
			n++
			d, err := node.WriteFile(t.eng.Store, path, data, t.id)
			if err != nil {
				return res, err
			}
			t.charge(d)
			actions = append(actions, manifest.Action{
				Op: manifest.OpAdd, Kind: manifest.KindData, Path: path,
				Rows: int64(hi - lo), Size: int64(len(data)), Partition: p,
				Sketches: w.Sketches(),
			})
			res.OutputFiles++
		}
	}
	t.charge(t.eng.Fabric.Model().CPU(res.RowsKept))

	if err := t.rewriteManifest(ts, paths, actions); err != nil {
		return res, err
	}
	ts.kind = wroteUpdates
	return res, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// CheckpointTable compacts the manifest list into a checkpoint file (5.2).
// Unlike data compaction it modifies no data files and cannot conflict with
// concurrent user transactions: the Checkpoints row it inserts is keyed by a
// fresh sequence.
func (t *Txn) CheckpointTable(table string) (string, error) {
	if err := t.check(); err != nil {
		return "", err
	}
	state, meta, err := t.Snapshot(table, -1)
	if err != nil {
		return "", err
	}
	if state.LastSeq == 0 {
		return "", nil // nothing to checkpoint
	}
	cp := manifest.BuildCheckpoint(meta.ID, state)
	data, err := cp.Marshal()
	if err != nil {
		return "", err
	}
	path := TablePaths{ID: meta.ID}.CheckpointFile(cp.Seq)
	node := t.writeNode()
	d, err := node.WriteFile(t.eng.Store, path, data, t.id)
	if err != nil {
		return "", err
	}
	t.charge(d)
	if err := catalog.InsertCheckpointRow(t.catTx, catalog.CheckpointRow{
		TableID: meta.ID, Seq: cp.Seq, Path: path,
	}); err != nil {
		return "", err
	}
	return path, nil
}

// GCResult reports a garbage-collection pass (5.3).
type GCResult struct {
	Scanned        int
	DeletedData    int
	DeletedDV      int
	DeletedOrphans int // files of aborted transactions
	Retained       int
}

// GarbageCollect reclaims unreferenced storage for the lineage group of every
// table (5.3): files logically removed and past retention are deleted; files
// on storage referenced by no manifest are deleted only when their creator
// stamp is below the minimum active transaction ID (they then provably belong
// to aborted transactions); everything else is retained.
func (e *Engine) GarbageCollect() (GCResult, error) {
	var res GCResult
	tx := e.Begin()
	defer tx.Rollback()

	tables, err := catalog.ListTables(tx.catTx)
	if err != nil {
		return res, err
	}
	// Group tables by shared lineage (clones share data files).
	seen := make(map[int64]bool)
	var groups [][]int64
	for _, m := range tables {
		if seen[m.ID] {
			continue
		}
		group, err := tx.LineageTables(m.ID)
		if err != nil {
			return res, err
		}
		for _, id := range group {
			seen[id] = true
		}
		groups = append(groups, group)
	}

	minTxn := e.MinActiveTxnID()
	for _, group := range groups {
		active := make(map[string]bool)
		inactive := make(map[string]bool)
		currentSeq := e.Catalog.CurrentSeq()

		for _, id := range group {
			meta, err := catalog.GetTable(tx.catTx, id)
			if err != nil {
				return res, err
			}
			state, _, err := tx.Snapshot(meta.Name, -1)
			if err != nil {
				return res, err
			}
			for _, f := range state.Files {
				active[f.Path] = true
				if f.DV != "" {
					active[f.DV] = true
				}
			}
			for _, tomb := range state.Tombstones {
				if currentSeq-tomb.RemovedSeq > meta.RetentionSeqs {
					inactive[tomb.Path] = true
				} else {
					active[tomb.Path] = true // still within retention
				}
			}
			// Manifest and checkpoint files referenced by the catalog stay.
			rows, err := catalog.ScanManifests(tx.catTx, id, -1)
			if err != nil {
				return res, err
			}
			for _, row := range rows {
				active[row.ManifestFile] = true
			}
			cps, err := catalog.ListCheckpoints(tx.catTx, id)
			if err != nil {
				return res, err
			}
			for _, cp := range cps {
				active[cp.Path] = true
			}
		}
		// Shared-lineage rule: active wins over inactive.
		for p := range active {
			delete(inactive, p)
		}

		for _, id := range group {
			prefix := fmt.Sprintf("tables/%d/", id)
			for _, info := range e.Store.ListInfo(prefix) {
				res.Scanned++
				switch {
				case active[info.Name]:
					res.Retained++
				case inactive[info.Name]:
					if err := e.deleteEverywhere(info.Name); err != nil {
						return res, err
					}
					if strings.Contains(info.Name, "/dv/") {
						res.DeletedDV++
					} else {
						res.DeletedData++
					}
				case info.CreatorStamp > 0 && info.CreatorStamp < minTxn:
					// Unreferenced and provably from a finished (aborted)
					// transaction.
					if err := e.deleteEverywhere(info.Name); err != nil {
						return res, err
					}
					res.DeletedOrphans++
				default:
					// Could belong to an in-flight transaction: retain.
					res.Retained++
				}
			}
		}
	}
	return res, nil
}

// deleteEverywhere removes a blob and purges node caches.
func (e *Engine) deleteEverywhere(path string) error {
	if err := e.Store.Delete(path); err != nil {
		return err
	}
	for _, n := range e.Fabric.Nodes() {
		n.InvalidateCached(path)
	}
	return nil
}

// PublishDelta renders a committed manifest as a Delta log file in the
// user-visible location (5.4) and returns its path. version is the table's
// Delta log version (commit ordinal).
func (e *Engine) PublishDelta(ev CommitEvent, version int64, state *manifest.TableState) (string, error) {
	body := manifest.ToDeltaLog(manifest.CommittedManifest{
		Seq: ev.Seq, Path: ev.Manifest, Actions: ev.Actions,
	}, ev.TxnID, ev.When.UnixMilli(), state)
	path := fmt.Sprintf("published/%d/%s", ev.TableID, manifest.DeltaLogName(version))
	if err := e.Store.Put(path, body, 0); err != nil {
		return "", err
	}
	return path, nil
}

// PublishIceberg renders a committed snapshot in the Iceberg metadata shape
// (the multi-format converter path the paper plans via Delta UniForm /
// OneTable) and returns the metadata document's path plus the updated
// snapshot chain. The state must be the post-commit state of the table.
func (e *Engine) PublishIceberg(ev CommitEvent, version int64, state *manifest.TableState, prior []manifest.IcebergSnapshot) (string, []manifest.IcebergSnapshot, error) {
	if state == nil {
		return "", prior, fmt.Errorf("core: iceberg publish needs the post-commit state")
	}
	listPath := fmt.Sprintf("published/%d/%s", ev.TableID, manifest.IcebergManifestListName(ev.Seq))
	if err := e.Store.Put(listPath, manifest.ToIcebergManifestList(state), 0); err != nil {
		return "", prior, err
	}
	snaps := append(append([]manifest.IcebergSnapshot{}, prior...), manifest.IcebergSnapshot{
		SnapshotID:       ev.TxnID,
		SequenceNumber:   ev.Seq,
		TimestampMs:      ev.When.UnixMilli(),
		Summary:          map[string]string{"operation": "append"},
		ManifestListPath: listPath,
	})
	location := fmt.Sprintf("published/%d", ev.TableID)
	mdPath := fmt.Sprintf("%s/%s", location, manifest.IcebergMetadataName(version))
	if err := e.Store.Put(mdPath, manifest.ToIcebergMetadata(ev.TableID, location, snaps), 0); err != nil {
		return "", prior, err
	}
	return mdPath, snaps, nil
}

// BackupMark captures a database-wide restore point: the current commit
// sequence, valid for every table (6.3). Backups are metadata-only — the
// immutable files already on storage are the backup.
func (e *Engine) BackupMark() int64 { return e.Catalog.CurrentSeq() }

// RestoreDatabase rewinds every table to its state as of seq in one
// transaction (6.3: periodic metadata snapshots enable "Restore operations
// of any point in time"). Tables created after the mark are dropped; their
// files are reclaimed by the next garbage collection.
func (e *Engine) RestoreDatabase(seq int64) error {
	return e.AutoCommit(func(tx *Txn) error {
		tables, err := catalog.ListTables(tx.catTx)
		if err != nil {
			return err
		}
		for _, m := range tables {
			if m.CreatedSeq > seq {
				rows, err := catalog.ScanManifests(tx.catTx, m.ID, -1)
				if err != nil {
					return err
				}
				if err := catalog.DropTable(tx.catTx, m.Name); err != nil {
					return err
				}
				for _, row := range rows {
					if err := catalog.DeleteManifestRow(tx.catTx, m.ID, row.Seq); err != nil {
						return err
					}
				}
				e.Cache.Invalidate(m.ID)
				continue
			}
			if err := tx.RestoreTableAsOf(m.Name, seq); err != nil {
				return err
			}
		}
		return nil
	})
}
