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

// CompactTable rewrites low-quality data files (5.1): the files
// manifest.TableState.CompactionVictims picks — every file of mixed cells and
// every fragmented file, and a cell's small files where merging them lowers
// its file count — are read, deleted rows are filtered out, and replacement
// files are written at target size, one set per distribution cell. A mixed
// file's rows are split over the cells by d(r) and merged into those cells'
// outputs, so no mixed file comes out of compaction. The victim rule is the
// health rule (TableState.AssessHealth): a table SHOW STATS calls healthy has
// no victim, and a compaction with none commits nothing. The operation runs
// inside this (ordinarily dedicated) transaction with the same SI semantics
// as user transactions — so it can conflict with concurrent updates, which
// the paper calls out as a known cost.
func (t *Txn) CompactTable(table string) (CompactionResult, error) {
	var res CompactionResult
	if err := t.check(); err != nil {
		return res, err
	}
	state, meta, err := t.Snapshot(table, -1)
	if err != nil {
		return res, err
	}
	opts := t.eng.opts
	victims := state.CompactionVictims(opts.CompactSmallRows, opts.CompactDeletedFrac, opts.RowsPerFile)
	if len(victims) == 0 {
		return res, nil
	}
	res.InputFiles = len(victims)

	// Read the surviving rows of each victim, grouped by cell so the
	// replacement files keep the cell model intact, and remove the victim
	// logically (GC deletes it after retention, 5.1) ...
	node := t.writeNode()
	ts := t.tableState(meta)
	var actions []manifest.Action
	byPartition := make(map[int]*colfile.Batch)
	gather := func(p int, rows *colfile.Batch) {
		if rows.NumRows() == 0 {
			return
		}
		if byPartition[p] == nil {
			byPartition[p] = colfile.NewBatch(meta.Schema)
		}
		byPartition[p].AppendBatch(rows)
	}
	for _, fe := range victims {
		live, err := t.liveRows(node, fe, nil)
		if err != nil {
			return res, err
		}
		res.RowsDropped += fe.Rows - int64(live.NumRows())
		res.RowsKept += int64(live.NumRows())
		if fe.Partition == manifest.MixedCells {
			for p, part := range partitionBatch(live, meta.DistributionCol, t.eng.opts.Distributions) {
				gather(p, part)
			}
		} else {
			gather(fe.Partition, live)
		}
		actions = append(actions, ts.removeFile(fe)...)
	}
	// ... replaced by the compacted files, partitions in ascending order so
	// file numbers and action order do not depend on map order.
	paths := TablePaths{ID: meta.ID}
	n := ts.blockSeq * 100
	for _, p := range sortedKeys(byPartition) {
		sorted, err := sortBatchBy(byPartition[p], meta.SortCol)
		if err != nil {
			return res, err
		}
		written, err := t.eng.writeDataFiles(node, t.charge, t.id, meta, p, sorted, t.eng.opts.RowsPerFile, func(i int) string {
			return fmt.Sprintf("%scompact-%d-p%d-%d.pcf", paths.DataPrefix(), t.id, p, n+i)
		})
		if err != nil {
			return res, err
		}
		n += len(written)
		res.OutputFiles += len(written)
		actions = append(actions, written...)
	}
	t.charge(t.eng.Fabric.Model().CPU(res.RowsKept))

	if err := t.rewriteManifest(ts, paths, actions); err != nil {
		return res, err
	}
	ts.kind = wroteUpdates
	return res, nil
}

// Checkpoint is one checkpoint file CheckpointTable wrote.
type Checkpoint struct {
	Path  string
	Seq   int64 // the newest manifest sequence it folds
	Bytes int64 // the file's size: what a reader decodes
}

// CheckpointTable compacts the manifest list into a checkpoint file (5.2).
// Unlike data compaction it modifies no data files and cannot conflict with
// concurrent user transactions: the Checkpoints row it inserts is keyed by a
// fresh sequence. A table with no manifest yet gets none: Path is empty.
func (t *Txn) CheckpointTable(table string) (Checkpoint, error) {
	if err := t.check(); err != nil {
		return Checkpoint{}, err
	}
	state, meta, err := t.Snapshot(table, -1)
	if err != nil {
		return Checkpoint{}, err
	}
	if state.LastSeq == 0 {
		return Checkpoint{}, nil // nothing to checkpoint
	}
	cp := manifest.BuildCheckpoint(meta.ID, state)
	data := cp.Marshal()
	path := TablePaths{ID: meta.ID}.CheckpointFile(cp.Seq)
	node := t.writeNode()
	d, err := node.WriteFile(t.eng.Store, path, data, t.id)
	if err != nil {
		return Checkpoint{}, err
	}
	t.charge(d)
	if err := catalog.InsertCheckpointRow(t.catTx, catalog.CheckpointRow{
		TableID: meta.ID, Seq: cp.Seq, Path: path,
	}); err != nil {
		return Checkpoint{}, err
	}
	return Checkpoint{Path: path, Seq: cp.Seq, Bytes: int64(len(data))}, nil
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
//
// What a table removed, and when, is read from the Remove actions of its
// Manifests rows: a removal is past retention once the current sequence is
// more than the table's RetentionSeqs beyond its row's. A RESTORE deletes the
// rows after its mark, so what they removed is live again, and a CLONE copies
// the rows, so the clone keeps the source's removal history.
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
	node := tx.anyNode()
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
			// Manifest and checkpoint files referenced by the catalog stay.
			rows, err := catalog.ScanManifests(tx.catTx, id, -1)
			if err != nil {
				return res, err
			}
			ms, err := tx.readManifests(node, rows, manifest.DecodeRemovals)
			if err != nil {
				return res, err
			}
			for _, m := range ms {
				active[m.Path] = true
				removed := active // still within retention
				if currentSeq-m.Seq > meta.RetentionSeqs {
					removed = inactive
				}
				for _, a := range m.Actions {
					removed[a.Path] = true
				}
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
