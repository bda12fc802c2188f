package core

import (
	"fmt"

	"polaris/internal/catalog"
)

// This file implements the data-lineage features of paper Section 6:
// zero-copy table cloning as of a point in time (6.2) and metadata-only
// restore (6.3). Query As Of (6.1) is Txn.Snapshot's asOfSeq on the read path.

// CloneTable creates a zero-copy clone of source as of asOfSeq (negative =
// now): a new table whose Manifests rows are copies of the source's rows up
// to that sequence, re-keyed under the clone's table ID. No data or physical
// metadata is copied; both tables evolve independently afterwards (6.2).
func (t *Txn) CloneTable(source, cloneName string, asOfSeq int64) (catalog.TableMeta, error) {
	if err := t.check(); err != nil {
		return catalog.TableMeta{}, err
	}
	src, err := catalog.LookupTable(t.catTx, source)
	if err != nil {
		return catalog.TableMeta{}, err
	}
	clone, err := catalog.CreateTable(t.catTx, cloneName, src.Schema, src.DistributionCol, src.SortCol)
	if err != nil {
		return catalog.TableMeta{}, err
	}
	clone.ClonedFrom = src.ID
	clone.RetentionSeqs = src.RetentionSeqs
	if err := catalog.PutTableMeta(t.catTx, clone); err != nil {
		return catalog.TableMeta{}, err
	}
	rows, err := catalog.ScanManifests(t.catTx, src.ID, asOfSeq)
	if err != nil {
		return catalog.TableMeta{}, err
	}
	for _, row := range rows {
		row.TableID = clone.ID
		if err := catalog.InsertManifestRow(t.catTx, row); err != nil {
			return catalog.TableMeta{}, err
		}
	}
	// Checkpoints reference the same immutable files; they can be shared too.
	cps, err := catalog.ListCheckpoints(t.catTx, src.ID)
	if err != nil {
		return catalog.TableMeta{}, err
	}
	for _, cp := range cps {
		if asOfSeq >= 0 && cp.Seq > asOfSeq {
			continue
		}
		cp.TableID = clone.ID
		if err := catalog.InsertCheckpointRow(t.catTx, cp); err != nil {
			return catalog.TableMeta{}, err
		}
	}
	return clone, nil
}

// RestoreTableAsOf rewinds a table to its state at asOfSeq by deleting the
// Manifests (and Checkpoints) rows after that sequence — a logical-metadata-
// only operation (6.3). Files that become unreferenced are reclaimed later by
// garbage collection.
func (t *Txn) RestoreTableAsOf(table string, asOfSeq int64) error {
	if err := t.check(); err != nil {
		return err
	}
	if asOfSeq < 0 {
		return fmt.Errorf("core: restore requires an explicit sequence")
	}
	meta, err := catalog.LookupTable(t.catTx, table)
	if err != nil {
		return err
	}
	rows, err := catalog.ScanManifests(t.catTx, meta.ID, -1)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if row.Seq > asOfSeq {
			if err := catalog.DeleteManifestRow(t.catTx, meta.ID, row.Seq); err != nil {
				return err
			}
		}
	}
	cps, err := catalog.ListCheckpoints(t.catTx, meta.ID)
	if err != nil {
		return err
	}
	for _, cp := range cps {
		if cp.Seq > asOfSeq {
			if err := catalog.DeleteCheckpointRow(t.catTx, meta.ID, cp.Seq); err != nil {
				return err
			}
		}
	}
	// The snapshot cache may hold states newer than the restore point. Drop
	// them when the restore commits, under the commit lock: invalidating any
	// earlier lets a reader with an older snapshot re-Put the pre-restore
	// state before the commit, and the next commit's Advance would extend it.
	t.catTx.DeferWithSeq(func(seq int64) []catalog.KV {
		t.eng.Cache.Rewound(meta.ID, seq)
		return nil
	})
	return nil
}

// LineageTables returns the IDs of all tables sharing lineage with tableID:
// the table itself, its clone ancestors and descendants. Garbage collection
// must process a shared-lineage group atomically (5.3).
func (t *Txn) LineageTables(tableID int64) ([]int64, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	all, err := catalog.ListTables(t.catTx)
	if err != nil {
		return nil, err
	}
	// union-find over ClonedFrom edges
	parent := make(map[int64]int64)
	var find func(x int64) int64
	find = func(x int64) int64 {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b int64) { parent[find(a)] = find(b) }
	for _, m := range all {
		if m.ClonedFrom != 0 {
			union(m.ID, m.ClonedFrom)
		}
	}
	root := find(tableID)
	var out []int64
	for _, m := range all {
		if find(m.ID) == root {
			out = append(out, m.ID)
		}
	}
	if len(out) == 0 {
		out = []int64{tableID}
	}
	return out, nil
}
