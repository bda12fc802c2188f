package catalog

import (
	"errors"
	"fmt"
	"sort"

	"polaris/internal/colfile"
)

// This file implements the typed system tables from paper Figure 4 — the
// Manifests and WriteSets tables that Polaris adds to the SQL DB catalog —
// plus the Checkpoints table (Section 5.2) and the logical metadata for
// database objects (tables and their schemas).

// Key layout (all rows live in the MVCC store, so every access is SI):
//
//	meta/name/<name>                -> int64 table id
//	meta/id/<id>                    -> TableMeta
//	manifests/<id>/<seq>            -> ManifestRow
//	writesets/t/<id>                -> WriteSetRow   (table granularity)
//	writesets/f/<id>/<datafile>     -> WriteSetRow   (file granularity, 4.4.1)
//	checkpoints/<id>/<seq>          -> CheckpointRow
//	counters/tableid                -> int64 next table id

// ManifestRow is one row of the Manifests table: a committed transaction's
// manifest file for one table (Figure 4).
type ManifestRow struct {
	TableID      int64
	ManifestFile string
	Seq          int64 // logical commit sequence
	TxnID        int64 // durable transaction identifier (GC of aborted txns)
}

// WriteSetRow is one row of the WriteSets table, used to detect write-write
// conflicts (Figure 4). Updated is a counter bumped by every upsert.
type WriteSetRow struct {
	TableID  int64
	Updated  int64
	DataFile string // empty at table granularity
}

// CheckpointRow tracks a manifest checkpoint file for a table (Section 5.2).
type CheckpointRow struct {
	TableID int64
	Seq     int64
	Path    string
}

// TableMeta is the logical metadata for a table object.
type TableMeta struct {
	ID     int64
	Name   string
	Schema colfile.Schema
	// DistributionCol is the column hashed by d(r) to assign rows to cells.
	DistributionCol string
	// SortCol is the clustering column p(r), the Z-order stand-in.
	SortCol string
	// CreatedSeq is the commit sequence at which the table was created —
	// clones use it to bound time travel.
	CreatedSeq int64
	// ClonedFrom is the source table id for zero-copy clones, 0 otherwise.
	ClonedFrom int64
	// RetentionSeqs is how many sequences back versioned reads are kept
	// before GC may drop removed files.
	RetentionSeqs int64
}

// ErrTableExists is returned when creating a table whose name is taken.
var ErrTableExists = errors.New("catalog: table already exists")

// ErrTableNotFound is returned when a table name or id does not resolve.
var ErrTableNotFound = errors.New("catalog: table not found")

func keyName(name string) string        { return "meta/name/" + name }
func keyID(id int64) string             { return fmt.Sprintf("meta/id/%016d", id) }
func keyManifest(id, seq int64) string  { return fmt.Sprintf("manifests/%016d/%016d", id, seq) }
func keyManifestPrefix(id int64) string { return fmt.Sprintf("manifests/%016d/", id) }
func keyWriteSetTable(id int64) string  { return fmt.Sprintf("writesets/t/%016d", id) }
func keyWriteSetFile(id int64, f string) string {
	return fmt.Sprintf("writesets/f/%016d/%s", id, f)
}
func keyCheckpoint(id, seq int64) string  { return fmt.Sprintf("checkpoints/%016d/%016d", id, seq) }
func keyCheckpointPrefix(id int64) string { return fmt.Sprintf("checkpoints/%016d/", id) }

const keyTableIDCounter = "counters/tableid"

// CreateTable registers a new table object and returns its metadata.
func CreateTable(tx *Tx, name string, schema colfile.Schema, distCol, sortCol string) (TableMeta, error) {
	if tx.Exists(keyName(name)) {
		return TableMeta{}, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	var next int64 = 1
	if v, err := tx.Get(keyTableIDCounter); err == nil {
		next = v.(int64) + 1
	}
	if err := tx.Put(keyTableIDCounter, next); err != nil {
		return TableMeta{}, err
	}
	meta := TableMeta{
		ID: next, Name: name, Schema: schema,
		DistributionCol: distCol, SortCol: sortCol,
		RetentionSeqs: 1 << 30, // effectively infinite until configured
	}
	if err := tx.Put(keyName(name), next); err != nil {
		return TableMeta{}, err
	}
	if err := tx.Put(keyID(next), meta); err != nil {
		return TableMeta{}, err
	}
	return meta, nil
}

// LookupTable resolves a table by name.
func LookupTable(tx *Tx, name string) (TableMeta, error) {
	v, err := tx.Get(keyName(name))
	if err != nil {
		return TableMeta{}, fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	return GetTable(tx, v.(int64))
}

// GetTable resolves a table by id.
func GetTable(tx *Tx, id int64) (TableMeta, error) {
	v, err := tx.Get(keyID(id))
	if err != nil {
		return TableMeta{}, fmt.Errorf("%w: id %d", ErrTableNotFound, id)
	}
	return v.(TableMeta), nil
}

// PutTableMeta overwrites a table's metadata (used by ALTER-style changes).
func PutTableMeta(tx *Tx, meta TableMeta) error {
	return tx.Put(keyID(meta.ID), meta)
}

// DropTable removes a table's logical metadata. Physical files are left for
// garbage collection.
func DropTable(tx *Tx, name string) error {
	v, err := tx.Get(keyName(name))
	if err != nil {
		return fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	id := v.(int64)
	if err := tx.Delete(keyName(name)); err != nil {
		return err
	}
	return tx.Delete(keyID(id))
}

// ListTables returns all table metadata visible to the transaction, by name.
func ListTables(tx *Tx) ([]TableMeta, error) {
	kvs, err := tx.Scan("meta/id/")
	if err != nil {
		return nil, err
	}
	out := make([]TableMeta, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, kv.Value.(TableMeta))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// InsertManifestAtCommit defers insertion of a Manifests row until the commit
// sequence is assigned under the commit lock — paper 4.1.2 step 3. The row's
// Seq field and key both use the final sequence.
func InsertManifestAtCommit(tx *Tx, tableID int64, manifestFile string, txnID int64) {
	tx.DeferWithSeq(func(seq int64) []KV {
		return []KV{{
			Key: keyManifest(tableID, seq),
			Value: ManifestRow{
				TableID: tableID, ManifestFile: manifestFile, Seq: seq, TxnID: txnID,
			},
		}}
	})
}

// InsertManifestRow inserts a Manifests row at an explicit sequence. Cloning
// uses this to re-associate a source table's lineage with the clone
// (Section 6.2).
func InsertManifestRow(tx *Tx, row ManifestRow) error {
	return tx.Put(keyManifest(row.TableID, row.Seq), row)
}

// ScanManifests returns all Manifests rows for a table visible to the
// transaction, ordered by sequence. A non-negative asOfSeq filters to rows
// with Seq <= asOfSeq (Query As Of, Section 6.1).
func ScanManifests(tx *Tx, tableID int64, asOfSeq int64) ([]ManifestRow, error) {
	kvs, err := tx.Scan(keyManifestPrefix(tableID))
	if err != nil {
		return nil, err
	}
	out := make([]ManifestRow, 0, len(kvs))
	for _, kv := range kvs {
		row := kv.Value.(ManifestRow)
		if asOfSeq >= 0 && row.Seq > asOfSeq {
			continue
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// LatestManifestSeq returns the sequence of the newest Manifests row of a
// table visible to the transaction — with Seq <= asOfSeq when asOfSeq is
// non-negative — or 0 when there is none. It is the Seq of ScanManifests'
// last row, found without reading the others.
func LatestManifestSeq(tx *Tx, tableID, asOfSeq int64) (int64, error) {
	upTo := ""
	if asOfSeq >= 0 {
		upTo = keyManifest(tableID, asOfSeq)
	}
	kv, ok, err := tx.Last(keyManifestPrefix(tableID), upTo)
	if err != nil || !ok {
		return 0, err
	}
	return kv.Value.(ManifestRow).Seq, nil
}

// DeleteManifestRow removes a Manifests row (restore-driven truncation).
func DeleteManifestRow(tx *Tx, tableID, seq int64) error {
	return tx.Delete(keyManifest(tableID, seq))
}

// UpsertWriteSetTable records that the transaction updated or deleted rows of
// the table (4.1.2 step 1, table granularity). The write to this key is what
// triggers SI write-write conflict detection between concurrent updaters.
func UpsertWriteSetTable(tx *Tx, tableID int64) error {
	row := WriteSetRow{TableID: tableID}
	if v, err := tx.Get(keyWriteSetTable(tableID)); err == nil {
		row = v.(WriteSetRow)
	}
	row.Updated++
	return tx.Put(keyWriteSetTable(tableID), row)
}

// UpsertWriteSetFile records a modification of one data file's deletion state
// (4.4.1, file granularity): two transactions conflict only when they touch
// the same data file.
func UpsertWriteSetFile(tx *Tx, tableID int64, dataFile string) error {
	key := keyWriteSetFile(tableID, dataFile)
	row := WriteSetRow{TableID: tableID, DataFile: dataFile}
	if v, err := tx.Get(key); err == nil {
		row = v.(WriteSetRow)
	}
	row.Updated++
	return tx.Put(key, row)
}

// InsertCheckpointRow records a checkpoint file for a table.
func InsertCheckpointRow(tx *Tx, row CheckpointRow) error {
	return tx.Put(keyCheckpoint(row.TableID, row.Seq), row)
}

// DeleteCheckpointRow removes a Checkpoints row (restore-driven truncation).
func DeleteCheckpointRow(tx *Tx, tableID, seq int64) error {
	return tx.Delete(keyCheckpoint(tableID, seq))
}

// LatestCheckpoint returns the newest checkpoint row with Seq <= asOfSeq
// (any when asOfSeq < 0), or ok=false when none qualifies.
func LatestCheckpoint(tx *Tx, tableID, asOfSeq int64) (CheckpointRow, bool, error) {
	kvs, err := tx.Scan(keyCheckpointPrefix(tableID))
	if err != nil {
		return CheckpointRow{}, false, err
	}
	var best CheckpointRow
	found := false
	for _, kv := range kvs {
		row := kv.Value.(CheckpointRow)
		if asOfSeq >= 0 && row.Seq > asOfSeq {
			continue
		}
		if !found || row.Seq > best.Seq {
			best, found = row, true
		}
	}
	return best, found, nil
}

// ListCheckpoints returns all checkpoint rows for a table ordered by Seq.
func ListCheckpoints(tx *Tx, tableID int64) ([]CheckpointRow, error) {
	kvs, err := tx.Scan(keyCheckpointPrefix(tableID))
	if err != nil {
		return nil, err
	}
	out := make([]CheckpointRow, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, kv.Value.(CheckpointRow))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}
