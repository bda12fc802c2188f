package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/manifest"
)

// ErrTxnDone is returned when using a finished transaction.
var ErrTxnDone = errors.New("core: transaction already finished")

// writeKind classifies a transaction's writes to a table: inserts never
// conflict, updates/deletes do (4.1).
type writeKind int

const (
	wroteNothing writeKind = iota
	wroteInserts
	wroteUpdates
)

// txnTable is the per-table private state of a transaction: the pending
// manifest actions and the block IDs already committed to the transaction
// manifest blob (3.2.2, 3.2.3).
type txnTable struct {
	meta     catalog.TableMeta
	actions  []manifest.Action // reconciled pending actions
	blockIDs []string          // committed block list of the manifest blob
	kind     writeKind
	// touchedFiles are data files whose deletion state this txn changed —
	// the file-granularity conflict set (4.4.1).
	touchedFiles map[string]bool
	// blockSeq numbers staged blocks within this txn for unique IDs.
	blockSeq int
}

// Txn is a Polaris user transaction: multi-statement and multi-table, with
// Snapshot Isolation semantics.
type Txn struct {
	eng    *Engine
	id     int64
	catTx  *catalog.Tx
	level  catalog.IsolationLevel
	tables map[int64]*txnTable
	sim    time.Duration
	done   bool
	// joinBudget, when non-nil, overrides the engine-wide JoinMemoryBudget
	// for this transaction (per-session budgets in a serving front end).
	joinBudget *int64
	// adoptedDOP, when > 0, is an admission-granted worker-slot count the
	// front end already holds for the current statement: LeaseDOP returns
	// it instead of leasing from the fabric again (the lease's owner
	// releases it when the statement finishes).
	adoptedDOP int
	// qctx, when non-nil, is the cancellation context the front end
	// attached for the current statement (Session.ExecOpts.Ctx); SELECT
	// execution — morsel pool and query DAG alike — observes it. Never
	// stored across statements.
	qctx context.Context
}

// SetContext attaches a cancellation context for the duration of the
// current statement. Pass nil to detach.
func (t *Txn) SetContext(ctx context.Context) { t.qctx = ctx }

// Context returns the statement's cancellation context, never nil.
func (t *Txn) Context() context.Context {
	if t.qctx == nil {
		return context.Background()
	}
	return t.qctx
}

// SimTime returns the simulated time consumed by this transaction so far.
func (t *Txn) SimTime() time.Duration { return t.sim }

func (t *Txn) charge(d time.Duration) {
	t.sim += d
	t.eng.charge(d)
}

func (t *Txn) check() error {
	if t.done {
		return ErrTxnDone
	}
	return nil
}

// CreateTable registers a new table. DDL runs in the same catalog transaction
// as DML — full T-SQL transactional DDL compatibility (3.3).
func (t *Txn) CreateTable(name string, schema colfile.Schema, distCol, sortCol string) (catalog.TableMeta, error) {
	if err := t.check(); err != nil {
		return catalog.TableMeta{}, err
	}
	if len(schema) == 0 {
		return catalog.TableMeta{}, fmt.Errorf("core: table %s has no columns", name)
	}
	if distCol != "" && schema.ColIndex(distCol) < 0 {
		return catalog.TableMeta{}, fmt.Errorf("core: distribution column %q not in schema", distCol)
	}
	if sortCol != "" && schema.ColIndex(sortCol) < 0 {
		return catalog.TableMeta{}, fmt.Errorf("core: sort column %q not in schema", sortCol)
	}
	meta, err := catalog.CreateTable(t.catTx, name, schema, distCol, sortCol)
	if err != nil {
		return catalog.TableMeta{}, err
	}
	meta.CreatedSeq = t.eng.Catalog.CurrentSeq()
	meta.RetentionSeqs = t.eng.opts.RetentionSeqs
	if err := catalog.PutTableMeta(t.catTx, meta); err != nil {
		return catalog.TableMeta{}, err
	}
	return meta, nil
}

// DropTable removes a table's logical metadata; physical files are reclaimed
// by garbage collection.
func (t *Txn) DropTable(name string) error {
	if err := t.check(); err != nil {
		return err
	}
	return catalog.DropTable(t.catTx, name)
}

// SetRetention updates a table's retention window, in commit sequences:
// files logically removed more than this many sequences ago become eligible
// for garbage collection, and time travel beyond it is unsupported (5.3).
func (t *Txn) SetRetention(table string, seqs int64) error {
	if err := t.check(); err != nil {
		return err
	}
	meta, err := catalog.LookupTable(t.catTx, table)
	if err != nil {
		return err
	}
	meta.RetentionSeqs = seqs
	return catalog.PutTableMeta(t.catTx, meta)
}

// Table resolves a table by name within this transaction's snapshot.
func (t *Txn) Table(name string) (catalog.TableMeta, error) {
	if err := t.check(); err != nil {
		return catalog.TableMeta{}, err
	}
	return catalog.LookupTable(t.catTx, name)
}

// ListTables lists tables visible to this transaction.
func (t *Txn) ListTables() ([]catalog.TableMeta, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	return catalog.ListTables(t.catTx)
}

// sortedKeys returns m's keys in ascending order, so what a loop over them
// writes or commits does not depend on map order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (t *Txn) tableState(meta catalog.TableMeta) *txnTable {
	ts, ok := t.tables[meta.ID]
	if !ok {
		ts = &txnTable{meta: meta, touchedFiles: make(map[string]bool)}
		t.tables[meta.ID] = ts
	}
	return ts
}

// Commit runs the paper's validation phase (4.1.2):
//  1. upsert WriteSets for each table with updates/deletes;
//  2. the catalog commit lock serializes commit order;
//  3. Manifests rows are inserted with the sequence assigned under the lock;
//  4. the catalog transaction commits — an SI write-write conflict on the
//     WriteSets rows aborts the transaction here.
func (t *Txn) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	defer t.eng.finishTxn(t)

	type pendingEvent struct {
		tableID  int64
		manifest string
		actions  []manifest.Action
	}
	var events []pendingEvent

	for _, id := range sortedKeys(t.tables) {
		ts := t.tables[id]
		if ts.kind == wroteNothing || len(ts.actions) == 0 {
			continue
		}
		// Step 1: conflict registration for updates/deletes.
		if ts.kind == wroteUpdates {
			switch t.eng.opts.Granularity {
			case TableGranularity:
				if err := catalog.UpsertWriteSetTable(t.catTx, id); err != nil {
					t.catTx.Rollback()
					return err
				}
			case FileGranularity:
				for _, f := range sortedKeys(ts.touchedFiles) {
					if err := catalog.UpsertWriteSetFile(t.catTx, id, f); err != nil {
						t.catTx.Rollback()
						return err
					}
				}
			}
		}
		// Step 3 (deferred under the commit lock): Manifests row insert.
		mf := TablePaths{ID: id}.ManifestFile(t.id)
		catalog.InsertManifestAtCommit(t.catTx, id, mf, t.id)
		events = append(events, pendingEvent{tableID: id, manifest: mf, actions: ts.actions})
	}

	// Advance the snapshot cache under the commit lock, so the cache sees
	// every table's manifests in commit-sequence order: advanced after the
	// lock is released, two commits could arrive as seq 6 then seq 5, and a
	// state for 6 built on 4 would hide txn 5's files from every later reader.
	if len(events) > 0 {
		t.catTx.DeferWithSeq(func(seq int64) []catalog.KV {
			for _, ev := range events {
				t.eng.Cache.Advance(ev.tableID, seq, ev.actions)
			}
			return nil
		})
	}

	// Step 4: catalog commit — validation happens here.
	if err := t.catTx.Commit(); err != nil {
		// Rolled back: private files become dangling, GC reclaims them; the
		// staged manifest blocks are discarded.
		for _, id := range sortedKeys(t.tables) {
			t.eng.Store.DiscardStaged(TablePaths{ID: id}.ManifestFile(t.id))
		}
		return err
	}

	seq := t.catTx.CommitSeq()
	//polaris:nondet the commit's wall-clock time, which only the Delta and Iceberg publishers record; no data file or manifest carries it
	now := time.Now()
	for _, ev := range events {
		t.eng.notify(CommitEvent{
			TableID: ev.tableID, TxnID: t.id, Seq: seq,
			Manifest: ev.manifest, Actions: ev.actions, When: now,
		})
	}
	return nil
}

// Rollback abandons the transaction. Written data files remain on storage as
// dangling files until garbage collection (5.3); staged manifest blocks are
// discarded immediately.
func (t *Txn) Rollback() {
	if t.done {
		return
	}
	t.done = true
	t.catTx.Rollback()
	for _, id := range sortedKeys(t.tables) {
		t.eng.Store.DiscardStaged(TablePaths{ID: id}.ManifestFile(t.id))
	}
	t.eng.finishTxn(t)
}
