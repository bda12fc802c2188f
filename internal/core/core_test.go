package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/exec"
	"polaris/internal/manifest"
	"polaris/internal/objectstore"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Distributions = 4
	opts.RowsPerFile = 1000
	opts.RowsPerGroup = 100
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 4, SlotsPer: 2})
	return NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)
}

func t1Schema() colfile.Schema {
	return colfile.Schema{
		{Name: "c1", Type: colfile.String},
		{Name: "c2", Type: colfile.Int64},
	}
}

func rowsBatch(t *testing.T, schema colfile.Schema, rows ...[]any) *colfile.Batch {
	t.Helper()
	b := colfile.NewBatch(schema)
	for _, r := range rows {
		if err := b.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func mustCreate(t *testing.T, e *Engine, name string) {
	t.Helper()
	err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.CreateTable(name, t1Schema(), "c1", "c2")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scanTable reads columns cols (nil: all) of table as of asOfSeq (negative:
// the transaction's snapshot) the way every read does: the snapshot's live
// files fetched as one morsel and scanned.
func scanTable(tx *Txn, table string, cols []string, asOfSeq int64) (exec.Operator, error) {
	state, meta, err := tx.Snapshot(table, asOfSeq)
	if err != nil {
		return nil, err
	}
	ms, err := tx.Morsels(context.Background(), state, meta, 0)
	if err != nil {
		return nil, err
	}
	s, err := exec.NewMorselScan(ms.Morsels[0], cols, nil, ms.Tel)
	if err != nil {
		return nil, err
	}
	return s, s.SetSchema(meta.Schema)
}

// readAll collects every visible row of table.
func readAll(tx *Txn, table string) (*colfile.Batch, error) {
	op, err := scanTable(tx, table, nil, -1)
	if err != nil {
		return nil, err
	}
	return exec.Collect(op)
}

func sumC2(t *testing.T, tx *Txn, table string, asOf int64) int64 {
	t.Helper()
	op, err := scanTable(tx, table, []string{"c2"}, asOf)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := exec.Compile(exec.ColRef{Idx: 0}, op.Schema())
	if err != nil {
		t.Fatal(err)
	}
	agg := &exec.HashAgg{In: op, Aggs: []exec.AggSpec{{Kind: exec.AggSum, Arg: c2}}}
	out, err := exec.Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Cols[0].IsNull(0) {
		return 0
	}
	return out.Cols[0].Ints[0]
}

func TestInsertAndReadBack(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	err := e.AutoCommit(func(tx *Txn) error {
		n, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}, []any{"B", int64(2)}, []any{"C", int64(3)}))
		if err != nil {
			return err
		}
		if n != 3 {
			t.Fatalf("inserted = %d", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Rollback()
	rs, err := readAll(tx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRows() != 3 {
		t.Fatalf("rows = %d", rs.NumRows())
	}
	if got := sumC2(t, tx, "t1", -1); got != 6 {
		t.Fatalf("sum = %d", got)
	}
}

func TestUncommittedInvisibleCommittedVisible(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	w := e.Begin()
	if _, err := w.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)})); err != nil {
		t.Fatal(err)
	}
	// concurrent reader sees nothing
	r := e.Begin()
	if got := sumC2(t, r, "t1", -1); got != 0 {
		t.Fatalf("uncommitted visible: %d", got)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// old snapshot still sees nothing (SI)
	if got := sumC2(t, r, "t1", -1); got != 0 {
		t.Fatalf("snapshot unstable: %d", got)
	}
	r.Rollback()
	// new snapshot sees the row
	r2 := e.Begin()
	defer r2.Rollback()
	if got := sumC2(t, r2, "t1", -1); got != 1 {
		t.Fatalf("committed invisible: %d", got)
	}
}

func TestPaperSection42Example(t *testing.T) {
	// Transcription of Figure 6's timeline.
	e := testEngine(t)
	mustCreate(t, e, "T1")

	// t1: X1 loads three rows and commits.
	x1 := e.Begin()
	if _, err := x1.Insert("T1", rowsBatch(t, t1Schema(),
		[]any{"A", int64(1)}, []any{"B", int64(2)}, []any{"C", int64(3)})); err != nil {
		t.Fatal(err)
	}
	if err := x1.Commit(); err != nil {
		t.Fatal(err)
	}

	// t2: X2 inserts (D,4),(E,5) and deletes (A,1); X3 reads T1.
	x2 := e.Begin()
	x3 := e.Begin()
	if _, err := x2.Insert("T1", rowsBatch(t, t1Schema(), []any{"D", int64(4)}, []any{"E", int64(5)})); err != nil {
		t.Fatal(err)
	}
	n, err := x2.Delete(context.Background(), "T1", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("X2 deleted %d rows", n)
	}
	// X3's SUM(C2) must be 6 (X2 invisible).
	if got := sumC2(t, x3, "T1", -1); got != 6 {
		t.Fatalf("X3 sum = %d, want 6", got)
	}
	// X2 sees its own changes: 2+3+4+5 = 14.
	if got := sumC2(t, x2, "T1", -1); got != 14 {
		t.Fatalf("X2 own view sum = %d, want 14", got)
	}

	// t3: X2 commits; X3 deletes (B,2).
	if err := x2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := x3.Delete(context.Background(), "T1", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "B"}}); err != nil {
		t.Fatal(err)
	}
	// X3 still sees its snapshot minus B: 1+3 = 4... wait, snapshot had A,B,C.
	if got := sumC2(t, x3, "T1", -1); got != 4 {
		t.Fatalf("X3 post-delete sum = %d, want 4 (1+3)", got)
	}

	// t4: X3's commit detects the SI conflict in WriteSets and rolls back.
	if err := x3.Commit(); !catalog.IsWriteConflict(err) {
		t.Fatalf("X3 commit: %v, want write conflict", err)
	}

	// X4 starting now sees all actions of X1 and X2: SUM = 14.
	x4 := e.Begin()
	defer x4.Rollback()
	if got := sumC2(t, x4, "T1", -1); got != 14 {
		t.Fatalf("X4 sum = %d, want 14", got)
	}
}

func TestDeleteWithMergedDV(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(),
			[]any{"A", int64(1)}, []any{"B", int64(2)}, []any{"C", int64(3)}, []any{"D", int64(4)}))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// two committed deletes against the same files: the second must merge
	for _, victim := range []string{"A", "C"} {
		err := e.AutoCommit(func(tx *Txn) error {
			n, err := tx.Delete(context.Background(), "t1", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: victim}})
			if err != nil {
				return err
			}
			if n != 1 {
				t.Fatalf("deleted %d", n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tx := e.Begin()
	defer tx.Rollback()
	rs, err := readAll(tx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRows() != 2 {
		t.Fatalf("rows = %d", rs.NumRows())
	}
	if got := sumC2(t, tx, "t1", -1); got != 6 { // B(2)+D(4)
		t.Fatalf("sum = %d", got)
	}
}

func TestMultiStatementVisibility(t *testing.T) {
	// Statements within a txn see prior statements' changes (3.2.3).
	e := testEngine(t)
	mustCreate(t, e, "t1")
	tx := e.Begin()
	if _, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)})); err != nil {
		t.Fatal(err)
	}
	if got := sumC2(t, tx, "t1", -1); got != 1 {
		t.Fatalf("stmt2 cannot see stmt1: %d", got)
	}
	// statement 3 deletes the row inserted by statement 1
	n, err := tx.Delete(context.Background(), "t1", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("deleted %d", n)
	}
	if got := sumC2(t, tx, "t1", -1); got != 0 {
		t.Fatalf("stmt4 sees deleted row: %d", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin()
	defer tx2.Rollback()
	if got := sumC2(t, tx2, "t1", -1); got != 0 {
		t.Fatalf("committed view: %d", got)
	}
}

func TestUpdateIsDeletePlusInsert(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}, []any{"B", int64(2)}))
		return err
	})
	err := e.AutoCommit(func(tx *Txn) error {
		n, err := tx.Update(context.Background(), "t1",
			exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "A"}},
			map[string]exec.Expr{"c2": exec.Bin{Kind: exec.OpMul, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(100)}}})
		if err != nil {
			return err
		}
		if n != 1 {
			t.Fatalf("updated %d", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Rollback()
	if got := sumC2(t, tx, "t1", -1); got != 102 {
		t.Fatalf("sum = %d", got)
	}
}

func TestInsertOnlyTransactionsNeverConflict(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	a := e.Begin()
	b := e.Begin()
	if _, err := a.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert("t1", rowsBatch(t, t1Schema(), []any{"B", int64(2)})); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("concurrent insert conflicted: %v", err)
	}
	tx := e.Begin()
	defer tx.Rollback()
	if got := sumC2(t, tx, "t1", -1); got != 3 {
		t.Fatalf("sum = %d", got)
	}
}

func TestConcurrentUpdatersConflictAndRetrySucceeds(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}, []any{"B", int64(2)}))
		return err
	})
	a := e.Begin()
	b := e.Begin()
	delA := exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "A"}}
	delB := exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "B"}}
	if _, err := a.Delete(context.Background(), "t1", delA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Delete(context.Background(), "t1", delB); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !catalog.IsWriteConflict(err) {
		t.Fatalf("table-granularity conflict missing: %v", err)
	}
	// paper: the failed transaction is retried and then succeeds
	err := e.RunWithRetries(3, func(tx *Txn) error {
		_, err := tx.Delete(context.Background(), "t1", delB)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Rollback()
	if got := sumC2(t, tx, "t1", -1); got != 0 {
		t.Fatalf("sum = %d", got)
	}
}

func TestFileGranularityAllowsDisjointFileUpdates(t *testing.T) {
	e := testEngine(t)
	e.opts.Granularity = FileGranularity
	mustCreate(t, e, "t1")
	// two rows that land in different distribution buckets -> different
	// files: a bulk load writes one per cell, where an INSERT this small
	// would write one file of mixed cells
	rows := rowsBatch(t, t1Schema(), []any{"A", int64(1)}, []any{"B", int64(2)})
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.BulkLoad("t1", []SourceFile{{Name: "s", Rows: func() (*colfile.Batch, error) { return rows, nil }}})
		return err
	})
	tx0 := e.Begin()
	st, _, err := tx0.Snapshot("t1", -1)
	if err != nil {
		t.Fatal(err)
	}
	tx0.Rollback()
	if len(st.Files) < 2 {
		t.Skipf("rows hashed to the same file; file-granularity case needs 2 files, got %d", len(st.Files))
	}

	a := e.Begin()
	b := e.Begin()
	if _, err := a.Delete(context.Background(), "t1", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "A"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Delete(context.Background(), "t1", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "B"}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("file-granularity still conflicted: %v", err)
	}
}

func TestFileGranularitySameFileConflicts(t *testing.T) {
	e := testEngine(t)
	e.opts.Granularity = FileGranularity
	mustCreate(t, e, "t1")
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}, []any{"A2", int64(2)}))
		return err
	})
	// both transactions delete rows by c2 — whatever files they live in, the
	// predicate c2 >= 1 touches every file, so both txns touch all files.
	pred := exec.Bin{Kind: exec.OpGe, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(1)}}
	a := e.Begin()
	b := e.Begin()
	if _, err := a.Delete(context.Background(), "t1", pred); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Delete(context.Background(), "t1", pred); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !catalog.IsWriteConflict(err) {
		t.Fatalf("same-file conflict missing: %v", err)
	}
}

func TestRollbackDiscardsChanges(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	tx := e.Begin()
	if _, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)})); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	r := e.Begin()
	defer r.Rollback()
	if got := sumC2(t, r, "t1", -1); got != 0 {
		t.Fatalf("rolled back data visible: %d", got)
	}
	// data files (and the statement-flushed manifest blob) remain on storage
	// as dangling files until GC (5.3) ...
	if e.Store.Count() == 0 {
		t.Fatal("expected dangling files awaiting GC")
	}
	// ... but no Manifests row exists, so the change is invisible forever.
	rows, err := catalog.ScanManifests(r.catTx, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("aborted txn left Manifests rows: %+v", rows)
	}
}

func TestQueryAsOf(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	var seqs []int64
	for i := 1; i <= 3; i++ {
		tx := e.Begin()
		if _, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{fmt.Sprintf("r%d", i), int64(i)})); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, tx.catTx.CommitSeq())
	}
	tx := e.Begin()
	defer tx.Rollback()
	if got := sumC2(t, tx, "t1", seqs[0]); got != 1 {
		t.Fatalf("as-of-1 sum = %d", got)
	}
	if got := sumC2(t, tx, "t1", seqs[1]); got != 3 {
		t.Fatalf("as-of-2 sum = %d", got)
	}
	if got := sumC2(t, tx, "t1", -1); got != 6 {
		t.Fatalf("latest sum = %d", got)
	}
}

func TestCloneAsOf(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "src")
	var seq1 int64
	tx := e.Begin()
	_, _ = tx.Insert("src", rowsBatch(t, t1Schema(), []any{"A", int64(1)}))
	_ = tx.Commit()
	seq1 = tx.catTx.CommitSeq()
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("src", rowsBatch(t, t1Schema(), []any{"B", int64(2)}))
		return err
	})

	// clone as of seq1: only row A
	err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.CloneTable("src", "clone1", seq1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Begin()
	defer r.Rollback()
	if got := sumC2(t, r, "clone1", -1); got != 1 {
		t.Fatalf("clone sum = %d", got)
	}
	// clones evolve independently
	err = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("clone1", rowsBatch(t, t1Schema(), []any{"X", int64(100)}))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	r2 := e.Begin()
	defer r2.Rollback()
	if got := sumC2(t, r2, "clone1", -1); got != 101 {
		t.Fatalf("clone after insert = %d", got)
	}
	if got := sumC2(t, r2, "src", -1); got != 3 {
		t.Fatalf("source mutated by clone write: %d", got)
	}
}

func TestRestoreAsOf(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	tx := e.Begin()
	_, _ = tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}))
	_ = tx.Commit()
	seq1 := tx.catTx.CommitSeq()
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"B", int64(2)}))
		return err
	})
	err := e.AutoCommit(func(tx *Txn) error { return tx.RestoreTableAsOf("t1", seq1) })
	if err != nil {
		t.Fatal(err)
	}
	r := e.Begin()
	defer r.Rollback()
	if got := sumC2(t, r, "t1", -1); got != 1 {
		t.Fatalf("restored sum = %d", got)
	}
}

// TestRestoreThenCommitCacheEqualsReplay: a reader whose snapshot predates a
// RESTORE reads the table while the restore is in flight and again after it
// committed, so the snapshot cache is handed the pre-restore state both before
// and after the restore's commit. The next commit must not extend that state:
// what the cache then serves equals a replay from the manifests.
func TestRestoreThenCommitCacheEqualsReplay(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	insert := func(c1 string, c2 int64) {
		t.Helper()
		if err := e.AutoCommit(func(tx *Txn) error {
			_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{c1, c2}))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	insert("A", 1)
	seq1 := e.Catalog.CurrentSeq()
	insert("B", 2)

	old := e.Begin()
	restore := e.Begin()
	if err := restore.RestoreTableAsOf("t1", seq1); err != nil {
		t.Fatal(err)
	}
	if got := sumC2(t, old, "t1", -1); got != 3 {
		t.Fatalf("pre-restore reader sees %d, want 3", got)
	}
	if err := restore.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := sumC2(t, old, "t1", -1); got != 3 {
		t.Fatalf("pre-restore reader sees %d after the restore committed, want 3", got)
	}
	old.Rollback()
	insert("C", 4)

	snapshot := func() (*manifest.TableState, int64) {
		t.Helper()
		tx := e.Begin()
		defer tx.Rollback()
		state, meta, err := tx.Snapshot("t1", -1)
		if err != nil {
			t.Fatal(err)
		}
		return state, meta.ID
	}
	cached, id := snapshot()
	e.Cache.Invalidate(id)
	replayed, _ := snapshot()
	if !reflect.DeepEqual(cached, replayed) {
		t.Fatalf("cached snapshot has %d files (%d rows), a replay has %d (%d rows)",
			len(cached.Files), cached.TotalRows(), len(replayed.Files), replayed.TotalRows())
	}
	if replayed.TotalRows() != 2 {
		t.Fatalf("restored table + one insert has %d rows, want 2", replayed.TotalRows())
	}
}

// TestRestorePastCheckpoint: a RESTORE to before a checkpoint deletes the
// checkpoint's row along with the later manifests. A surviving row would hand
// the next replay the pre-restore files, and a commit after the restore would
// then extend them.
func TestRestorePastCheckpoint(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	insert := func(c1 string, c2 int64) {
		t.Helper()
		if err := e.AutoCommit(func(tx *Txn) error {
			_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{c1, c2}))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	insert("A", 1)
	seq1 := e.Catalog.CurrentSeq()
	insert("B", 2)
	if err := e.AutoCommit(func(tx *Txn) error {
		cp, err := tx.CheckpointTable("t1")
		if err == nil && cp.Path == "" {
			err = fmt.Errorf("nothing checkpointed")
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AutoCommit(func(tx *Txn) error { return tx.RestoreTableAsOf("t1", seq1) }); err != nil {
		t.Fatal(err)
	}
	insert("C", 4) // commits past the checkpoint's sequence

	tx := e.Begin()
	_, meta, err := tx.Snapshot("t1", -1)
	tx.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	e.Cache.Invalidate(meta.ID) // force a replay from the catalog rows
	r := e.Begin()
	defer r.Rollback()
	if got := sumC2(t, r, "t1", -1); got != 1+4 {
		t.Fatalf("replay after a restore past a checkpoint sums %d, want %d (rows A and C)", got, 1+4)
	}
}

func TestMultiTableTransaction(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "a")
	mustCreate(t, e, "b")
	tx := e.Begin()
	if _, err := tx.Insert("a", rowsBatch(t, t1Schema(), []any{"x", int64(1)})); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("b", rowsBatch(t, t1Schema(), []any{"y", int64(2)})); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r := e.Begin()
	defer r.Rollback()
	if sumC2(t, r, "a", -1) != 1 || sumC2(t, r, "b", -1) != 2 {
		t.Fatal("multi-table commit not atomic")
	}
	// both tables' manifest rows carry the same sequence
	rowsA, _ := catalog.ScanManifests(r.catTx, 1, -1)
	rowsB, _ := catalog.ScanManifests(r.catTx, 2, -1)
	if len(rowsA) != 1 || len(rowsB) != 1 || rowsA[0].Seq != rowsB[0].Seq {
		t.Fatalf("multi-table seqs: %v %v", rowsA, rowsB)
	}
}

func TestMultiTableRollbackIsAtomic(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "a")
	mustCreate(t, e, "b")
	// txA updates a; txB updates a AND b: txB must fail wholesale, leaving b
	// untouched.
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("a", rowsBatch(t, t1Schema(), []any{"x", int64(1)}))
		return err
	})
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("b", rowsBatch(t, t1Schema(), []any{"y", int64(5)}))
		return err
	})
	pred := exec.Bin{Kind: exec.OpGe, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(0)}}
	txA := e.Begin()
	txB := e.Begin()
	if _, err := txA.Delete(context.Background(), "a", pred); err != nil {
		t.Fatal(err)
	}
	if _, err := txB.Delete(context.Background(), "a", pred); err != nil {
		t.Fatal(err)
	}
	if _, err := txB.Delete(context.Background(), "b", pred); err != nil {
		t.Fatal(err)
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txB.Commit(); !catalog.IsWriteConflict(err) {
		t.Fatalf("txB: %v", err)
	}
	r := e.Begin()
	defer r.Rollback()
	if got := sumC2(t, r, "b", -1); got != 5 {
		t.Fatalf("partial commit leaked into b: sum = %d", got)
	}
}

func TestDDLAndDMLInOneTransaction(t *testing.T) {
	e := testEngine(t)
	tx := e.Begin()
	if _, err := tx.CreateTable("t1", t1Schema(), "c1", "c2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(7)})); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r := e.Begin()
	defer r.Rollback()
	if got := sumC2(t, r, "t1", -1); got != 7 {
		t.Fatalf("sum = %d", got)
	}
	// rolled-back DDL leaves no table behind
	tx2 := e.Begin()
	if _, err := tx2.CreateTable("ghost", t1Schema(), "c1", ""); err != nil {
		t.Fatal(err)
	}
	tx2.Rollback()
	r2 := e.Begin()
	defer r2.Rollback()
	if _, err := r2.Table("ghost"); !errors.Is(err, catalog.ErrTableNotFound) {
		t.Fatalf("ghost table: %v", err)
	}
}

func TestStats(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(),
			[]any{"A", int64(1)}, []any{"B", int64(2)}, []any{"C", int64(3)}))
		return err
	})
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Delete(context.Background(), "t1", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "A"}})
		return err
	})
	tx := e.Begin()
	defer tx.Rollback()
	st, err := tx.Stats("t1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 2 || st.Deleted != 1 || st.Manifests != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Health.Healthy() {
		// tiny files are below CompactSmallRows, so health should flag them
		t.Fatalf("health = %+v, tiny files should be flagged", st.Health)
	}
}

func TestScanColumnsAndPruning(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	b := colfile.NewBatch(t1Schema())
	for i := 0; i < 500; i++ {
		_ = b.AppendRow(fmt.Sprintf("k%03d", i), int64(i))
	}
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", b)
		return err
	})
	tx := e.Begin()
	defer tx.Rollback()
	op, err := scanTable(tx, "t1", []string{"c2"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := exec.Compile(exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: int64(100)}}, op.Schema())
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(&exec.Filter{In: op, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 100 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestCommitEventNotification(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	var events []CommitEvent
	e.Subscribe(func(ev CommitEvent) { events = append(events, ev) })
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}))
		return err
	})
	if len(events) != 1 || events[0].TableID != 1 || len(events[0].Actions) == 0 {
		t.Fatalf("events = %+v", events)
	}
	blob, err := e.Store.Get(events[0].Manifest)
	if err != nil {
		t.Fatalf("manifest blob missing: %v", err)
	}
	if events[0].Bytes != int64(len(blob)) {
		t.Fatalf("event carries %d manifest bytes, the blob holds %d", events[0].Bytes, len(blob))
	}
}

func TestSimTimeAccrues(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	tx := e.Begin()
	if _, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)})); err != nil {
		t.Fatal(err)
	}
	if tx.SimTime() <= 0 {
		t.Fatal("no simulated time charged for insert")
	}
	before := tx.SimTime()
	if _, err := readAll(tx, "t1"); err != nil {
		t.Fatal(err)
	}
	if tx.SimTime() <= before {
		t.Fatal("no simulated time charged for read")
	}
	_ = tx.Commit()
	if e.SimTotal() < tx.SimTime() {
		t.Fatal("engine sim total lost txn time")
	}
}

func TestTxnAfterDoneFails(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	tx := e.Begin()
	_ = tx.Commit()
	if _, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)})); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("insert after commit: %v", err)
	}
	if _, err := readAll(tx, "t1"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("read after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestEmptyTableScan(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	tx := e.Begin()
	defer tx.Rollback()
	rs, err := readAll(tx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRows() != 0 {
		t.Fatalf("rows = %d", rs.NumRows())
	}
	if len(rs.Schema) != 2 || rs.Schema[0].Name != "c1" {
		t.Fatalf("columns = %v", rs.Schema)
	}
}

func TestRCSIReadsSeeNewCommits(t *testing.T) {
	// Paper 4.4.2: in RCSI mode a transaction reads the changes of any
	// concurrent transaction that commits, instead of a fixed snapshot.
	e := testEngine(t)
	mustCreate(t, e, "t1")
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}))
		return err
	})
	rcsi := e.BeginLevel(catalog.ReadCommittedSnapshot)
	defer rcsi.Rollback()
	si := e.Begin()
	defer si.Rollback()
	if got := sumC2(t, rcsi, "t1", -1); got != 1 {
		t.Fatalf("rcsi first read = %d", got)
	}
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"B", int64(10)}))
		return err
	})
	if got := sumC2(t, rcsi, "t1", -1); got != 11 {
		t.Fatalf("rcsi second read = %d, want 11 (sees new commit)", got)
	}
	if got := sumC2(t, si, "t1", -1); got != 1 {
		t.Fatalf("si read = %d, want 1 (snapshot stable)", got)
	}
}

func TestCopyOnWriteDelete(t *testing.T) {
	e := testEngine(t)
	e.opts.Deletes = CopyOnWrite
	mustCreate(t, e, "t1")
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(),
			[]any{"A", int64(1)}, []any{"B", int64(2)}, []any{"C", int64(3)}))
		return err
	})
	err := e.AutoCommit(func(tx *Txn) error {
		n, err := tx.Delete(context.Background(), "t1", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "B"}})
		if err != nil {
			return err
		}
		if n != 1 {
			t.Fatalf("deleted %d", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Rollback()
	if got := sumC2(t, tx, "t1", -1); got != 4 {
		t.Fatalf("sum = %d", got)
	}
	// CoW leaves no deletion vectors behind
	st, err := tx.Stats("t1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 0 {
		t.Fatalf("CoW left DVs: %+v", st)
	}
	// repeated delete on the rewritten file still works
	err = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Delete(context.Background(), "t1", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "A"}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin()
	defer tx2.Rollback()
	if got := sumC2(t, tx2, "t1", -1); got != 3 {
		t.Fatalf("sum = %d", got)
	}
}

func TestReconcileActions(t *testing.T) {
	a1 := manifest.Action{Op: manifest.OpAdd, Kind: manifest.KindData, Path: "f1", Rows: 10}
	a2 := manifest.Action{Op: manifest.OpAdd, Kind: manifest.KindDV, Path: "dv1", Target: "f1", DeletedRows: 2}
	a3 := manifest.Action{Op: manifest.OpRemove, Kind: manifest.KindDV, Path: "dv1", Target: "f1"}
	a4 := manifest.Action{Op: manifest.OpAdd, Kind: manifest.KindDV, Path: "dv2", Target: "f1", DeletedRows: 5}
	out := reconcileActions([]manifest.Action{a1, a2, a3, a4})
	if len(out) != 2 {
		t.Fatalf("reconciled = %+v", out)
	}
	if out[0].Path != "f1" || out[1].Path != "dv2" {
		t.Fatalf("reconciled = %+v", out)
	}
	// add + remove of same data file cancels entirely
	out = reconcileActions([]manifest.Action{a1, {Op: manifest.OpRemove, Kind: manifest.KindData, Path: "f1"}})
	if len(out) != 0 {
		t.Fatalf("cancelled = %+v", out)
	}
}

// TestDistHashMatchesFmt pins d(r): the typed distHash puts every value in the
// bucket the boxed fmt form ("%v" text through FNV-1a 32) put it in, so no
// stored row changes cell. The values are the ones where integer, float and
// string formatting could differ: the integer extremes, both zeros, NaN, the
// infinities, and the floats at which %v switches to exponent form.
func TestDistHashMatchesFmt(t *testing.T) {
	fmtHash := func(v any, buckets int) int {
		h := fnv.New32a()
		fmt.Fprintf(h, "%v", v)
		return int(h.Sum32() % uint32(buckets))
	}
	vals := []any{
		int64(math.MinInt64), int64(math.MaxInt64), int64(-1), int64(0), int64(1), int64(4607182418800017408),
		0.0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e21, 1e20, 1e-7, 1e-4, 0.1, -2.5,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
		"", "a", "hello, world", "ünïcode", "a\x00b", true, false,
	}
	for _, v := range vals {
		vec := colfile.NewVec(colfile.Int64)
		switch x := v.(type) {
		case float64:
			vec = &colfile.Vec{Type: colfile.Float64, Floats: []float64{x}}
		case string:
			vec = &colfile.Vec{Type: colfile.String, Strs: []string{x}}
		case bool:
			vec = &colfile.Vec{Type: colfile.Bool, Bools: []bool{x}}
		default:
			vec.AppendInt(x.(int64))
		}
		for _, buckets := range []int{1, 7, 60, 1 << 20} {
			if got, want := distHash(vec, 0, buckets), fmtHash(v, buckets); got != want {
				t.Errorf("distHash(%#v, %d) = %d, fmt form %d", v, buckets, got, want)
			}
		}
	}
}

// TestBulkLoadRejectsMismatchedSchema: a source whose schema is not the
// table's fails the load, as it fails an INSERT, and leaves the table's rows
// and the store as they were.
func TestBulkLoadRejectsMismatchedSchema(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	if err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := e.Store.List("")
	wrong := rowsBatch(t, colfile.Schema{{Name: "c1", Type: colfile.String}, {Name: "c2", Type: colfile.Float64}},
		[]any{"B", 2.5})
	err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.BulkLoad("t1", []SourceFile{{Name: "bad", Rows: func() (*colfile.Batch, error) { return wrong, nil }}})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Fatalf("err = %v, want a schema mismatch", err)
	}
	if after := e.Store.List(""); !reflect.DeepEqual(after, before) {
		t.Fatalf("store changed:\n%v\n->\n%v", before, after)
	}
	tx := e.Begin()
	defer tx.Rollback()
	rs, err := readAll(tx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRows() != 1 || sumC2(t, tx, "t1", -1) != 1 {
		t.Fatalf("table changed: %d rows, sum %d", rs.NumRows(), sumC2(t, tx, "t1", -1))
	}
}

// TestUpdateUnknownColumnErrorIsStable: SET targets are checked in sorted
// order, so a statement with two unknown targets names the same one every
// run.
func TestUpdateUnknownColumnErrorIsStable(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	one := exec.Const{Val: int64(1)}
	for run := 0; run < 20; run++ {
		tx := e.Begin()
		_, err := tx.Update(context.Background(), "t1", exec.Const{Val: true}, map[string]exec.Expr{"zz": one, "yy": one})
		tx.Rollback()
		if want := `core: unknown column "yy" in UPDATE`; err == nil || err.Error() != want {
			t.Fatalf("run %d: err = %v, want %s", run, err, want)
		}
	}
}
