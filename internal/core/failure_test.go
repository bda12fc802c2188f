package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"polaris/internal/compute"
	"polaris/internal/exec"
	"polaris/internal/manifest"
)

// Failure-injection tests: the paper's resilience story (3.2.2, 4.3) is that
// task failures during writes never corrupt state — failed attempts' blocks
// are excluded from the committed block list, their data files dangle until
// GC, and the transaction completes on retried tasks.

func TestInsertSurvivesTaskFailures(t *testing.T) {
	e := testEngine(t)
	var injected atomic.Int32
	e.opts.TaskFailureInjector = func(taskID, attempt int, node *compute.Node) error {
		if attempt == 1 && injected.Add(1) <= 2 {
			return errors.New("injected task failure")
		}
		return nil
	}
	mustCreate(t, e, "t1")
	err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(),
			[]any{"A", int64(1)}, []any{"B", int64(2)}, []any{"C", int64(3)}, []any{"D", int64(4)}))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if injected.Load() == 0 {
		t.Skip("no failures injected (all rows hashed to one task)")
	}
	tx := e.Begin()
	defer tx.Rollback()
	if got := sumC2(t, tx, "t1", -1); got != 10 {
		t.Fatalf("sum = %d, data corrupted by retries", got)
	}
	rs, _ := tx.ReadAll("t1")
	if rs.NumRows() != 4 {
		t.Fatalf("rows = %d (duplicates from retried attempts?)", rs.NumRows())
	}
}

func TestFailedAttemptsLeaveOnlyDanglingFiles(t *testing.T) {
	e := testEngine(t)
	fail := true
	e.opts.TaskFailureInjector = func(taskID, attempt int, node *compute.Node) error {
		if attempt == 1 && fail {
			return errors.New("boom")
		}
		return nil
	}
	mustCreate(t, e, "t1")
	err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}, []any{"B", int64(2)}))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fail = false

	// The manifest must reference only attempt>=2 files; attempt-1 files are
	// dangling on storage.
	tx := e.Begin()
	defer tx.Rollback()
	state, _, err := tx.Snapshot("t1", -1)
	if err != nil {
		t.Fatal(err)
	}
	referenced := map[string]bool{}
	for p := range state.Files {
		referenced[p] = true
		if !e.Store.Exists(p) {
			t.Fatalf("referenced file %s missing from storage", p)
		}
	}
	dangling := 0
	for _, name := range e.Store.List("tables/1/data/") {
		if !referenced[name] {
			dangling++
		}
	}
	if dangling == 0 {
		t.Fatal("expected dangling attempt-1 files")
	}
	// GC reclaims them once no active txn could still reference them.
	tx.Rollback()
	res, err := e.GarbageCollect()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeletedOrphans < dangling {
		t.Fatalf("gc deleted %d orphans, want >= %d", res.DeletedOrphans, dangling)
	}
	tx2 := e.Begin()
	defer tx2.Rollback()
	if got := sumC2(t, tx2, "t1", -1); got != 3 {
		t.Fatalf("sum after GC = %d", got)
	}
}

func TestPermanentTaskFailureAbortsStatement(t *testing.T) {
	e := testEngine(t)
	e.opts.TaskFailureInjector = func(taskID, attempt int, node *compute.Node) error {
		return errors.New("node fabric meltdown")
	}
	mustCreate(t, e, "t1")
	tx := e.Begin()
	_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}))
	if err == nil || !strings.Contains(err.Error(), "meltdown") {
		t.Fatalf("err = %v", err)
	}
	tx.Rollback()
	// nothing committed
	e.opts.TaskFailureInjector = nil
	r := e.Begin()
	defer r.Rollback()
	if got := sumC2(t, r, "t1", -1); got != 0 {
		t.Fatalf("partial write visible: %d", got)
	}
}

func TestNodeLossDuringTopologyChange(t *testing.T) {
	// Paper 3.3: nodes can leave the topology without affecting in-flight
	// transactions; caches replenish from OneLake.
	e := testEngine(t)
	mustCreate(t, e, "t1")
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(),
			[]any{"A", int64(1)}, []any{"B", int64(2)}, []any{"C", int64(3)}))
		return err
	})
	// warm caches
	tx := e.Begin()
	if got := sumC2(t, tx, "t1", -1); got != 6 {
		t.Fatalf("sum = %d", got)
	}
	tx.Rollback()
	// kill every current node; the fabric re-provisions with cold caches
	for _, n := range e.Fabric.Nodes() {
		e.Fabric.KillNode(n.ID)
	}
	tx2 := e.Begin()
	defer tx2.Rollback()
	if got := sumC2(t, tx2, "t1", -1); got != 6 {
		t.Fatalf("sum after total node loss = %d", got)
	}
}

func TestBackupRestoreDatabase(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "a")
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("a", rowsBatch(t, t1Schema(), []any{"x", int64(1)}))
		return err
	})
	mark := e.BackupMark()

	// post-mark damage: more data in a, a whole new table b
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("a", rowsBatch(t, t1Schema(), []any{"y", int64(100)}))
		return err
	})
	_ = e.AutoCommit(func(tx *Txn) error {
		if _, err := tx.CreateTable("b", t1Schema(), "c1", ""); err != nil {
			return err
		}
		_, err := tx.Insert("b", rowsBatch(t, t1Schema(), []any{"z", int64(5)}))
		return err
	})

	if err := e.RestoreDatabase(mark); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Rollback()
	if got := sumC2(t, tx, "a", -1); got != 1 {
		t.Fatalf("a restored sum = %d", got)
	}
	if _, err := tx.Table("b"); err == nil {
		t.Fatal("post-mark table b survived restore")
	}
}

func TestIcebergPublish(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t1")
	var events []CommitEvent
	e.Subscribe(func(ev CommitEvent) { events = append(events, ev) })
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t1", rowsBatch(t, t1Schema(), []any{"A", int64(1)}, []any{"B", int64(2)}))
		return err
	})
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	tx := e.Begin()
	state, _, err := tx.Snapshot("t1", -1)
	tx.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	mdPath, chain, err := e.PublishIceberg(events[0], 0, state, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 {
		t.Fatalf("chain = %d", len(chain))
	}
	data, err := e.Store.Get(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	md, err := manifest.ParseIcebergMetadata(data)
	if err != nil {
		t.Fatal(err)
	}
	if md.FormatVersion != 2 || md.CurrentSnapshotID != events[0].TxnID {
		t.Fatalf("metadata = %+v", md)
	}
	listData, err := e.Store.Get(chain[0].ManifestListPath)
	if err != nil {
		t.Fatal(err)
	}
	files, err := manifest.ParseIcebergManifestList(listData)
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, f := range files {
		if f.Content == 0 {
			rows += f.RecordCount
		}
	}
	if rows != 2 {
		t.Fatalf("published rows = %d", rows)
	}
	// a delete adds a position-delete entry on the next publish
	_ = e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Delete("t1", exec.Bin{Kind: exec.OpEq, L: exec.ColRef{Idx: 0}, R: exec.Const{Val: "A"}}, nil)
		return err
	})
	tx2 := e.Begin()
	state2, _, _ := tx2.Snapshot("t1", -1)
	tx2.Rollback()
	_, chain2, err := e.PublishIceberg(events[1], 1, state2, chain)
	if err != nil {
		t.Fatal(err)
	}
	listData2, _ := e.Store.Get(chain2[1].ManifestListPath)
	files2, _ := manifest.ParseIcebergManifestList(listData2)
	hasDeletes := false
	for _, f := range files2 {
		if f.Content == 1 && f.ReferencedFile != "" {
			hasDeletes = true
		}
	}
	if !hasDeletes {
		t.Fatal("no position-delete entries published")
	}
}
