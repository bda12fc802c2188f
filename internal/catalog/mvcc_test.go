package catalog

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicCommitVisibility(t *testing.T) {
	db := NewDB()
	tx := db.Begin(Snapshot)
	must(t, tx.Put("k", "v1"))
	// own write visible
	v, err := tx.Get("k")
	if err != nil || v != "v1" {
		t.Fatalf("own write: %v %v", v, err)
	}
	// invisible to concurrent snapshot
	other := db.Begin(Snapshot)
	if _, err := other.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted write visible: %v", err)
	}
	must(t, tx.Commit())
	// still invisible to the old snapshot
	if _, err := other.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatal("committed write visible to older snapshot")
	}
	// visible to new snapshot
	late := db.Begin(Snapshot)
	if v, err := late.Get("k"); err != nil || v != "v1" {
		t.Fatalf("new snapshot: %v %v", v, err)
	}
}

func TestSnapshotStability(t *testing.T) {
	db := NewDB()
	seed := db.Begin(Snapshot)
	must(t, seed.Put("k", "old"))
	must(t, seed.Commit())

	reader := db.Begin(Snapshot)
	writer := db.Begin(Snapshot)
	must(t, writer.Put("k", "new"))
	must(t, writer.Commit())

	// non-repeatable read prevented: reader still sees old
	v, err := reader.Get("k")
	if err != nil || v != "old" {
		t.Fatalf("snapshot unstable: %v %v", v, err)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	db := NewDB()
	t1 := db.Begin(Snapshot)
	t2 := db.Begin(Snapshot)
	must(t, t1.Put("k", 1))
	must(t, t2.Put("k", 2))
	must(t, t1.Commit())
	if err := t2.Commit(); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second committer: %v, want ErrWriteConflict", err)
	}
	st := db.Stats()
	if st.WriteConflicts != 1 || st.Aborted != 1 || st.Committed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoConflictOnDisjointKeys(t *testing.T) {
	db := NewDB()
	t1 := db.Begin(Snapshot)
	t2 := db.Begin(Snapshot)
	must(t, t1.Put("a", 1))
	must(t, t2.Put("b", 2))
	must(t, t1.Commit())
	must(t, t2.Commit())
}

func TestDeleteSemantics(t *testing.T) {
	db := NewDB()
	seed := db.Begin(Snapshot)
	must(t, seed.Put("k", "v"))
	must(t, seed.Commit())

	tx := db.Begin(Snapshot)
	must(t, tx.Delete("k"))
	if _, err := tx.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatal("own delete not visible")
	}
	must(t, tx.Commit())
	late := db.Begin(Snapshot)
	if _, err := late.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete not committed")
	}
}

func TestDeleteConflictsWithWrite(t *testing.T) {
	db := NewDB()
	seed := db.Begin(Snapshot)
	must(t, seed.Put("k", "v"))
	must(t, seed.Commit())

	t1 := db.Begin(Snapshot)
	t2 := db.Begin(Snapshot)
	must(t, t1.Delete("k"))
	must(t, t2.Put("k", "v2"))
	must(t, t1.Commit())
	if err := t2.Commit(); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("delete/write conflict: %v", err)
	}
}

func TestScanWithOverlay(t *testing.T) {
	db := NewDB()
	seed := db.Begin(Snapshot)
	must(t, seed.Put("p/a", 1))
	must(t, seed.Put("p/b", 2))
	must(t, seed.Put("q/c", 3))
	must(t, seed.Commit())

	tx := db.Begin(Snapshot)
	must(t, tx.Put("p/d", 4))
	must(t, tx.Delete("p/a"))
	kvs, err := tx.Scan("p/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Key != "p/b" || kvs[1].Key != "p/d" {
		t.Fatalf("scan = %+v", kvs)
	}
}

func TestRollback(t *testing.T) {
	db := NewDB()
	tx := db.Begin(Snapshot)
	must(t, tx.Put("k", "v"))
	tx.Rollback()
	if err := tx.Put("k2", "v"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("put after rollback: %v", err)
	}
	late := db.Begin(Snapshot)
	if _, err := late.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatal("rolled-back write visible")
	}
	if db.Stats().Aborted != 1 {
		t.Fatalf("stats = %+v", db.Stats())
	}
}

func TestTxDoneGuards(t *testing.T) {
	db := NewDB()
	tx := db.Begin(Snapshot)
	must(t, tx.Commit())
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatal("double commit allowed")
	}
	if _, err := tx.Get("k"); !errors.Is(err, ErrTxDone) {
		t.Fatal("get after commit allowed")
	}
	if _, err := tx.Scan(""); !errors.Is(err, ErrTxDone) {
		t.Fatal("scan after commit allowed")
	}
	tx.Rollback() // no-op after commit
}

func TestReadCommittedSnapshotSeesNewCommits(t *testing.T) {
	db := NewDB()
	seed := db.Begin(Snapshot)
	must(t, seed.Put("k", "old"))
	must(t, seed.Commit())

	rcsi := db.Begin(ReadCommittedSnapshot)
	if v, _ := rcsi.Get("k"); v != "old" {
		t.Fatalf("rcsi first read = %v", v)
	}
	writer := db.Begin(Snapshot)
	must(t, writer.Put("k", "new"))
	must(t, writer.Commit())
	// RCSI sees the newer committed value; SI would not.
	if v, _ := rcsi.Get("k"); v != "new" {
		t.Fatalf("rcsi second read = %v", v)
	}
}

func TestSerializableDetectsReadWriteConflict(t *testing.T) {
	// The paper's non-serializable SI interleaving (4.4.2):
	// T1 reads A writes B; T2 reads B writes A. Under SI both commit (write
	// skew); under serializable one must abort.
	db := NewDB()
	seed := db.Begin(Snapshot)
	must(t, seed.Put("A", 0))
	must(t, seed.Put("B", 0))
	must(t, seed.Commit())

	run := func(level IsolationLevel) (error, error) {
		t1 := db.Begin(level)
		t2 := db.Begin(level)
		_, _ = t1.Get("A")
		must(t, t1.Put("B", 1))
		_, _ = t2.Get("B")
		must(t, t2.Put("A", 1))
		return t1.Commit(), t2.Commit()
	}
	e1, e2 := run(Snapshot)
	if e1 != nil || e2 != nil {
		t.Fatalf("SI write skew should commit: %v %v", e1, e2)
	}
	e1, e2 = run(Serializable)
	if e1 == nil && e2 == nil {
		t.Fatal("serializable allowed write skew")
	}
}

func TestSerializablePhantomViaScan(t *testing.T) {
	db := NewDB()
	t1 := db.Begin(Serializable)
	if _, err := t1.Scan("acct/"); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin(Snapshot)
	must(t, t2.Put("acct/new", 100))
	must(t, t2.Commit())
	must(t, t1.Put("other", 1))
	if err := t1.Commit(); !errors.Is(err, ErrReadConflict) {
		t.Fatalf("phantom not detected: %v", err)
	}
}

func TestDeferWithSeq(t *testing.T) {
	db := NewDB()
	tx := db.Begin(Snapshot)
	var sawSeq int64
	tx.DeferWithSeq(func(seq int64) []KV {
		sawSeq = seq
		return []KV{{Key: fmt.Sprintf("m/%d", seq), Value: seq}}
	})
	must(t, tx.Commit())
	if sawSeq == 0 || tx.CommitSeq() != sawSeq {
		t.Fatalf("seq = %d, CommitSeq = %d", sawSeq, tx.CommitSeq())
	}
	late := db.Begin(Snapshot)
	if v, err := late.Get(fmt.Sprintf("m/%d", sawSeq)); err != nil || v != sawSeq {
		t.Fatalf("deferred write missing: %v %v", v, err)
	}
}

func TestCommitSeqMonotonicUnderConcurrency(t *testing.T) {
	db := NewDB()
	const n = 50
	var wg sync.WaitGroup
	seqs := make([]int64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := db.Begin(Snapshot)
			_ = tx.Put(fmt.Sprintf("k%d", i), i)
			if err := tx.Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
			seqs[i] = tx.CommitSeq()
		}(i)
	}
	wg.Wait()
	seen := make(map[int64]bool)
	for _, s := range seqs {
		if s == 0 || seen[s] {
			t.Fatalf("sequence %d duplicated or zero", s)
		}
		seen[s] = true
	}
	if db.CurrentSeq() != n {
		t.Fatalf("CurrentSeq = %d", db.CurrentSeq())
	}
}

func TestConcurrentWritersSingleWinner(t *testing.T) {
	db := NewDB()
	const n = 20
	// All transactions share the same snapshot, so first-committer-wins must
	// let exactly one through.
	txs := make([]*Tx, n)
	for i := range txs {
		txs[i] = db.Begin(Snapshot)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = txs[i].Put("contended", i)
			if err := txs[i].Commit(); err == nil {
				mu.Lock()
				committed++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if committed != 1 {
		t.Fatalf("committed = %d, want exactly 1 (first committer wins)", committed)
	}
}

func TestCompactVersions(t *testing.T) {
	db := NewDB()
	for i := 0; i < 5; i++ {
		tx := db.Begin(Snapshot)
		must(t, tx.Put("k", i))
		must(t, tx.Commit())
	}
	dropped := db.CompactVersions(db.CurrentSeq())
	if dropped != 4 {
		t.Fatalf("dropped = %d", dropped)
	}
	tx := db.Begin(Snapshot)
	if v, _ := tx.Get("k"); v != 4 {
		t.Fatalf("latest lost: %v", v)
	}
	// deleted key fully collected
	del := db.Begin(Snapshot)
	must(t, del.Delete("k"))
	must(t, del.Commit())
	db.CompactVersions(db.CurrentSeq())
	late := db.Begin(Snapshot)
	if _, err := late.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key resurrected")
	}
}

func TestPropertySINeverReadsUncommitted(t *testing.T) {
	// With writers racing, a snapshot reader must only ever observe values
	// that were committed at or before its snapshot.
	db := NewDB()
	seed := db.Begin(Snapshot)
	must(t, seed.Put("x", int64(0)))
	must(t, seed.Commit())

	f := func(writes uint8) bool {
		reader := db.Begin(Snapshot)
		before, err := reader.Get("x")
		if err != nil {
			return false
		}
		for i := 0; i < int(writes%5)+1; i++ {
			w := db.Begin(Snapshot)
			_ = w.Put("x", int64(i+1000))
			_ = w.Commit()
		}
		after, err := reader.Get("x")
		return err == nil && before == after // repeatable read
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
