package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/exec"
	"polaris/internal/objectstore"
)

// TestGarbageCollectExact scripts one history over a table t with a
// retention of k commit sequences and checks GC's counters and the blobs it
// leaves against values worked out by hand:
//
//	commit  statement                     blobs added            removes
//	c1      CREATE t
//	c2      retention k
//	c3      INSERT A (c2 0..9)            dA, m3
//	c4      INSERT B (c2 10..19)          dB, m4
//	c5      DELETE c2 < 2                 dv5 (on dA), m5
//	c6      DELETE c2 < 4 (merges)        dv6, m6                dv5
//	c7      CHECKPOINT                    cp (folds c3..c6)
//	c8      CLONE t AS c                  (rows of c3..c6, cp)
//	c9      COMPACT                       dC, m9                 dA dv6 dB
//	c10     DELETE c2 = 10, copy-on-write dCow, m10              dC
//	c11     DELETE c2 = 11                dv11, m11
//	c12     DELETE c2 = 12 (merges)       dv12, m12              dv11
//	c13     DELETE c2 = 13 (merges)       dv13, m13              dv12
//	c14     INSERT D                      dD, m14
//	c15     RESTORE t AS OF c13           (drops the row of c14)
//
// A pass at c15 deletes dC (removed at c10) and the DVs dv5 (c6) and dv11
// (c12, k+1 sequences ago); it keeps dv12 (c13, exactly k ago), and dA, dB
// and dv6, which t removed but the clone still lists. dD and m14 belong to
// no manifest row after the RESTORE, so they go as orphans. One commit
// later dv12 is k+1 sequences old, and a second pass deletes it alone.
func TestGarbageCollectExact(t *testing.T) {
	const k = 2
	opts := DefaultOptions()
	opts.Distributions = 1
	opts.RowsPerFile = 1000
	opts.RowsPerGroup = 100
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 2})
	e := NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)

	seen := make(map[string]bool)
	// commit runs fn as one transaction, checks it left exactly the blobs
	// named by the substrings in want (one each, in store order), and
	// returns them with the sequence it committed at.
	commit := func(what string, fn func(tx *Txn) error, want ...string) ([]string, int64) {
		t.Helper()
		if err := e.AutoCommit(fn); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var added []string
		for _, name := range e.Store.List("") {
			if !seen[name] {
				seen[name] = true
				added = append(added, name)
			}
		}
		ok := len(added) == len(want)
		for i := 0; ok && i < len(want); i++ {
			ok = strings.Contains(added[i], want[i])
		}
		if !ok {
			t.Fatalf("%s added %v, want one blob each matching %q", what, added, want)
		}
		return added, e.Catalog.CurrentSeq()
	}
	c2 := exec.ColRef{Idx: 1, Name: "c2"}
	del := func(kind exec.BinKind, v int64) func(tx *Txn) error {
		return func(tx *Txn) error {
			_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: kind, L: c2, R: exec.Const{Val: v}})
			return err
		}
	}
	insert := func(table string, lo, hi int) func(tx *Txn) error {
		return func(tx *Txn) error {
			b := colfile.NewBatch(t1Schema())
			for i := lo; i < hi; i++ {
				b.Cols[0].AppendStr(fmt.Sprintf("k%d", i))
				b.Cols[1].AppendInt(int64(i))
			}
			_, err := tx.Insert(table, b)
			return err
		}
	}

	commit("create", func(tx *Txn) error {
		_, err := tx.CreateTable("t", t1Schema(), "c1", "c2")
		return err
	})
	commit("retention", func(tx *Txn) error { return tx.SetRetention("t", k) })
	a, _ := commit("insert A", insert("t", 0, 10), "/data/", "/manifests/")
	b, _ := commit("insert B", insert("t", 10, 20), "/data/", "/manifests/")
	dv5, _ := commit("delete c2 < 2", del(exec.OpLt, 2), "/dv/", "/manifests/")
	dv6, _ := commit("delete c2 < 4", del(exec.OpLt, 4), "/dv/", "/manifests/")
	cp, _ := commit("checkpoint", func(tx *Txn) error {
		_, err := tx.CheckpointTable("t")
		return err
	}, "/checkpoints/")
	commit("clone", func(tx *Txn) error {
		_, err := tx.CloneTable("t", "c", -1)
		return err
	})
	dC, _ := commit("compact", func(tx *Txn) error {
		res, err := tx.CompactTable("t")
		if err == nil && (res.InputFiles != 2 || res.OutputFiles != 1) {
			err = fmt.Errorf("compaction %+v, want 2 files into 1", res)
		}
		return err
	}, "/compact-", "/manifests/")
	e.opts.Deletes = CopyOnWrite
	cow, _ := commit("delete c2 = 10, copy-on-write", del(exec.OpEq, 10), "/cow-", "/manifests/")
	e.opts.Deletes = MergeOnRead
	dv11, _ := commit("delete c2 = 11", del(exec.OpEq, 11), "/dv/", "/manifests/")
	dv12, removed11 := commit("delete c2 = 12", del(exec.OpEq, 12), "/dv/", "/manifests/")
	dv13, removed12 := commit("delete c2 = 13", del(exec.OpEq, 13), "/dv/", "/manifests/")
	mark := removed12
	dD, _ := commit("insert D", insert("t", 100, 101), "/data/", "/manifests/")
	_, now := commit("restore", func(tx *Txn) error { return tx.RestoreTableAsOf("t", mark) })
	if now-removed12 != k || now-removed11 != k+1 {
		t.Fatalf("at sequence %d dv12 was removed %d sequences ago and dv11 %d, want %d and %d",
			now, now-removed12, now-removed11, k, k+1)
	}

	res, err := e.GarbageCollect()
	if err != nil {
		t.Fatal(err)
	}
	want := GCResult{Scanned: 21, DeletedData: 1, DeletedDV: 2, DeletedOrphans: 2, Retained: 16}
	if res != want {
		t.Fatalf("first pass %+v, want %+v", res, want)
	}
	kept := []string{
		a[0], a[1], b[0], b[1], dv5[1], dv6[0], dv6[1], cp[0], dC[1],
		cow[0], cow[1], dv11[1], dv12[0], dv12[1], dv13[0], dv13[1],
	}
	checkBlobs := func(pass string, want []string) {
		t.Helper()
		got := e.Store.List("")
		sortedWant := append([]string(nil), want...)
		sort.Strings(sortedWant)
		if !reflect.DeepEqual(got, sortedWant) {
			t.Fatalf("after the %s pass the store holds\n%v\nwant\n%v", pass, got, sortedWant)
		}
	}
	checkBlobs("first", kept)
	for _, gone := range []string{dC[0], dv5[0], dv11[0], dD[0], dD[1]} {
		if e.Store.Exists(gone) {
			t.Fatalf("%s survived the first pass", gone)
		}
	}

	commit("a later commit", func(tx *Txn) error {
		_, err := tx.CreateTable("other", t1Schema(), "c1", "c2")
		return err
	})
	res, err = e.GarbageCollect()
	if err != nil {
		t.Fatal(err)
	}
	want = GCResult{Scanned: 16, DeletedDV: 1, Retained: 15}
	if res != want {
		t.Fatalf("second pass %+v, want %+v", res, want)
	}
	checkBlobs("second", append(kept[:12:12], kept[13:]...)) // dv12 goes

	// Both tables replay cold from what GC left: the checkpoint, the
	// manifests and the files each still lists.
	for _, name := range []string{"t", "c"} {
		tx := e.Begin()
		_, meta, err := tx.Snapshot(name, -1)
		tx.Rollback()
		if err != nil {
			t.Fatal(err)
		}
		e.Cache.Invalidate(meta.ID)
	}
	r := e.Begin()
	defer r.Rollback()
	// t: c2 in 4..9 and 14..19; the clone: 4..9 and 10..19.
	if got := sumC2(t, r, "t", -1); got != 39+99 {
		t.Fatalf("t sums %d after GC, want %d", got, 39+99)
	}
	if got := sumC2(t, r, "c", -1); got != 39+145 {
		t.Fatalf("the clone sums %d after GC, want %d", got, 39+145)
	}
}
