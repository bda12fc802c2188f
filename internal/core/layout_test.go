package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"polaris/internal/colfile"
	"polaris/internal/exec"
)

// storageLayoutGolden is the SHA-256 storageLayoutHash computes. Every write
// path contributes to it: a change that moves a path, a data-file byte or a
// manifest byte changes it on purpose or not at all.
const storageLayoutGolden = "638a2368ed1bf23339fd5464c734de02b62e00b7d2ec42ebeb93773f7a2f9f7e"

// layoutRows builds rows [lo, hi) of the layout script's table: 97 distinct
// distribution keys, a scattered sort column.
func layoutRows(lo, hi int) *colfile.Batch {
	b := colfile.NewBatch(t1Schema())
	for i := lo; i < hi; i++ {
		b.Cols[0].AppendStr(fmt.Sprintf("k%d", i%97))
		b.Cols[1].AppendInt(int64(i * 7919 % 5000))
	}
	return b
}

// storageLayoutHash runs one fixed script through every write path on a fresh
// engine — CREATE, a BULK LOAD of two sources, an INSERT at the small-file
// threshold (per-cell files) and INSERTs below it (files of mixed cells; one
// transaction holds two), a merge-on-read DELETE, an UPDATE, a copy-on-write
// DELETE, COMPACT and CHECKPOINT — and hashes every blob the store then
// holds, name and bytes.
func storageLayoutHash(t *testing.T) string {
	t.Helper()
	e := testEngine(t)
	mustCreate(t, e, "t")
	step := func(what string, fn func(tx *Txn) error) {
		t.Helper()
		if err := e.AutoCommit(fn); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	c1 := exec.ColRef{Idx: 0, Name: "c1"}
	c2 := exec.ColRef{Idx: 1, Name: "c2"}
	step("bulk load", func(tx *Txn) error {
		_, err := tx.BulkLoad("t", []SourceFile{
			{Name: "s0", SizeHint: 1 << 16, Rows: func() (*colfile.Batch, error) { return layoutRows(0, 2000), nil }},
			{Name: "s1", SizeHint: 1 << 16, Rows: func() (*colfile.Batch, error) { return layoutRows(2000, 4000), nil }},
		})
		return err
	})
	step("insert at the threshold", func(tx *Txn) error {
		_, err := tx.Insert("t", layoutRows(5000, 5000+int(e.opts.CompactSmallRows)))
		return err
	})
	step("insert", func(tx *Txn) error {
		_, err := tx.Insert("t", layoutRows(4000, 4050))
		return err
	})
	step("two inserts", func(tx *Txn) error {
		if _, err := tx.Insert("t", layoutRows(4050, 4100)); err != nil {
			return err
		}
		_, err := tx.Insert("t", layoutRows(4100, 4300))
		return err
	})
	step("merge-on-read delete", func(tx *Txn) error {
		_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpLt, L: c2, R: exec.Const{Val: int64(400)}})
		return err
	})
	step("update", func(tx *Txn) error {
		set := map[string]exec.Expr{"c2": exec.Bin{Kind: exec.OpAdd, L: c2, R: exec.Const{Val: int64(1)}}}
		_, err := tx.Update(context.Background(), "t", exec.Bin{Kind: exec.OpEq, L: c1, R: exec.Const{Val: "k3"}}, set)
		return err
	})
	e.opts.Deletes = CopyOnWrite
	step("copy-on-write delete", func(tx *Txn) error {
		_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpEq, L: c1, R: exec.Const{Val: "k5"}})
		return err
	})
	e.opts.Deletes = MergeOnRead
	step("compact", func(tx *Txn) error {
		res, err := tx.CompactTable("t")
		if err == nil && res.OutputFiles < 2 {
			err = fmt.Errorf("compaction wrote %d files, want several", res.OutputFiles)
		}
		return err
	})
	step("checkpoint", func(tx *Txn) error {
		_, err := tx.CheckpointTable("t")
		return err
	})

	h := sha256.New()
	names := e.Store.List("")
	for _, name := range names {
		data, err := e.Store.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	// The INSERT at the threshold is transaction 1003, the first after the
	// load's.
	listing := strings.Join(names, "\n")
	for _, mark := range []string{"/1003-p0-", "-m-", "/cow-", "/compact-"} {
		if !strings.Contains(listing, mark) {
			t.Fatalf("script did not reach every write path (no %q): %v", mark, names)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStorageLayoutGolden pins the bytes the write paths put on storage. The
// script runs three times on fresh engines, so output that depends on map
// order or timing fails here rather than some of the time.
func TestStorageLayoutGolden(t *testing.T) {
	for run := 0; run < 3; run++ {
		if got := storageLayoutHash(t); got != storageLayoutGolden {
			t.Fatalf("run %d: storage layout hash = %s, want %s", run, got, storageLayoutGolden)
		}
	}
}
