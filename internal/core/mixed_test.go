package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/exec"
	"polaris/internal/manifest"
)

// Small writes land unsplit: an INSERT below CompactSmallRows rows writes
// files of mixed cells from one task, and COMPACT spreads their rows over
// per-cell files.

// mixedEngine is testEngine with default-sized files, so a small write is one
// file, and a counter of the storage DCP task attempts it runs.
func mixedEngine(t *testing.T) (*Engine, *atomic.Int64) {
	t.Helper()
	e := testEngine(t)
	e.opts.RowsPerFile = DefaultOptions().RowsPerFile
	tasks := new(atomic.Int64)
	e.opts.TaskFailureInjector = func(int, int, *compute.Node) error {
		tasks.Add(1)
		return nil
	}
	mustCreate(t, e, "t")
	return e, tasks
}

// insertActions commits one INSERT of rows and returns the actions of its
// manifest, as stored, and the write tasks it ran.
func insertActions(t *testing.T, e *Engine, tasks *atomic.Int64, rows *colfile.Batch) ([]manifest.Action, int64) {
	t.Helper()
	before := tasks.Load()
	var manifestPath string
	if err := e.AutoCommit(func(tx *Txn) error {
		meta, err := tx.Table("t")
		if err != nil {
			return err
		}
		manifestPath = TablePaths{ID: meta.ID}.ManifestFile(tx.id)
		_, err = tx.Insert("t", rows)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ran := tasks.Load() - before
	data, err := e.Store.Get(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := manifest.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return actions, ran
}

func TestInsertBelowThresholdWritesOneMixedFile(t *testing.T) {
	e, tasks := mixedEngine(t)
	n := int(e.opts.CompactSmallRows) - 1
	actions, ran := insertActions(t, e, tasks, layoutRows(0, n))
	if ran != 1 {
		t.Errorf("the INSERT ran %d write tasks, want 1", ran)
	}
	if len(actions) != 1 {
		t.Fatalf("the INSERT's manifest holds %d actions, want 1: %+v", len(actions), actions)
	}
	a := actions[0]
	if a.Op != manifest.OpAdd || a.Kind != manifest.KindData || a.Partition != manifest.MixedCells || a.Rows != int64(n) {
		t.Fatalf("action %+v, want an Add of %d rows of mixed cells", a, n)
	}
	if !strings.Contains(a.Path, "-m-") {
		t.Errorf("mixed file %s is not named <txn>-m-<n>.pcf", a.Path)
	}
}

func TestInsertAtThresholdWritesPerCellFiles(t *testing.T) {
	e, tasks := mixedEngine(t)
	actions, ran := insertActions(t, e, tasks, layoutRows(0, int(e.opts.CompactSmallRows)))
	// 97 distinct keys reach every one of the 4 cells.
	if ran != int64(e.opts.Distributions) || len(actions) != e.opts.Distributions {
		t.Fatalf("the INSERT ran %d tasks and added %d files, want %d of each", ran, len(actions), e.opts.Distributions)
	}
	for i, a := range actions {
		if a.Op != manifest.OpAdd || a.Partition != i || !strings.Contains(a.Path, fmt.Sprintf("-p%d-", i)) {
			t.Errorf("action %d: %+v, want an Add of cell %d", i, a, i)
		}
	}
}

// liveFiles returns table t's live files as the newest snapshot has them.
func liveFiles(t *testing.T, e *Engine) []*manifest.FileEntry {
	t.Helper()
	tx := e.Begin()
	defer tx.Rollback()
	state, _, err := tx.Snapshot("t", -1)
	if err != nil {
		t.Fatal(err)
	}
	return state.LiveFiles()
}

func TestCompactSpreadsMixedFilesOverCells(t *testing.T) {
	e, tasks := mixedEngine(t)
	for lo := 0; lo < 600; lo += 150 {
		insertActions(t, e, tasks, layoutRows(lo, lo+150))
	}
	c2 := exec.ColRef{Idx: 1, Name: "c2"}
	if err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpLt, L: c2, R: exec.Const{Val: int64(500)}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var res CompactionResult
	if err := e.AutoCommit(func(tx *Txn) error {
		var err error
		res, err = tx.CompactTable("t")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if res.InputFiles != 4 || res.OutputFiles != e.opts.Distributions {
		t.Fatalf("compaction %+v, want 4 mixed inputs and one output per cell", res)
	}
	var rows int64
	for _, fe := range liveFiles(t, e) {
		if fe.Partition == manifest.MixedCells {
			t.Fatalf("file %s of mixed cells is live after COMPACT", fe.Path)
		}
		data, err := e.Store.Get(fe.Path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := colfile.OpenReader(data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.NumRows(); i++ {
			if cell := distHash(b.Cols[0], i, e.opts.Distributions); cell != fe.Partition {
				t.Fatalf("%s (cell %d) holds row %v of cell %d", fe.Path, fe.Partition, b.Row(i), cell)
			}
		}
		rows += int64(b.NumRows())
	}
	if rows != res.RowsKept || rows != 600-res.RowsDropped || res.RowsDropped == 0 {
		t.Fatalf("compacted files hold %d rows; compaction kept %d and dropped %d of 600", rows, res.RowsKept, res.RowsDropped)
	}
}

// TestCompactSpreadsALoneMixedFile: one small healthy file of one cell is
// left alone, but one of mixed cells is always compacted.
func TestCompactSpreadsALoneMixedFile(t *testing.T) {
	e, tasks := mixedEngine(t)
	insertActions(t, e, tasks, layoutRows(0, 100))
	if err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.CompactTable("t")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	files := liveFiles(t, e)
	if len(files) != e.opts.Distributions {
		t.Fatalf("COMPACT left %d files, want one per cell", len(files))
	}
	for _, fe := range files {
		if fe.Partition == manifest.MixedCells {
			t.Fatalf("file %s of mixed cells is live after COMPACT", fe.Path)
		}
	}
}

// placementRun loads one table of per-cell files and seven files of mixed
// cells on a fresh engine. It returns the paths each fetch task reads, and
// the files of mixed cells in path order.
func placementRun(t *testing.T) (cells [][]string, mixed []string) {
	t.Helper()
	e, tasks := mixedEngine(t)
	insertActions(t, e, tasks, layoutRows(0, int(e.opts.CompactSmallRows)))
	for lo := 2000; lo < 2700; lo += 100 {
		insertActions(t, e, tasks, layoutRows(lo, lo+100))
	}
	tx := e.Begin()
	defer tx.Rollback()
	state, _, err := tx.Snapshot("t", -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range partitionCells(state, e.opts.Distributions) {
		var paths []string
		for _, f := range cell.files {
			paths = append(paths, f.Path)
		}
		cells = append(cells, paths)
	}
	for _, fe := range state.LiveFiles() {
		if fe.Partition == manifest.MixedCells {
			mixed = append(mixed, fe.Path)
		}
	}
	return cells, mixed
}

// TestFetchPlacementIsDeterministic: fetch places the same files on the same
// cell tasks in every run, never more tasks than cells, and deals the files
// of mixed cells round-robin in path order.
func TestFetchPlacementIsDeterministic(t *testing.T) {
	first, mixed := placementRun(t)
	for run := 1; run < 3; run++ {
		if got, _ := placementRun(t); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d placed files\n%v\nwant\n%v", run, got, first)
		}
	}
	if len(first) != 4 {
		t.Fatalf("%d fetch tasks for 4 cells", len(first))
	}
	if len(mixed) != 7 {
		t.Fatalf("%d mixed files, want 7", len(mixed))
	}
	for cell, paths := range first {
		var got, want []string
		for _, p := range paths {
			if strings.Contains(p, "-m-") {
				got = append(got, p)
			} else if !strings.Contains(p, fmt.Sprintf("-p%d-", cell)) {
				t.Errorf("cell %d fetches %s of another cell", cell, p)
			}
		}
		for k := cell; k < len(mixed); k += len(first) {
			want = append(want, mixed[k])
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cell %d fetches mixed files %v, want %v", cell, got, want)
		}
	}
}

// TestTwoInsertsInOneTxnSurviveColdReplay: a transaction's statements stage
// their manifest blocks under distinct IDs, so a reader replaying the stored
// manifest, not the snapshot cache, sees every INSERT of the transaction.
func TestTwoInsertsInOneTxnSurviveColdReplay(t *testing.T) {
	e := testEngine(t)
	mustCreate(t, e, "t")
	big := int(e.opts.CompactSmallRows)
	if err := e.AutoCommit(func(tx *Txn) error {
		for _, r := range [][2]int{{0, 50}, {50, 250}, {250, 250 + big}, {5000, 5000 + big}} {
			if _, err := tx.Insert("t", layoutRows(r[0], r[1])); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(e.Catalog, e.Store, e.Fabric, e.opts)
	tx := cold.Begin()
	defer tx.Rollback()
	state, _, err := tx.Snapshot("t", -1)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(250 + 2*big); state.TotalRows() != want {
		t.Fatalf("a cold replay sees %d rows, want %d", state.TotalRows(), want)
	}
}

// TestMixedFileConflictsUntilCompacted pins the trade-off of landing small
// writes unsplit under file-granularity conflicts (4.4.1): two transactions
// deleting different rows of one file of mixed cells conflict, and once
// COMPACT has spread the rows over per-cell files the same deletes, now in
// different files, both commit.
func TestMixedFileConflictsUntilCompacted(t *testing.T) {
	e, tasks := mixedEngine(t)
	e.opts.Granularity = FileGranularity
	rows := layoutRows(0, 100)
	insertActions(t, e, tasks, rows)
	// One key of each cell: the first two for the deletes before COMPACT,
	// the other two for those after.
	keyOf := make([]string, e.opts.Distributions)
	for i := 0; i < rows.NumRows(); i++ {
		if cell := distHash(rows.Cols[0], i, e.opts.Distributions); keyOf[cell] == "" {
			keyOf[cell] = rows.Cols[0].Strs[i]
		}
	}
	c1 := exec.ColRef{Idx: 0, Name: "c1"}
	concurrentDeletes := func(keys ...string) (committed int) {
		t.Helper()
		var txs []*Txn
		for _, key := range keys {
			tx := e.Begin()
			txs = append(txs, tx)
			n, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpEq, L: c1, R: exec.Const{Val: key}})
			if err != nil || n == 0 {
				t.Fatalf("delete of %s: %d rows, %v", key, n, err)
			}
		}
		for _, tx := range txs {
			if err := tx.Commit(); err == nil {
				committed++
			} else if !catalog.IsWriteConflict(err) {
				t.Fatal(err)
			}
		}
		return committed
	}
	if got := concurrentDeletes(keyOf[0], keyOf[1]); got != 1 {
		t.Fatalf("deletes in one mixed file: %d of 2 committed, want 1", got)
	}
	if err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.CompactTable("t")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := concurrentDeletes(keyOf[2], keyOf[3]); got != 2 {
		t.Fatalf("deletes in two cells' files after COMPACT: %d of 2 committed, want 2", got)
	}
}

// TestCompactConverges: over the cell counts, file sizes and small-file
// thresholds of the root layout-invariance layouts, COMPACT leaves a table
// that Stats calls healthy, and a second COMPACT finds no victim and commits
// nothing. Each round adds per-cell and mixed files, small and large ones,
// and deletes enough to fragment some of them.
func TestCompactConverges(t *testing.T) {
	c1 := exec.ColRef{Idx: 0, Name: "c1"}
	c2 := exec.ColRef{Idx: 1, Name: "c2"}
	for _, dist := range []int{1, 8, 13} {
		for _, rowsPerFile := range []int{50, DefaultOptions().RowsPerFile} {
			for _, small := range []int64{0, DefaultOptions().CompactSmallRows} {
				t.Run(fmt.Sprintf("dist=%d,rowsPerFile=%d,small=%d", dist, rowsPerFile, small), func(t *testing.T) {
					e := testEngine(t)
					e.opts.Distributions, e.opts.RowsPerFile, e.opts.CompactSmallRows = dist, rowsPerFile, small
					mustCreate(t, e, "t")
					step := func(what string, fn func(tx *Txn) error) {
						t.Helper()
						if err := e.AutoCommit(fn); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
					}
					stats := func() TableStats {
						t.Helper()
						tx := e.Begin()
						defer tx.Rollback()
						s, err := tx.Stats("t")
						if err != nil {
							t.Fatal(err)
						}
						return s
					}
					compact := func() CompactionResult {
						t.Helper()
						var res CompactionResult
						step("compact", func(tx *Txn) error {
							var err error
							res, err = tx.CompactTable("t")
							return err
						})
						return res
					}
					for round := 0; round < 2; round++ {
						base := round * 10000
						step("bulk load", func(tx *Txn) error {
							_, err := tx.BulkLoad("t", []SourceFile{{Name: "s", SizeHint: 1 << 16, Rows: func() (*colfile.Batch, error) {
								return layoutRows(base, base+2000), nil
							}}})
							return err
						})
						step("insert at the default threshold", func(tx *Txn) error {
							_, err := tx.Insert("t", layoutRows(base+2000, base+3024))
							return err
						})
						for lo := base + 3024; lo < base+3624; lo += 150 {
							step("small insert", func(tx *Txn) error {
								_, err := tx.Insert("t", layoutRows(lo, lo+150))
								return err
							})
						}
						step("delete", func(tx *Txn) error {
							_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpLt, L: c2, R: exec.Const{Val: int64(1500 + 200*round)}})
							return err
						})
						step("update", func(tx *Txn) error {
							set := map[string]exec.Expr{"c2": exec.Bin{Kind: exec.OpAdd, L: c2, R: exec.Const{Val: int64(1)}}}
							_, err := tx.Update(context.Background(), "t", exec.Bin{Kind: exec.OpEq, L: c1, R: exec.Const{Val: "k3"}}, set)
							return err
						})
						before := stats()
						if res := compact(); res.InputFiles == 0 {
							t.Fatalf("round %d: COMPACT found no victim in %+v", round, before.Health)
						}
						after := stats()
						if !after.Health.Healthy() {
							t.Fatalf("round %d: unhealthy after COMPACT: %+v", round, after.Health)
						}
						if after.Rows != before.Rows {
							t.Fatalf("round %d: COMPACT took %d live rows to %d", round, before.Rows, after.Rows)
						}
						seq := e.Catalog.CurrentSeq()
						if res := compact(); res.InputFiles != 0 || res.OutputFiles != 0 {
							t.Fatalf("round %d: a second COMPACT rewrote %+v", round, res)
						}
						if got := e.Catalog.CurrentSeq(); got != seq {
							t.Fatalf("round %d: a second COMPACT moved the sequence %d -> %d", round, seq, got)
						}
					}
				})
			}
		}
	}
}
