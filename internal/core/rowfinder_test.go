package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/compute"
	"polaris/internal/deletevector"
	"polaris/internal/exec"
	"polaris/internal/manifest"
	"polaris/internal/objectstore"
)

// matchRowsDense is the row finder UPDATE and DELETE ran before they moved
// onto the scan's pushdown (findRows), kept as the oracle findRows is checked
// against: every file straight from the store, every row group read dense
// with all its columns, the predicate evaluated over every physical row, and
// rows a deletion vector already removed skipped afterwards. It returns, per
// file, the matching ordinals, and the matching rows in global row order.
func matchRowsDense(t *Txn, state *manifest.TableState, meta catalog.TableMeta, pred *exec.Prog) (map[string][]uint32, *colfile.Batch, error) {
	ctx := pred.NewCtx()
	ords := make(map[string][]uint32)
	rows := colfile.NewBatch(meta.Schema)
	for _, cell := range partitionCells(state, t.eng.opts.Distributions) {
		for _, fe := range cell.files {
			data, err := t.eng.Store.Get(fe.Path)
			if err != nil {
				return nil, nil, err
			}
			r, err := colfile.OpenReader(data)
			if err != nil {
				return nil, nil, err
			}
			var dv *deletevector.Vector
			if fe.DV != "" {
				dvData, err := t.eng.Store.Get(fe.DV)
				if err != nil {
					return nil, nil, err
				}
				if dv, err = deletevector.Unmarshal(dvData); err != nil {
					return nil, nil, err
				}
			}
			base := uint32(0)
			for g := 0; g < r.NumRowGroups(); g++ {
				batch, err := r.ReadRowGroup(g, nil)
				if err != nil {
					return nil, nil, err
				}
				pv, err := pred.Run(ctx, batch)
				if err != nil {
					return nil, nil, err
				}
				for i := 0; i < batch.NumRows(); i++ {
					ord := base + uint32(i)
					if dv != nil && dv.Contains(ord) {
						continue // already deleted
					}
					if !pv.IsNull(i) && pv.Bools[i] {
						ords[fe.Path] = append(ords[fe.Path], ord)
						for c := range rows.Cols {
							rows.Cols[c].Append(batch.Cols[c], i)
						}
					}
				}
				base += uint32(batch.NumRows())
			}
		}
	}
	return ords, rows, nil
}

func finderSchema() colfile.Schema {
	return colfile.Schema{
		{Name: "s", Type: colfile.String}, // leading column, so a predicate on k or v reads a non-leading one
		{Name: "k", Type: colfile.Int64},  // sort column: zone maps prune on it
		{Name: "d", Type: colfile.Int64},  // distribution column
		{Name: "v", Type: colfile.Float64},
	}
}

// finderEngine has tiny row groups and files, so a few dozen rows spread over
// several files of several groups each.
func finderEngine(t *testing.T, mode DeleteMode, distributions int) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Distributions = distributions
	opts.RowsPerFile = 16
	opts.RowsPerGroup = 4
	opts.Deletes = mode
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 2})
	e := NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)
	err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.CreateTable("t", finderSchema(), "d", "k")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomRows(t *testing.T, rng *rand.Rand, n int) *colfile.Batch {
	t.Helper()
	b := colfile.NewBatch(finderSchema())
	for i := 0; i < n; i++ {
		row := []any{[]string{"a", "b", "c"}[rng.Intn(3)], int64(rng.Intn(200)), int64(rng.Intn(5)), float64(rng.Intn(40)) / 4}
		for c := range row {
			if rng.Intn(12) == 0 {
				row[c] = nil
			}
		}
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// finderPred is a predicate over finderSchema, as the SQL layer hands it to
// Delete and Update.
type finderPred struct {
	expr exec.Expr
}

func randomPred(rng *rand.Rand) finderPred {
	col := func(i int) exec.Expr { return exec.ColRef{Idx: i, Name: finderSchema()[i].Name} }
	cmp := func(k exec.BinKind, l exec.Expr, v any) exec.Expr {
		return exec.Bin{Kind: k, L: l, R: exec.Const{Val: v}}
	}
	and := func(l, r exec.Expr) exec.Expr { return exec.Bin{Kind: exec.OpAnd, L: l, R: r} }
	switch rng.Intn(9) {
	case 0: // a range that prunes
		lo := int64(rng.Intn(200))
		hi := lo + int64(rng.Intn(40))
		return finderPred{and(cmp(exec.OpGe, col(1), lo), cmp(exec.OpLe, col(1), hi))}
	case 1: // an equality that prunes
		v := int64(rng.Intn(200))
		return finderPred{cmp(exec.OpEq, col(1), v)}
	case 2: // string equality on the leading column
		return finderPred{cmp(exec.OpEq, col(0), "b")}
	case 3:
		return finderPred{exec.IsNull{E: col(rng.Intn(4))}}
	case 4: // an OR cannot prune
		return finderPred{exec.Bin{Kind: exec.OpOr, L: cmp(exec.OpLt, col(1), int64(20)), R: cmp(exec.OpEq, col(0), "a")}}
	case 5: // DELETE FROM t
		return finderPred{exec.Const{Val: true}}
	case 6: // a non-leading float column: the wide scan aliases Cols[0]
		return finderPred{cmp(exec.OpGt, col(3), 5.0)}
	case 7: // pruned on one column, filtered on two
		lo := int64(rng.Intn(150))
		return finderPred{and(cmp(exec.OpEq, col(2), int64(rng.Intn(5))), cmp(exec.OpGe, col(1), lo))}
	default: // a constant that keeps nothing
		return finderPred{exec.Const{Val: false}}
	}
}

func rowStrings(b *colfile.Batch) []string {
	out := make([]string, b.NumRows())
	for i := range out {
		out[i] = fmt.Sprint(b.Row(i)...)
	}
	return out
}

func sorted(xs []string) []string {
	out := append([]string{}, xs...)
	sort.Strings(out)
	return out
}

func tableRows(t *testing.T, tx *Txn) []string {
	t.Helper()
	rs, err := readAll(tx, "t")
	if err != nil {
		t.Fatal(err)
	}
	return sorted(rowStrings(rs))
}

// checkFinder compares findRows, narrow and wide, with the dense oracle on
// the transaction's current snapshot and returns the oracle's matches.
func checkFinder(t *testing.T, tx *Txn, p finderPred) *colfile.Batch {
	t.Helper()
	state, meta, err := tx.Snapshot("t", -1)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := exec.Compile(p.expr, meta.Schema)
	if err != nil {
		t.Fatal(err)
	}
	wantOrds, wantRows, err := matchRowsDense(tx, state, meta, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, wide := range []bool{false, true} {
		got, err := tx.findRows(context.Background(), state, meta, prog, wide)
		if err != nil {
			t.Fatalf("findRows(%s, wide=%v): %v", p.expr, wide, err)
		}
		if !reflect.DeepEqual(got.ords, wantOrds) {
			t.Fatalf("findRows(%s, wide=%v) matched %v, dense reference %v", p.expr, wide, got.ords, wantOrds)
		}
		if wide && !reflect.DeepEqual(rowStrings(got.rows), rowStrings(wantRows)) {
			t.Fatalf("findRows(%s) rows %v, dense reference %v", p.expr, rowStrings(got.rows), rowStrings(wantRows))
		}
		if !wide && got.rows != nil {
			t.Fatalf("findRows(%s) materialized rows nobody asked for", p.expr)
		}
	}
	return wantRows
}

// TestRowFinderMatchesDenseReference is the property test of the DML row
// finder: random tables — small row groups, NULLs, files from several
// transactions, existing deletion vectors, both delete modes — and random
// predicates; the matched (file, ordinal) sets, UPDATE's new row versions,
// RowsAffected and the resulting table contents equal what the dense
// reference predicts. The DML runs inside one multi-statement transaction on
// top of its own uncommitted insert and delete, so each statement must see
// the ones before it.
func TestRowFinderMatchesDenseReference(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for _, mode := range []DeleteMode{MergeOnRead, CopyOnWrite} {
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			e := finderEngine(t, mode, 1+rng.Intn(3))
			for i := 0; i < 3; i++ {
				rows := randomRows(t, rng, 10+rng.Intn(40))
				if err := e.AutoCommit(func(tx *Txn) error { _, err := tx.Insert("t", rows); return err }); err != nil {
					t.Fatal(err)
				}
			}
			// A committed delete, so files carry deletion vectors before
			// the transaction under test starts.
			committed := randomPred(rng)
			if err := e.AutoCommit(func(tx *Txn) error { _, err := tx.Delete(context.Background(), "t", committed.expr); return err }); err != nil {
				t.Fatal(err)
			}

			tx := e.Begin()
			if _, err := tx.Insert("t", randomRows(t, rng, 20)); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 4; step++ {
				p := randomPred(rng)
				before := tableRows(t, tx)
				matched := checkFinder(t, tx, p)
				want := before
				for _, gone := range rowStrings(matched) {
					i := sort.SearchStrings(want, gone)
					want = append(want[:i:i], want[i+1:]...)
				}
				var n int64
				var err error
				if step%2 == 0 {
					n, err = tx.Delete(context.Background(), "t", p.expr)
				} else {
					// SET s = 'upd', k = k + 1000: new versions computed
					// by hand from the reference's old versions.
					set := map[string]exec.Expr{
						"s": exec.Const{Val: "upd"},
						"k": exec.Bin{Kind: exec.OpAdd, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(1000)}},
					}
					n, err = tx.Update(context.Background(), "t", p.expr, set)
					for i := 0; i < matched.NumRows(); i++ {
						row := matched.Row(i)
						row[0] = "upd"
						if row[1] != nil {
							row[1] = row[1].(int64) + 1000
						}
						want = append(want, fmt.Sprint(row...))
					}
				}
				if err != nil {
					t.Fatalf("mode %v seed %d step %d (%s): %v", mode, seed, step, p.expr, err)
				}
				if n != int64(matched.NumRows()) {
					t.Fatalf("mode %v seed %d step %d (%s): %d rows affected, dense reference matches %d", mode, seed, step, p.expr, n, matched.NumRows())
				}
				if got := tableRows(t, tx); !reflect.DeepEqual(got, sorted(want)) {
					t.Fatalf("mode %v seed %d step %d (%s): table holds\n%v\nwant\n%v", mode, seed, step, p.expr, got, sorted(want))
				}
			}
			inTxn := tableRows(t, tx)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			after := e.Begin()
			if got := tableRows(t, after); !reflect.DeepEqual(got, inTxn) {
				t.Fatalf("mode %v seed %d: committed table differs from the transaction's view", mode, seed)
			}
			after.Rollback()
		}
	}
}

// TestDMLPredicateNeverSeesDeletedRows pins the one intended narrowing of the
// pushdown row finder: a predicate is evaluated over live rows only, so a row
// a deletion vector removed long ago can no longer fail the statement (the
// dense finder evaluated it and skipped it afterwards). A runtime error on a
// live row is still the statement's error.
func TestDMLPredicateNeverSeesDeletedRows(t *testing.T) {
	e := finderEngine(t, MergeOnRead, 1)
	rows := rowsBatch(t, finderSchema(),
		[]any{"zero", int64(1), int64(0), 0.0}, []any{"ten", int64(2), int64(0), 10.0}, []any{"five", int64(3), int64(0), 5.0})
	if err := e.AutoCommit(func(tx *Txn) error { _, err := tx.Insert("t", rows); return err }); err != nil {
		t.Fatal(err)
	}
	k := exec.ColRef{Idx: 1, Name: "k"}
	if err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Delete(context.Background(), "t", exec.Bin{Kind: exec.OpEq, L: k, R: exec.Const{Val: int64(1)}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// 10 / v = 1, integer-free: v is the float column, k the divisor below.
	tenOver := func(c exec.Expr) exec.Expr {
		return exec.Bin{Kind: exec.OpEq, L: exec.Bin{Kind: exec.OpDiv, L: exec.Const{Val: 10.0}, R: c}, R: exec.Const{Val: 1.0}}
	}
	pred := tenOver(exec.ColRef{Idx: 3, Name: "v"})

	tx := e.Begin()
	state, meta, err := tx.Snapshot("t", -1)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := exec.Compile(pred, meta.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := matchRowsDense(tx, state, meta, prog); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("the dense reference should trip over the deleted v = 0 row, got %v", err)
	}
	n, err := tx.Delete(context.Background(), "t", pred)
	if err != nil || n != 1 {
		t.Fatalf("DELETE WHERE 10 / v = 1 over a deleted v = 0: %d rows, %v", n, err)
	}
	if n, err = tx.Update(context.Background(), "t", tenOver(exec.Bin{Kind: exec.OpSub, L: exec.ColRef{Idx: 3}, R: exec.Const{Val: -5.0}}),
		map[string]exec.Expr{"s": exec.Const{Val: "x"}}); err != nil || n != 1 {
		t.Fatalf("UPDATE WHERE 10 / (v + 5) = 1 over a deleted v = 0: %d rows, %v", n, err)
	}
	// A live zero still fails the statement, in both DML statements.
	if _, err := tx.Insert("t", rowsBatch(t, finderSchema(), []any{"live", int64(9), int64(0), 0.0})); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete(context.Background(), "t", pred); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("DELETE over a live v = 0: %v", err)
	}
	if _, err := tx.Update(context.Background(), "t", pred, map[string]exec.Expr{"s": exec.Const{Val: "x"}}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("UPDATE over a live v = 0: %v", err)
	}
	tx.Rollback()
}

// damageColumn garbles, in every data file of the table, column col's chunk
// in the row groups damage(g) selects, then drops every node's cached copy so
// the next statement reads the damaged bytes. The chunk extents are the ones
// the file's reader serves.
func damageColumn(t *testing.T, e *Engine, col int, damage func(g int) bool) {
	t.Helper()
	tx := e.Begin()
	defer tx.Rollback()
	state, _, err := tx.Snapshot("t", -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range state.LiveFiles() {
		data, err := e.Store.Get(fe.Path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := colfile.OpenReader(data)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < r.NumRowGroups(); g++ {
			if damage(g) {
				off, n := r.ChunkExtent(g, col)
				for i := off; i < off+n; i++ {
					data[i] = 0xff
				}
			}
		}
		if err := e.Store.Put(fe.Path, data, 0); err != nil {
			t.Fatal(err)
		}
		for _, n := range e.Fabric.Nodes() {
			n.InvalidateCached(fe.Path)
		}
	}
}

// TestDMLReadsOnlyWhatItTouches is the work-proportional-to-the-update check:
// a 10-key UPDATE or DELETE over a table of 40 row groups, sorted and
// zone-mapped on the key, scans the one row group that holds the keys and
// prunes the other 39, and decodes the columns its predicate does not read
// only where a row matched — shown by garbling exactly the chunks it has no
// business decoding. A full scan of the same table fails on them.
func TestDMLReadsOnlyWhatItTouches(t *testing.T) {
	const groups, perGroup = 40, 10
	opts := DefaultOptions()
	opts.Distributions = 1
	opts.RowsPerFile = groups * perGroup
	opts.RowsPerGroup = perGroup
	fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 2})
	e := NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)
	if err := e.AutoCommit(func(tx *Txn) error {
		if _, err := tx.CreateTable("t", finderSchema(), "d", "k"); err != nil {
			return err
		}
		b := colfile.NewBatch(finderSchema())
		for i := 0; i < groups*perGroup; i++ {
			if err := b.AppendRow(fmt.Sprintf("row-%d", i), int64(i), int64(0), float64(i)); err != nil {
				return err
			}
		}
		_, err := tx.Insert("t", b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	k := exec.ColRef{Idx: 1, Name: "k"}
	keys := finderPred{
		expr: exec.Bin{Kind: exec.OpAnd,
			L: exec.Bin{Kind: exec.OpGe, L: k, R: exec.Const{Val: int64(120)}},
			R: exec.Bin{Kind: exec.OpLe, L: k, R: exec.Const{Val: int64(129)}}},
	}
	const hit = 12 // the row group holding keys 120..129

	// The counters first, on intact files.
	tx := e.Begin()
	state, meta, err := tx.Snapshot("t", -1)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := exec.Compile(keys.expr, meta.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, wide := range []bool{false, true} {
		found, err := tx.findRows(context.Background(), state, meta, prog, wide)
		if err != nil {
			t.Fatal(err)
		}
		if p, s := found.tel.GroupsPruned.Load(), found.tel.RowsScanned.Load(); p != groups-1 || s != perGroup {
			t.Fatalf("wide=%v: pruned %d groups and scanned %d rows, want %d and %d", wide, p, s, groups-1, perGroup)
		}
		if len(found.ords) != 1 {
			t.Fatalf("wide=%v: matched %v", wide, found.ords)
		}
	}
	tx.Rollback()

	// DELETE reads k alone: every other column may be garbage everywhere,
	// and k itself outside the one group the zone map lets through.
	for _, col := range []int{0, 2, 3} {
		damageColumn(t, e, col, func(g int) bool { return g != hit })
	}
	damageColumn(t, e, 1, func(g int) bool { return g != hit })
	tx = e.Begin()
	if _, err := readAll(tx, "t"); err == nil {
		t.Fatal("a full scan decoded garbled chunks")
	}
	// UPDATE needs the old row versions, but only of the group that matched.
	n, err := tx.Update(context.Background(), "t", keys.expr, map[string]exec.Expr{"s": exec.Const{Val: "upd"}})
	if err != nil || n != 10 {
		t.Fatalf("UPDATE of 10 keys: %d rows, %v", n, err)
	}
	tx.Rollback()

	damageColumn(t, e, 0, func(g int) bool { return true })
	damageColumn(t, e, 2, func(g int) bool { return true })
	damageColumn(t, e, 3, func(g int) bool { return true })
	tx = e.Begin()
	n, err = tx.Delete(context.Background(), "t", keys.expr)
	if err != nil || n != 10 {
		t.Fatalf("DELETE of 10 keys: %d rows, %v", n, err)
	}
	tx.Rollback()
}

// cancelAfter is a context whose Err turns to context.Canceled after its
// n-th call. It is never Done, so only code that polls Err sees the cancel,
// and it lands at the same poll on every run.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestDMLRowScanObservesCancel: a DELETE or UPDATE cancelled inside its row
// scan — after the fetch job, between two scan batches — returns
// context.Canceled before it stages anything, in autocommit and inside an
// explicit transaction, whose earlier insert then commits alone. Nothing is
// left leased or under the spill prefix.
func TestDMLRowScanObservesCancel(t *testing.T) {
	e := finderEngine(t, MergeOnRead, 4)
	if err := e.AutoCommit(func(tx *Txn) error {
		_, err := tx.Insert("t", randomRows(t, rand.New(rand.NewSource(7)), 64))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	pred := exec.Bin{Kind: exec.OpLt, L: exec.ColRef{Idx: 1}, R: exec.Const{Val: int64(150)}}
	set := map[string]exec.Expr{"s": exec.Const{Val: "upd"}}
	dml := map[string]func(ctx context.Context, tx *Txn) error{
		"delete": func(ctx context.Context, tx *Txn) error { _, err := tx.Delete(ctx, "t", pred); return err },
		"update": func(ctx context.Context, tx *Txn) error { _, err := tx.Update(ctx, "t", pred, set); return err },
	}
	extra := rowsBatch(t, finderSchema(), []any{"x", int64(1), int64(1), 1.0})
	for _, name := range []string{"delete", "update"} {
		for _, explicit := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s,explicit=%v", name, explicit), func(t *testing.T) {
				tx := e.Begin()
				before := tableRows(t, tx)
				state, _, err := tx.Snapshot("t", -1)
				if err != nil {
					t.Fatal(err)
				}
				// The fetch job polls Err once per Run and once per cell
				// task; the scan's first poll passes, its second cancels.
				fetch := int64(1)
				for _, cell := range partitionCells(state, e.opts.Distributions) {
					if len(cell.files) > 0 {
						fetch++
					}
				}
				ctx := &cancelAfter{Context: context.Background(), n: fetch + 1}
				want := before
				if explicit {
					if _, err := tx.Insert("t", extra); err != nil {
						t.Fatal(err)
					}
					want = sorted(append(append([]string{}, before...), rowStrings(extra)...))
					err = dml[name](ctx, tx)
				} else {
					tx.Rollback()
					err = e.AutoCommit(func(tx *Txn) error { return dml[name](ctx, tx) })
				}
				if !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "dcp") {
					t.Fatalf("err = %v, want context.Canceled from the row scan, not the fetch job", err)
				}
				if got := ctx.calls.Load(); got != ctx.n+1 {
					t.Fatalf("Err polled %d times, want %d: the statement went on after the cancel", got, ctx.n+1)
				}
				if explicit {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				after := e.Begin()
				defer after.Rollback()
				if got := tableRows(t, after); !reflect.DeepEqual(got, want) {
					t.Fatalf("rows after the cancelled %s:\n%v\nwant\n%v", name, got, want)
				}
				if n := e.Fabric.LeasedSlots(); n != 0 {
					t.Fatalf("%d fabric slots still leased", n)
				}
				if left := e.Store.List(objectstore.SpillPrefix); len(left) != 0 {
					t.Fatalf("spill blobs left behind: %v", left)
				}
			})
		}
	}
}

// TestDMLEveryRowOfAGroup: UPDATE and DELETE whose predicate passes every
// live row of a row group — the scan then emits the group with no selection,
// or with an exact copy of its live rows when a deletion vector removed some
// — affect exactly the rows counted by hand, and leave exactly the rows
// written by hand after COMMIT, under both delete modes. The table is one
// file of four 10-row groups whose k and v are the row number.
func TestDMLEveryRowOfAGroup(t *testing.T) {
	for _, mode := range []DeleteMode{MergeOnRead, CopyOnWrite} {
		opts := DefaultOptions()
		opts.Distributions, opts.RowsPerFile, opts.RowsPerGroup, opts.Deletes = 1, 40, 10, mode
		fabric := compute.NewFabric(compute.Config{Elastic: true, InitNodes: 2, SlotsPer: 2})
		e := NewEngine(catalog.NewDB(), objectstore.New(), fabric, opts)
		if err := e.AutoCommit(func(tx *Txn) error {
			if _, err := tx.CreateTable("t", finderSchema(), "d", "k"); err != nil {
				return err
			}
			b := colfile.NewBatch(finderSchema())
			for i := 0; i < 40; i++ {
				if err := b.AppendRow("x", int64(i), int64(0), float64(i)); err != nil {
					return err
				}
			}
			_, err := tx.Insert("t", b)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		k, v := exec.ColRef{Idx: 1, Name: "k"}, exec.ColRef{Idx: 3, Name: "v"}
		keys := func(lo, hi int64) exec.Expr { // lo <= k AND k <= hi
			return exec.Bin{Kind: exec.OpAnd,
				L: exec.Bin{Kind: exec.OpGe, L: k, R: exec.Const{Val: lo}},
				R: exec.Bin{Kind: exec.OpLe, L: k, R: exec.Const{Val: hi}}}
		}
		bump := map[string]exec.Expr{"v": exec.Bin{Kind: exec.OpAdd, L: v, R: exec.Const{Val: 100.0}}}
		ctx := context.Background()
		steps := []struct {
			name string
			run  func(tx *Txn) (int64, error)
			want int64
		}{
			{"delete rows 3-4 of group 0", func(tx *Txn) (int64, error) { return tx.Delete(ctx, "t", keys(3, 4)) }, 2},
			{"update the live rows of group 0", func(tx *Txn) (int64, error) { return tx.Update(ctx, "t", keys(0, 9), bump) }, 8},
			{"update every row of group 1", func(tx *Txn) (int64, error) { return tx.Update(ctx, "t", keys(10, 19), bump) }, 10},
			{"delete every row of group 2", func(tx *Txn) (int64, error) { return tx.Delete(ctx, "t", keys(20, 29)) }, 10},
		}
		// The first step commits alone, so the others scan a group that a
		// committed deletion vector (or rewrite) thinned; the rest commit
		// together.
		for i, batch := range [][]int{{0}, {1, 2, 3}} {
			tx := e.Begin()
			for _, s := range batch {
				if n, err := steps[s].run(tx); err != nil || n != steps[s].want {
					t.Fatalf("mode %d: %s: %d rows, err %v; want %d", mode, steps[s].name, n, err, steps[s].want)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("mode %d: commit %d: %v", mode, i, err)
			}
		}
		var want []string
		for i := 0; i < 40; i++ {
			switch {
			case i == 3 || i == 4 || i >= 20 && i < 30:
			case i < 20:
				want = append(want, fmt.Sprint([]any{"x", int64(i), int64(0), float64(i) + 100}...))
			default:
				want = append(want, fmt.Sprint([]any{"x", int64(i), int64(0), float64(i)}...))
			}
		}
		tx := e.Begin()
		if got := tableRows(t, tx); !reflect.DeepEqual(got, sorted(want)) {
			t.Fatalf("mode %d: rows after COMMIT:\n got %v\nwant %v", mode, got, sorted(want))
		}
		// The updated rows now live in the files the UPDATEs wrote: a
		// DELETE of every key below 20 finds exactly the 18 left there.
		if n, err := tx.Delete(ctx, "t", keys(0, 19)); err != nil || n != 18 {
			t.Fatalf("mode %d: delete of the updated rows: %d rows, err %v; want 18", mode, n, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx = e.Begin()
		if got := tableRows(t, tx); !reflect.DeepEqual(got, sorted(want[18:])) {
			t.Fatalf("mode %d: rows after the second COMMIT:\n got %v\nwant %v", mode, got, sorted(want[18:]))
		}
		tx.Rollback()
	}
}
