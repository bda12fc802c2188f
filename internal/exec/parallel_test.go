package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"polaris/internal/colfile"
)

// renderBatch stringifies a batch for byte-identical comparisons.
func renderBatch(t *testing.T, b *colfile.Batch) string {
	t.Helper()
	out := fmt.Sprintf("%v\n", b.Schema)
	for i := 0; i < b.NumRows(); i++ {
		out += fmt.Sprintf("%v\n", b.Row(i))
	}
	return out
}

func groupedFiles(t *testing.T, nFiles, rowsPerFile, rowsPerGroup int) []ScanFile {
	t.Helper()
	sizes := make([]int, nFiles)
	for f := range sizes {
		sizes[f] = rowsPerFile
	}
	return sizedFiles(t, sizes, rowsPerGroup)
}

// sizedFiles writes one file per entry of sizes, holding that many rows in
// groups of rowsPerGroup; ids run 0, 1, 2, ... across the files in order.
func sizedFiles(t *testing.T, sizes []int, rowsPerGroup int) []ScanFile {
	t.Helper()
	schema := colfile.Schema{
		{Name: "id", Type: colfile.Int64},
		{Name: "grp", Type: colfile.Int64},
		{Name: "val", Type: colfile.Int64},
		{Name: "price", Type: colfile.Float64},
	}
	var files []ScanFile
	row := 0
	for _, rowsPerFile := range sizes {
		w := colfile.NewWriter(schema)
		for lo := 0; lo < rowsPerFile; lo += rowsPerGroup {
			b := colfile.NewBatch(schema)
			for i := lo; i < lo+rowsPerGroup && i < rowsPerFile; i++ {
				if err := b.AppendRow(int64(row), int64(row%7), int64(row%100), float64(row%13)*0.5); err != nil {
					t.Fatal(err)
				}
				row++
			}
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, ScanFile{R: mustOpen(t, data)})
	}
	return files
}

// TestSplitMorselsCoversAllRowsInOrder: concatenating the morsel scans in
// order reproduces the serial scan exactly, whether SplitMorsels splits a few
// files into row-group windows or packs many small files — the write path's
// one file per distribution cell per load — into at most `want` morsels of
// about total/want rows each, empty footers included.
func TestSplitMorselsCoversAllRowsInOrder(t *testing.T) {
	uneven := make([]int, 32)
	for f := range uneven {
		uneven[f] = 1 + f*29%61
	}
	inputs := []struct {
		name  string
		files []ScanFile
	}{
		{"3 grouped files", groupedFiles(t, 3, 100, 10)},
		{"32 uneven files", sizedFiles(t, uneven, 64)},
		{"32 files, the last 4 empty", sizedFiles(t, append(uneven[:28:28], 0, 0, 0, 0), 64)},
		{"32 empty files", groupedFiles(t, 32, 0, 1)},
	}
	for _, in := range inputs {
		var total, largest int64
		groups := 0
		for _, f := range in.files {
			total += f.R.NumRows()
			largest = max(largest, f.R.NumRows())
			groups += f.R.NumRowGroups()
		}
		for _, want := range []int{1, 4, 8, 32, 100} {
			morsels := SplitMorsels(in.files, want)
			if len(in.files) < want && len(morsels) < min(want, groups) {
				t.Fatalf("%s, want=%d: only %d morsels; files not split by row group", in.name, want, len(morsels))
			}
			if len(in.files) >= want && len(morsels) > want {
				t.Fatalf("%s, want=%d: %d morsels; small files not packed", in.name, want, len(morsels))
			}
			var ids []int64
			next := 0 // index of the file the next whole-file morsel must start at
			for i, m := range morsels {
				if m.GroupHi == 0 {
					for j, f := range m.Files {
						if next+j >= len(in.files) || f.R != in.files[next+j].R {
							t.Fatalf("%s, want=%d: morsel %d does not hold contiguous files from %d", in.name, want, i, next)
						}
					}
					next += len(m.Files)
				} else if m.GroupHi == m.Files[0].R.NumRowGroups() {
					next++
				}
				s, err := NewMorselScan(m, []string{"id"}, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := Collect(s)
				if err != nil {
					t.Fatal(err)
				}
				if len(in.files) >= want && int64(b.NumRows()) > total/int64(want)+largest {
					t.Fatalf("%s, want=%d: morsel %d holds %d rows, more than %d/%d + %d", in.name, want, i, b.NumRows(), total, want, largest)
				}
				ids = append(ids, b.Cols[0].Ints...)
			}
			if next != len(in.files) || int64(len(ids)) != total {
				t.Fatalf("%s, want=%d: morsels cover %d files and %d rows of %d and %d", in.name, want, next, len(ids), len(in.files), total)
			}
			for i, id := range ids {
				if id != int64(i) {
					t.Fatalf("%s, want=%d: row %d has id %d; morsel order broken", in.name, want, i, id)
				}
			}
		}
	}
}

func TestRunMorselsProjectionIdenticalAcrossDOP(t *testing.T) {
	files := groupedFiles(t, 4, 200, 32)
	in := files[0].R.Schema()
	pred := prog(t, in, Bin{Kind: OpLt, L: ColRef{Idx: 2}, R: Const{Val: int64(60)}})
	exprs := progs(t, in,
		ColRef{Idx: 0, Name: "id"},
		Bin{Kind: OpMul, L: ColRef{Idx: 2}, R: Const{Val: int64(3)}},
	)
	run := func(dop int) string {
		morsels := SplitMorsels(files, dop*4)
		batches, err := RunMorsels(morsels, dop, func(m Morsel) (Operator, error) {
			s, err := NewMorselScan(m, nil, nil, nil)
			if err != nil {
				return nil, err
			}
			return &Project{In: &Filter{In: s, Pred: pred}, Exprs: exprs, Names: []string{"id", "v3"}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		proto := &Project{In: NewBatchSource(colfile.NewBatch(files[0].R.Schema())), Exprs: exprs, Names: []string{"id", "v3"}}
		b, err := Collect(NewBatchList(proto.Schema(), batches))
		if err != nil {
			t.Fatal(err)
		}
		return renderBatch(t, b)
	}
	want := run(1)
	for _, dop := range []int{2, 4, 8} {
		if got := run(dop); got != want {
			t.Fatalf("dop=%d output differs from dop=1", dop)
		}
	}
}

func TestPartialMergeAggMatchesSerial(t *testing.T) {
	files := groupedFiles(t, 4, 250, 25)
	in := files[0].R.Schema()
	groupBy := progs(t, in, ColRef{Idx: 1, Name: "grp"})
	c := progs(t, in, ColRef{Idx: 0}, ColRef{Idx: 1}, ColRef{Idx: 2}, ColRef{Idx: 3})
	aggs := []AggSpec{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggCount, Arg: c[2], Name: "c"},
		{Kind: AggSum, Arg: c[2], Name: "sv"},
		{Kind: AggSum, Arg: c[3], Name: "sp"},
		{Kind: AggAvg, Arg: c[2], Name: "av"},
		{Kind: AggMin, Arg: c[0], Name: "mn"},
		{Kind: AggMax, Arg: c[0], Name: "mx"},
	}

	serialScan, err := NewScan(files, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Collect(&HashAgg{In: serialScan, GroupBy: groupBy, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	// Neither aggregate promises a group order (the SQL layer sorts), so
	// both sides are sorted on the single int group key.
	serialSorted := sortByGroups(serial, 1)

	for _, dop := range []int{1, 3, 8} {
		morsels := SplitMorsels(files, dop*4)
		batches, err := RunMorsels(morsels, dop, func(m Morsel) (Operator, error) {
			s, err := NewMorselScan(m, nil, nil, nil)
			if err != nil {
				return nil, err
			}
			return &HashAgg{In: s, GroupBy: groupBy, Aggs: aggs, Partial: true}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		proto := &HashAgg{In: NewBatchSource(colfile.NewBatch(files[0].R.Schema())), GroupBy: groupBy, Aggs: aggs, Partial: true}
		merged, err := Collect(&MergeAgg{In: NewBatchList(proto.Schema(), batches), Groups: 1, Aggs: aggs})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderBatch(t, sortByGroups(merged, 1)), renderBatch(t, serialSorted); got != want {
			t.Fatalf("dop=%d merged aggregate differs from serial:\ngot:\n%s\nwant:\n%s", dop, got, want)
		}
	}
}

func TestMergeAggGlobalEmptyInputYieldsOneRow(t *testing.T) {
	schema := colfile.Schema{{Name: "v", Type: colfile.Int64}}
	v := prog(t, schema, ColRef{Idx: 0})
	aggs := []AggSpec{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggSum, Arg: v, Name: "s"},
		{Kind: AggMin, Arg: v, Name: "mn"},
	}
	proto := &HashAgg{In: NewBatchSource(colfile.NewBatch(schema)), Aggs: aggs, Partial: true}
	merged, err := Collect(&MergeAgg{In: NewBatchList(proto.Schema(), nil), Groups: 0, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", merged.NumRows())
	}
	if merged.Cols[0].Ints[0] != 0 {
		t.Fatalf("count = %d", merged.Cols[0].Ints[0])
	}
	if !merged.Cols[1].IsNull(0) || !merged.Cols[2].IsNull(0) {
		t.Fatal("SUM/MIN of empty set must be NULL")
	}
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	// Build side above buildParallelMinRows so the partitioned path engages.
	build := colfile.NewBatch(intSchema("k", "v"))
	for i := 0; i < buildParallelMinRows+500; i++ {
		_ = build.AppendRow(int64(i%512), int64(i))
	}
	probe := colfile.NewBatch(intSchema("k"))
	for i := 0; i < 300; i++ {
		_ = probe.AppendRow(int64(i))
	}
	run := func(par int) string {
		return renderBatch(t, hashJoin(t, NewBatchSource(probe), NewBatchSource(build), []int{0}, []int{0}, InnerJoin, par))
	}
	want := run(1)
	for _, par := range []int{2, 4, 8} {
		if got := run(par); got != want {
			t.Fatalf("parallelism=%d join output differs from serial", par)
		}
	}
}

func TestRunMorselsPropagatesErrors(t *testing.T) {
	files := groupedFiles(t, 2, 50, 10)
	morsels := SplitMorsels(files, 8)
	boom := errors.New("boom")
	_, err := RunMorsels(morsels, 4, func(m Morsel) (Operator, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// slowInfiniteOp emits tiny batches forever (up to a regression cap): without
// cooperative cancellation, draining it never finishes. nextCalls counts Next
// invocations so tests can prove the drain stopped early.
type slowInfiniteOp struct {
	schema colfile.Schema
	calls  int
}

func (s *slowInfiniteOp) Schema() colfile.Schema { return s.schema }

func (s *slowInfiniteOp) Next() (*colfile.Batch, error) {
	s.calls++
	if s.calls > 1_000_000 {
		return nil, errors.New("slowInfiniteOp drained to the cap: cancellation did not propagate")
	}
	b := colfile.NewBatch(s.schema)
	if err := b.AppendRow(int64(s.calls)); err != nil {
		return nil, err
	}
	return b, nil
}

// TestRunIndexedCancelsInflightUnits pins the cancellation bugfix: when one
// unit fails, a sibling already draining its operator must stop at the next
// batch boundary (CollectCtx observes the pool's cancelled context) instead
// of draining to completion — previously only un-started units were skipped,
// so an in-flight worker paid its full scan/probe/spill cost after the query
// was already doomed.
func TestRunIndexedCancelsInflightUnits(t *testing.T) {
	schema := colfile.Schema{{Name: "x", Type: colfile.Int64}}
	boom := errors.New("boom")
	started := make(chan struct{})
	_, err := RunIndexed(context.Background(), 2, 2, func(i int) (Operator, error) {
		if i == 0 {
			// Fail only once the sibling is provably mid-drain.
			<-started
			return nil, boom
		}
		op := &slowInfiniteOp{schema: schema}
		close(started)
		return op, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom (infinite sibling must be cancelled, not drained)", err)
	}
}

// TestForEachIndexedHonorsCallerContext pins that a cancelled caller context
// stops the pool before (or mid-way through) the work and surfaces the
// cancellation error.
func TestForEachIndexedHonorsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEachIndexed(ctx, 8, 4, func(_ context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d units ran under a pre-cancelled context", n)
	}
}

// TestRunIndexedSkipsNilBuilds pins RunIndexed's (nil, nil) contract, which
// the join pipeline leans on to skip morsels a spilled join's barrier left
// empty: a nil operator skips the index, and a unit that produces no rows
// yields nil too.
func TestRunIndexedSkipsNilBuilds(t *testing.T) {
	schema := colfile.Schema{{Name: "x", Type: colfile.Int64}}
	full := colfile.NewBatch(schema)
	if err := full.AppendRow(int64(7)); err != nil {
		t.Fatal(err)
	}
	in := []*colfile.Batch{nil, colfile.NewBatch(schema), full}
	outs, err := RunIndexed(context.Background(), len(in), 4, func(i int) (Operator, error) {
		if in[i] == nil {
			return nil, nil
		}
		return NewBatchSource(in[i]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] != nil || outs[1] != nil {
		t.Fatalf("skipped/empty units produced non-nil outputs: %v", outs[:2])
	}
	if outs[2] == nil || outs[2].NumRows() != 1 {
		t.Fatalf("live input lost: %v", outs[2])
	}
}

// prefixUnits returns n single-batch units for the RunIndexedPrefix tests —
// unit i holds the one row (i) — and a counter of how many were ever built.
func prefixUnits(t *testing.T, n int) (func(i int) (Operator, error), *atomic.Int64) {
	t.Helper()
	schema := colfile.Schema{{Name: "x", Type: colfile.Int64}}
	var built atomic.Int64
	return func(i int) (Operator, error) {
		built.Add(1)
		b := colfile.NewBatch(schema)
		if err := b.AppendRow(int64(i)); err != nil {
			return nil, err
		}
		return NewBatchSource(b), nil
	}, &built
}

// TestRunIndexedPrefixStopsEarly: a bare LIMIT's fan-out builds O(dop) units,
// not all of them, returns the in-order prefix, and does not report the units
// its own stop cancelled as errors.
func TestRunIndexedPrefixStopsEarly(t *testing.T) {
	const n, dop = 64, 2
	for iter := 0; iter < 50; iter++ {
		build, built := prefixUnits(t, n)
		outs, err := RunIndexedPrefix(context.Background(), n, dop, 1, build)
		if err != nil {
			t.Fatalf("iter %d: stopped fan-out returned %v", iter, err)
		}
		if got := built.Load(); got > dop+1 {
			t.Fatalf("iter %d: built %d of %d units for LIMIT 1 at dop %d, want <= %d", iter, got, n, dop, dop+1)
		}
		if len(outs) != n || outs[0] == nil || outs[0].NumRows() != 1 || outs[0].Row(0)[0] != int64(0) {
			t.Fatalf("iter %d: result is not the first row of unit 0: %v", iter, outs[0])
		}
	}

	// A limit the units never fill runs every unit, like RunIndexed.
	build, built := prefixUnits(t, n)
	outs, err := RunIndexedPrefix(context.Background(), n, dop, n+1, build)
	if err != nil || built.Load() != n {
		t.Fatalf("unfilled limit: err=%v built=%d, want nil and %d", err, built.Load(), n)
	}
	for i, b := range outs {
		if b == nil || b.Row(0)[0] != int64(i) {
			t.Fatalf("unfilled limit: unit %d = %v", i, b)
		}
	}

	// LIMIT 0 reads nothing, so nothing is built.
	build, built = prefixUnits(t, n)
	if _, err := RunIndexedPrefix(context.Background(), n, dop, 0, build); err != nil || built.Load() != 0 {
		t.Fatalf("limit 0: err=%v built=%d, want nil and 0", err, built.Load())
	}
}

// TestRunIndexedPrefixReturnsFailures: a unit that fails before the prefix
// fills is the fan-out's error (and wakes the workers held back by the
// look-ahead window), and a cancellation of the caller's context wins over a
// filled prefix.
func TestRunIndexedPrefixReturnsFailures(t *testing.T) {
	const n, dop = 64, 2
	boom := errors.New("unit 0 failed")
	build, _ := prefixUnits(t, n)
	unit1 := make(chan struct{}) // unit 0 fails once the other worker is past unit 1, i.e. at the window
	_, err := RunIndexedPrefix(context.Background(), n, dop, 8, func(i int) (Operator, error) {
		switch i {
		case 0:
			<-unit1
			return nil, boom
		case 1:
			close(unit1)
		}
		return build(i)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the unit failure", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	build, _ = prefixUnits(t, n)
	_, err = RunIndexedPrefix(ctx, n, dop, 1, func(i int) (Operator, error) {
		cancel()
		return build(i)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the caller's context", err)
	}
}

// TestRunIndexedPrefixOuterCancelWakesParkedWorkers: cancelling the caller's
// context while unit 0 is in flight and the other workers are parked at the
// look-ahead window must wake them — a statement cancelled mid-LIMIT returns
// instead of holding its lease forever. The wake-up races the cancellation's
// propagation through the derived contexts, so the case is repeated.
func TestRunIndexedPrefixOuterCancelWakesParkedWorkers(t *testing.T) {
	const n, dop = 64, 4
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	for iter := 0; iter < iters; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		build, _ := prefixUnits(t, n)
		release := make(chan struct{})
		var ahead atomic.Int64 // units [1, dop) built: the next claims park
		done := make(chan error, 1)
		go func() {
			_, err := RunIndexedPrefix(ctx, n, dop, n, func(i int) (Operator, error) {
				if i == 0 {
					<-release
				} else if ahead.Add(1) == dop-1 {
					go func() {
						runtime.Gosched() // let the workers reach the window
						cancel()
						close(release)
					}()
				}
				return build(i)
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iter %d: err = %v, want context.Canceled", iter, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iter %d: fan-out hung after its context was cancelled", iter)
		}
	}
}

// TestMorselScanOpensItsFileOnce: a scan that parses its first file's footer
// once for the schema and again to read it doubles the footer work of every
// morsel's first file — and of every file when a morsel holds one, as the
// row-group windows of a large file and the morsels of a table with fewer
// files than the split wants do. Counted in allocations, which repeat
// exactly: over a wide file read through a one-column projection the footer
// parse dominates, so NewMorselScan plus the drain must stay under two footer
// parses.
func TestMorselScanOpensItsFileOnce(t *testing.T) {
	schema := make(colfile.Schema, 32)
	row := make([]any, len(schema))
	for c := range schema {
		schema[c] = colfile.Field{Name: fmt.Sprintf("c%02d", c), Type: colfile.Int64}
		row[c] = int64(c)
	}
	file := makeFile(t, schema, [][][]any{{row, row, row}})
	morsels := SplitMorsels([]ScanFile{{R: mustOpen(t, file)}}, 4)
	if len(morsels) != 1 {
		t.Fatalf("%d morsels for one single-group file", len(morsels))
	}
	open := testing.AllocsPerRun(20, func() {
		if _, err := colfile.OpenReader(file); err != nil {
			t.Fatal(err)
		}
	})
	scan := testing.AllocsPerRun(20, func() {
		s, err := NewMorselScan(morsels[0], []string{"c07"}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Collect(s)
		if err != nil {
			t.Fatal(err)
		}
		if b.NumRows() != 3 {
			t.Fatalf("scanned %d rows, want 3", b.NumRows())
		}
	})
	if scan >= 2*open {
		t.Fatalf("scan + drain made %.0f allocations, opening the file makes %.0f: the footer was parsed twice", scan, open)
	}
}
