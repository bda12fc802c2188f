//go:build !race

// The race detector makes sync.Pool drop a random share of what it is given,
// so the pool gates run without it.

package exec

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"polaris/internal/colfile"
	"polaris/internal/deletevector"
)

// TestProbeScratchOutlivesMorsel: a probe that drains to the end of its
// stream gives its scratch back, so the next morsel's probe allocates its
// output and nothing else — no index lists, no hash chunk.
func TestProbeScratchOutlivesMorsel(t *testing.T) {
	const rows = 4096
	in := distinctKeyBatch(t, rows)
	jt, err := BuildHashJoin(NewBatchSource(in), []int{0}, InnerJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	drain := func() {
		out, err := Collect(&Probe{In: NewBatchSource(in), Table: jt, LeftKeys: []int{0}, Cols: []int{1}})
		if err != nil || out.NumRows() != rows {
			t.Fatalf("probe: %d rows, err %v", out.NumRows(), err)
		}
	}
	drain() // the first morsel sizes the scratch
	const morsels = 10
	per := allocatedBy(func() {
		for i := 0; i < morsels; i++ {
			drain()
		}
	}) / morsels
	// Collect's output column and the probe's gather are a lane each; the
	// index lists alone would add two more, the hash chunk a third.
	if bound := uint64(2*rows*8 + rows*8/2); per > bound {
		t.Fatalf("a warm probe of %d rows allocates %d bytes, want at most %d: its scratch was allocated again", rows, per, bound)
	}
}

// spillGateBytesPerRow bounds what JoinBatches allocates per probe row in
// TestSpilledJoinAllocationGate: 182 bytes measured (linux/amd64, Go 1.24)
// plus 25 % headroom. The row-at-a-time spill writer and placement that the
// column-at-a-time ones replaced allocated 461.
const spillGateBytesPerRow = 228

// TestSpilledJoinAllocationGate: a spilled join moves columns, not rows. A
// 64 K-row probe of three columns, two of them read by nothing above the
// join, against a spilled build at a 4 KiB budget: JoinBatches allocates at
// most spillGateBytesPerRow bytes per probe row, averaged over five calls.
func TestSpilledJoinAllocationGate(t *testing.T) {
	const buildRows, probeRows, morsel = 4096, 64 << 10, 4096
	build := colfile.NewBatch(colfile.Schema{{Name: "bk", Type: colfile.Int64}, {Name: "tag", Type: colfile.Int64}})
	for i := 0; i < buildRows; i++ {
		build.Cols[0].AppendInt(int64(i))
		build.Cols[1].AppendInt(int64(i) * 3)
	}
	probeSchema := colfile.Schema{{Name: "k", Type: colfile.Int64}, {Name: "v", Type: colfile.Int64}, {Name: "s", Type: colfile.String}}
	var probe []*colfile.Batch
	for lo := 0; lo < probeRows; lo += morsel {
		b := colfile.NewBatch(probeSchema)
		for i := lo; i < lo+morsel; i++ {
			b.Cols[0].AppendInt(int64(i % (2 * buildRows))) // half the rows match
			b.Cols[1].AppendInt(int64(i))
			b.Cols[2].AppendStr(fmt.Sprintf("row-%06d", i))
		}
		probe = append(probe, b)
	}
	src, err := BuildGraceJoin(NewBatchSource(build), []int{0}, InnerJoin, 1, SpillConfig{Budget: 4 << 10, Store: NewMemSpillStore()})
	if err != nil || src.Spilled == nil {
		t.Fatalf("grace build: spilled=%v err=%v", src != nil && src.Spilled != nil, err)
	}
	cols := []int{1, 4} // v and the build side's tag
	join := func() {
		outs, _, err := src.Spilled.JoinBatches(context.Background(), probe, []int{0}, probeSchema, cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, b := range outs {
			if b != nil {
				rows += b.NumRows()
			}
		}
		if rows != probeRows/2 {
			t.Fatalf("join emitted %d rows, want %d", rows, probeRows/2)
		}
	}
	join() // the first call warms the probe scratch pool
	const runs = 5
	per := allocatedBy(func() {
		for i := 0; i < runs; i++ {
			join()
		}
	}) / runs / probeRows
	t.Logf("JoinBatches allocates %d bytes per probe row", per)
	if per > spillGateBytesPerRow {
		t.Fatalf("JoinBatches allocates %d bytes per probe row, want at most %d", per, spillGateBytesPerRow)
	}
}

// pushedScanFile is one row group of rows rows whose k is its row number.
func pushedScanFile(t *testing.T, rows int) *colfile.Reader {
	schema := colfile.Schema{{Name: "k", Type: colfile.Int64}, {Name: "v", Type: colfile.Int64}}
	group := make([][]any, rows)
	for i := range group {
		group[i] = []any{int64(i), int64(i % 7)}
	}
	return mustOpen(t, makeFile(t, schema, [][][]any{group}))
}

// scanOnce drains a pushed scan of files under pred and returns its batches.
func scanOnce(t *testing.T, files []ScanFile, pred *Prog) []*colfile.Batch {
	s, err := NewScan(files, nil, pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []*colfile.Batch
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		out = append(out, b)
	}
}

// TestPushedScanSelectionSizedToSurvivors: a pushed scan's selection holds
// exactly the row group's survivors — one entry for a point predicate, not
// one per row — and none at all when every row passes and no row is deleted.
// When a deletion vector removed some rows and every live row passes, the
// selection is an exact copy of the live rows (the scan's own live selection
// is pooled scratch and never leaves it).
func TestPushedScanSelectionSizedToSurvivors(t *testing.T) {
	const rows = 4096
	r := pushedScanFile(t, rows)
	schema := r.Schema()
	k := ColRef{Idx: 0, Name: "k"}
	point := prog(t, schema, Bin{Kind: OpEq, L: k, R: Const{Val: int64(1234)}})
	every := prog(t, schema, Bin{Kind: OpGe, L: k, R: Const{Val: int64(0)}})

	out := scanOnce(t, []ScanFile{{R: r}}, point)
	if len(out) != 1 || len(out[0].Sel) != 1 || cap(out[0].Sel) != 1 || out[0].Sel[0] != 1234 {
		t.Fatalf("point scan: %d batches, want one whose selection is [1234] with capacity 1 (got %v)", len(out), out)
	}

	out = scanOnce(t, []ScanFile{{R: r}}, every)
	if len(out) != 1 || out[0].Sel != nil || out[0].NumRows() != rows {
		t.Fatalf("every row passes: want one dense batch of %d rows, got %d batches", rows, len(out))
	}

	deleted := []uint32{3, 100, 4095}
	out = scanOnce(t, []ScanFile{{R: r, DV: deletevector.FromRows(deleted)}}, every)
	if len(out) != 1 {
		t.Fatalf("every live row passes: %d batches, want 1", len(out))
	}
	var want []int
	for i := 0; i < rows; i++ {
		if !slices.Contains(deleted, uint32(i)) {
			want = append(want, i)
		}
	}
	if sel := out[0].Sel; !slices.Equal(sel, want) || cap(sel) != len(want) {
		t.Fatalf("every live row passes: selection of %d entries (capacity %d), want the %d live rows exactly", len(sel), cap(sel), len(want))
	}
}

// TestPushedScanPredicateScratchOutlivesScan: a pushed scan's predicate
// context goes back to the pool at end of stream, so the next scan of the
// same shape allocates no kernel scratch: a point scan of one 4,096-row group
// allocates less than its predicate's 4,096-lane BOOL output would take.
func TestPushedScanPredicateScratchOutlivesScan(t *testing.T) {
	const rows = 4096
	r := pushedScanFile(t, rows)
	k := ColRef{Idx: 0, Name: "k"}
	point := prog(t, r.Schema(), Bin{Kind: OpEq, L: k, R: Const{Val: int64(1234)}})
	files := []ScanFile{{R: r}}
	scanOnce(t, files, point) // the first scan sizes the scratch
	const scans = 10
	per := allocatedBy(func() {
		for i := 0; i < scans; i++ {
			scanOnce(t, files, point)
		}
	}) / scans
	t.Logf("a warm pushed scan allocates %d bytes", per)
	if per >= rows {
		t.Fatalf("a warm pushed scan of %d rows allocates %d bytes, want fewer than %d: its predicate scratch was allocated again", rows, per, rows)
	}
}

// TestReleasedCtxKeepsConstants: a context that ran a program with a
// constant in slot 1 and was released may run a program whose slot 1 is
// kernel scratch — the pooled scan context does exactly that — and the
// first program's broadcast constants stay intact.
func TestReleasedCtxKeepsConstants(t *testing.T) {
	schema := colfile.Schema{{Name: "b", Type: colfile.Bool}}
	b := colfile.NewBatch(schema)
	for i := 0; i < 64; i++ {
		b.Cols[0].AppendBool(i%2 == 0)
	}
	flag := ColRef{Idx: 0, Name: "b"}
	withConst := prog(t, schema, Bin{Kind: OpOr, L: flag, R: Const{Val: true}}) // slot 1: TRUE
	withScratch := prog(t, schema, Bin{Kind: OpOr, L: Not{E: flag}, R: flag})   // slot 1: NOT b
	if withConst.slots[1].kind != slotConst || withScratch.slots[1].kind != slotScratch {
		t.Fatal("the programs no longer put a constant and scratch in slot 1")
	}
	ctx := &EvalCtx{}
	if _, err := withConst.Run(ctx, b); err != nil {
		t.Fatal(err)
	}
	ctx.release(withConst)
	v, err := withScratch.Run(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range v.Bools {
		if !x {
			t.Fatalf("NOT b OR b is FALSE on lane %d", i)
		}
	}
	if err := withConst.CheckConstants(); err != nil {
		t.Fatal(err)
	}
}

// TestPushedBetweenScanAllocatesNothingForItsPredicate: a statement compiles
// its own predicate, so a point UPDATE's `k BETWEEN lo AND hi` is a new
// program on every statement. Pushed into a warm scan of a row group none of
// whose rows it passes (and whose zone map it cannot prune), the new program
// allocates nothing beyond its compilation: no broadcast literal, no kernel
// scratch. The file's k is even and the range holds one odd value.
func TestPushedBetweenScanAllocatesNothingForItsPredicate(t *testing.T) {
	const rows = 4096
	schema := colfile.Schema{{Name: "k", Type: colfile.Int64}, {Name: "v", Type: colfile.Int64}}
	group := make([][]any, rows)
	for i := range group {
		group[i] = []any{int64(2 * i), int64(i % 7)}
	}
	files := []ScanFile{{R: mustOpen(t, makeFile(t, schema, [][][]any{group}))}}
	k := ColRef{Idx: 0, Name: "k"}
	between := func() *Prog {
		return prog(t, schema, Bin{Kind: OpAnd,
			L: Bin{Kind: OpGe, L: k, R: Const{Val: int64(1001)}},
			R: Bin{Kind: OpLe, L: k, R: Const{Val: int64(1001)}}})
	}
	warm := between()
	if out := scanOnce(t, files, warm); len(out) != 0 {
		t.Fatalf("the scan returned %d batches, want none", len(out))
	}
	const runs = 20
	compile := testing.AllocsPerRun(runs, func() { between() })
	shared := testing.AllocsPerRun(runs, func() { scanOnce(t, files, warm) })
	fresh := testing.AllocsPerRun(runs, func() { scanOnce(t, files, between()) })
	if fresh > compile+shared {
		t.Fatalf("a pushed BETWEEN scan with a new program allocates %v times, want at most %v (%v to compile, %v to scan with a warm program): the predicate allocates while it runs", fresh, compile+shared, compile, shared)
	}
}

// TestPushedScanConsultsDeletionVectorOnlyForSurvivors: the pushed predicate
// runs before the deletion vector. A warm pushed scan over row groups that
// each carry deleted rows and hold no survivor allocates nothing per group
// and never takes the pooled live selection; a group whose only passing rows
// are deleted returns no batch, and neither takes the live selection.
func TestPushedScanConsultsDeletionVectorOnlyForSurvivors(t *testing.T) {
	const groupRows = 512
	schema := colfile.Schema{{Name: "k", Type: colfile.Int64}, {Name: "v", Type: colfile.Int64}}
	file := func(groups int) ScanFile {
		all := make([][][]any, groups)
		var deleted []uint32
		for g := range all {
			all[g] = make([][]any, groupRows)
			for i := range all[g] {
				row := g*groupRows + i
				all[g][i] = []any{int64(2 * (i*groups + g)), int64(i % 7)} // every group spans the key range: no zone map prunes
				if row%3 == 0 {
					deleted = append(deleted, uint32(row))
				}
			}
		}
		return ScanFile{R: mustOpen(t, makeFile(t, schema, all)), DV: deletevector.FromRows(deleted)}
	}
	one, many := []ScanFile{file(1)}, []ScanFile{file(16)}
	k := ColRef{Idx: 0, Name: "k"}
	odd := prog(t, schema, Bin{Kind: OpAnd,
		L: Bin{Kind: OpGe, L: k, R: Const{Val: int64(1001)}},
		R: Bin{Kind: OpLe, L: k, R: Const{Val: int64(1001)}}})
	if out := scanOnce(t, many, odd); len(out) != 0 {
		t.Fatalf("the scan returned %d batches, want none", len(out))
	}
	const runs = 20
	perOne := testing.AllocsPerRun(runs, func() { scanOnce(t, one, odd) })
	perMany := testing.AllocsPerRun(runs, func() { scanOnce(t, many, odd) })
	if perMany != perOne {
		t.Fatalf("a warm pushed scan without survivors allocates %v times over 16 row groups and %v over one: want nothing per group", perMany, perOne)
	}

	// Group 3's keys 2*(i*16+3): i = 0 and 2 give 6 and 70, rows 1536 and
	// 1538, both deleted (1536%3 == 0; 1538 is added). Group 5's key 10
	// (row 2560) passes and is live. The first batch is group 5's, so group
	// 3 returned none, and the live selection is still untaken mid-stream.
	f := ScanFile{R: many[0].R, DV: deletevector.New().Union(many[0].DV)}
	f.DV.Add(3*groupRows + 2)
	eq := func(v int64) Expr { return Bin{Kind: OpEq, L: k, R: Const{Val: v}} }
	pred := prog(t, schema, Bin{Kind: OpOr, L: Bin{Kind: OpOr, L: eq(6), R: eq(70)}, R: eq(10)})
	s, err := NewScan([]ScanFile{f}, nil, pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Next()
	if err != nil || b == nil || !slices.Equal(b.Sel, []int{0}) {
		t.Fatalf("deleted matches in group 3, a live one in group 5: batch %v, %v; want group 5's offset 0 alone", b, err)
	}
	if file, ords := s.Ordinals(); file != 0 || !slices.Equal(ords, []uint32{5 * groupRows}) {
		t.Fatalf("Ordinals = %d, %v; want file 0, row %d", file, ords, 5*groupRows)
	}
	if s.live != nil {
		t.Fatal("the pushed scan took the pooled live selection")
	}
	if b, err := s.Next(); err != nil || b != nil {
		t.Fatalf("after group 5: batch %v, %v; want end of stream", b, err)
	}
}

// TestCompileRendersNothing: Compile keeps the expression and renders it
// only when String is asked, so a statement that compiles a point range
// pays for its program, not for its text: compiling `k >= 1001 AND k <=
// 1010` takes 7 allocations, 15 when Compile rendered it. The gate sits at 8.
func TestCompileRendersNothing(t *testing.T) {
	schema := colfile.Schema{{Name: "k", Type: colfile.Int64}, {Name: "v", Type: colfile.Int64}}
	k := ColRef{Idx: 0, Name: "k"}
	e := Expr(Bin{Kind: OpAnd,
		L: Bin{Kind: OpGe, L: k, R: Const{Val: int64(1001)}},
		R: Bin{Kind: OpLe, L: k, R: Const{Val: int64(1010)}}})
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Compile(e, schema); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("compiling %v allocates %v times, want at most 8", e, allocs)
	}
	if got, want := prog(t, schema, e).String(), e.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
