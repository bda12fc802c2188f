package exec

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"polaris/internal/colfile"
)

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// constHeavyExpr reads one column against four integer, one float, one
// string and one NULL literal.
func constHeavyExpr() Expr {
	or := func(l, r Expr) Expr { return Bin{Kind: OpOr, L: l, R: r} }
	eq := func(v any) Expr { return Bin{Kind: OpEq, L: col("i1"), R: Const{Val: v}} }
	return or(or(or(eq(int64(1)), eq(int64(2))), or(eq(int64(3)), eq(int64(4)))),
		or(Bin{Kind: OpLt, L: col("f2"), R: Const{Val: 0.5}},
			or(Bin{Kind: OpEq, L: col("s1"), R: Const{Val: "x"}}, IsNull{E: Const{Val: nil}})))
}

// TestProgConstantsBroadcastOnce: a program broadcasts its constants once and
// every ctx shares them, so Prog.Run on a fresh ctx allocates its kernel
// scratch and a few slot headers — nothing proportional to the batch for a
// constant slot — and gets the same answer as the first ctx did.
func TestProgConstantsBroadcastOnce(t *testing.T) {
	const n = 4096
	b := goldenBatch(n)
	e := constHeavyExpr()
	p, err := Compile(e, goldenSchema)
	if err != nil {
		t.Fatal(err)
	}
	want, err := evalScalar(e, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(p.NewCtx(), b); err != nil { // the one broadcast
		t.Fatal(err)
	}
	var scratch uint64 // what the kernel outputs may need: a payload and a NULL bitmap each
	for _, s := range p.slots {
		if s.kind == slotScratch {
			lane := map[colfile.DataType]uint64{colfile.Int64: 8, colfile.Float64: 8, colfile.String: 16, colfile.Bool: 1}[s.typ]
			scratch += (lane + 1) * n
		}
	}
	const runs = 10
	var v *colfile.Vec
	per := allocatedBy(func() {
		for i := 0; i < runs; i++ {
			if v, err = p.Run(p.NewCtx(), b); err != nil {
				t.Fatal(err)
			}
		}
	}) / runs
	for i := 0; i < n; i++ {
		if v.Value(i) != want.Value(i) {
			t.Fatalf("row %d: %v, want %v", i, v.Value(i), want.Value(i))
		}
	}
	if per > scratch+n {
		t.Fatalf("Run on a fresh ctx allocates %d bytes over %d rows, want at most the scratch's %d + %d: constants are broadcast per ctx", per, n, scratch, n)
	}
	if err := p.CheckConstants(); err != nil {
		t.Fatal(err)
	}
}

// TestProgConstantsGrowUnderConcurrentRuns: contexts on many goroutines run
// one program over batches of varying length, so the shared constants grow
// while others read them; every run sees its literals on every lane, and the
// broadcast stays intact.
func TestProgConstantsGrowUnderConcurrentRuns(t *testing.T) {
	e := constHeavyExpr()
	p, err := Compile(e, goldenSchema)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 7, 64, 300, 1024, 2500, 5000}
	batches := make([]*colfile.Batch, len(sizes))
	wants := make([]*colfile.Vec, len(sizes))
	for i, n := range sizes {
		batches[i] = goldenBatch(n)
		if wants[i], err = evalScalar(e, batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := p.NewCtx()
			for iter := 0; iter < 3*len(sizes); iter++ {
				k := (w + iter) % len(sizes)
				v, err := p.Run(ctx, batches[k])
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < sizes[k]; i++ {
					if v.Value(i) != wants[k].Value(i) {
						errs <- fmt.Errorf("%d rows, row %d: %v, want %v", sizes[k], i, v.Value(i), wants[k].Value(i))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := p.CheckConstants(); err != nil {
		t.Fatal(err)
	}
}
