//go:build !race

// The race detector makes sync.Pool drop a random share of what it is given,
// so the pool gates run without it.

package exec

import "testing"

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
