//go:build !race

// The race detector makes sync.Pool drop a random share of what it is given,
// so the pool gates run without it.

package exec

import (
	"context"
	"fmt"
	"testing"

	"polaris/internal/colfile"
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
