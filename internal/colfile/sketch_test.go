package colfile

import "testing"

func intVec(vals ...int64) *Vec {
	v := NewVec(Int64)
	for _, x := range vals {
		v.AppendInt(x)
	}
	return v
}

func TestSketchNDVExact(t *testing.T) {
	// Well below the bitmap's resolution, linear counting is near-exact.
	for _, distinct := range []int64{1, 7, 50, 200} {
		var s ColSketch
		v := NewVec(Int64)
		for i := int64(0); i < distinct*4; i++ {
			v.AppendInt(i % distinct) // each value observed 4 times
		}
		s.Observe(v)
		got := s.NDV()
		lo, hi := distinct-distinct/10-1, distinct+distinct/10+1
		if got < lo || got > hi {
			t.Errorf("distinct=%d: NDV = %d, want within [%d, %d]", distinct, got, lo, hi)
		}
	}
}

func TestSketchNDVClampedToRows(t *testing.T) {
	var s ColSketch
	s.Observe(intVec(1, 2, 3))
	if got := s.NDV(); got < 1 || got > 3 {
		t.Fatalf("NDV = %d, want in [1, 3]", got)
	}
	// A saturated or missing bitmap falls back to the non-NULL row count.
	s.Bitmap = nil
	if got := s.NDV(); got != 3 {
		t.Fatalf("nil-bitmap NDV = %d, want rows (3)", got)
	}
}

func TestSketchMinMaxAndNulls(t *testing.T) {
	var s ColSketch
	v := NewVec(Int64)
	v.AppendInt(42)
	v.AppendNull()
	v.AppendInt(-7)
	v.AppendInt(13)
	s.Observe(v)
	if s.Rows != 4 || s.Stats.NullCount != 1 || s.NonNullRows() != 3 {
		t.Fatalf("rows=%d nulls=%d nonNull=%d", s.Rows, s.Stats.NullCount, s.NonNullRows())
	}
	if s.Stats.MinInt == nil || *s.Stats.MinInt != -7 || s.Stats.MaxInt == nil || *s.Stats.MaxInt != 42 {
		t.Fatalf("min/max = %v/%v, want -7/42", s.Stats.MinInt, s.Stats.MaxInt)
	}
}

func TestSketchMergeUnionsDistincts(t *testing.T) {
	var a, b ColSketch
	a.Observe(intVec(1, 2, 3, 4))
	b.Observe(intVec(3, 4, 5, 6))
	a.Merge(b)
	if a.Rows != 8 {
		t.Fatalf("merged rows = %d, want 8", a.Rows)
	}
	// The union has 6 distinct values; the OR of the bitmaps must not count
	// the overlap twice.
	if got := a.NDV(); got < 5 || got > 7 {
		t.Fatalf("merged NDV = %d, want ≈6", got)
	}
	if *a.Stats.MinInt != 1 || *a.Stats.MaxInt != 6 {
		t.Fatalf("merged min/max = %d/%d", *a.Stats.MinInt, *a.Stats.MaxInt)
	}
}

func TestSketchMergeUnknownNDV(t *testing.T) {
	// Merging with a pre-sketch file (values observed, no bitmap) poisons the
	// NDV to "unknown = row count", never to a fabricated number.
	var a ColSketch
	a.Observe(intVec(1, 2))
	pre := ColSketch{Rows: 10, Stats: ColStats{NullCount: 10}}
	a.Merge(pre) // all-NULL other side: nothing new to count
	if a.Bitmap == nil {
		t.Fatal("merging a value-free sketch must keep the bitmap")
	}
	pre = ColSketch{Rows: 10}
	a.Merge(pre) // 10 non-NULL rows, nil bitmap → unknown
	if a.Bitmap != nil {
		t.Fatal("merging a bitmap-less sketch with non-NULL rows must drop the bitmap")
	}
	if got := a.NDV(); got != a.NonNullRows() {
		t.Fatalf("unknown NDV = %d, want non-NULL rows %d", got, a.NonNullRows())
	}
}

func TestSketchMergeAdoptsBitmapIntoEmpty(t *testing.T) {
	var empty, full ColSketch
	full.Observe(intVec(1, 2, 3))
	empty.Merge(full)
	if empty.Bitmap == nil {
		t.Fatal("zero-value sketch must adopt the other side's bitmap")
	}
	if got := empty.NDV(); got < 2 || got > 4 {
		t.Fatalf("adopted NDV = %d, want ≈3", got)
	}
	// The adoption is a copy: mutating the source must not alias.
	full.Bitmap[0] = 0xFF
	if empty.Bitmap[0] == 0xFF && full.Bitmap[0] == empty.Bitmap[0] && &full.Bitmap[0] == &empty.Bitmap[0] {
		t.Fatal("adopted bitmap aliases the source")
	}
}

func TestSketchSaturation(t *testing.T) {
	// Far past sketchBits distinct values the bitmap saturates and the
	// estimate degrades to the row count — an upper bound, never a panic.
	var s ColSketch
	v := NewVec(Int64)
	for i := int64(0); i < 100_000; i++ {
		v.AppendInt(i)
	}
	s.Observe(v)
	if got := s.NDV(); got != 100_000 {
		t.Fatalf("saturated NDV = %d, want the row-count upper bound", got)
	}
}
