package colfile

import (
	"bytes"
	"strings"
	"testing"

	"polaris/internal/wire"
)

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

// bitmapWith returns a dense bitmap with exactly the given bits set.
func bitmapWith(bits ...int) NDVBitmap {
	b := make(NDVBitmap, sketchBits/8)
	for _, bit := range bits {
		b[bit/8] |= 1 << (bit % 8)
	}
	return b
}

// TestNDVBitmapWireForms pins the hand-written wire forms of a sketch's
// bitmap, as AppendSketches writes one sketch: the count, the NULL count, no
// zone-map flags, then the bitmap's length plus one — 0 for nil, 1 for an
// all-NULL column's empty form — and the sparse positions when they are
// shorter or the dense bytes when not. The rows are not on the wire. Each
// decodes back to its bitmap, with the rows ReadSketches is given.
func TestNDVBitmapWireForms(t *testing.T) {
	allNull := NewVec(Int64)
	allNull.AppendNull()
	allNull.AppendNull()
	var nullSk ColSketch
	nullSk.Observe(allNull)
	saturated := make(NDVBitmap, sketchBits/8)
	for i := range saturated {
		saturated[i] = 0xFF
	}
	for _, tc := range []struct {
		name   string
		sk     ColSketch
		want   []byte
		bitmap NDVBitmap
	}{
		{"nil is absent", ColSketch{Rows: 3}, []byte{1, 0, 0, 0}, nil},
		{"all-NULL is empty", nullSk, []byte{1, 2, 0, 1}, bitmapWith()},
		// Positions 0 and 2047: uvarints 0x00 and 0xFF 0x0F.
		{"bits 0 and 2047", ColSketch{Rows: 2, Bitmap: bitmapWith(0, 2047)}, []byte{1, 0, 0, 4, 0x00, 0xFF, 0x0F}, bitmapWith(0, 2047)},
		// 257 is the uvarint 0x81 0x02.
		{"saturated stays dense", ColSketch{Rows: 9, Bitmap: saturated}, append([]byte{1, 0, 0, 0x81, 0x02}, saturated...), saturated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := AppendSketches(nil, []ColSketch{tc.sk}); !bytes.Equal(got, tc.want) {
				t.Fatalf("AppendSketches = %x, want %x", got, tc.want)
			}
			r := wire.NewReader(tc.want)
			back := ReadSketches(r, tc.sk.Rows)
			if err := r.End("sketches"); err != nil || len(back) != 1 || back[0].Rows != tc.sk.Rows {
				t.Fatalf("ReadSketches = %+v, %v", back, err)
			}
			if b := back[0].Bitmap; (b == nil) != (tc.bitmap == nil) || !bytes.Equal(b, tc.bitmap) {
				t.Fatalf("decoded bitmap = %x (nil %v), want %x (nil %v)", b, b == nil, tc.bitmap, tc.bitmap == nil)
			}
		})
	}
}

// TestNDVBitmapDenseStaysReadable: a dense bitmap with few bits set, as
// written before the sparse form existed, decodes to the same bitmap and
// re-encodes to the sparse form.
func TestNDVBitmapDenseStaysReadable(t *testing.T) {
	want := bitmapWith(3, 700, 701)
	got, err := readNDV(want)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("decode dense = %x, %v", got, err)
	}
	// Positions 3, 700, 701: uvarints 0x03, 0xB9 0x05 (697) and 0x01.
	if enc := got.appendWire(nil); !bytes.Equal(enc, []byte{0x03, 0xB9, 0x05, 0x01}) {
		t.Fatalf("re-encode = %x, want 03b90501", enc)
	}
}

// TestNDVBitmapRejectsMalformed: every sparse form the encoder cannot write is
// an error, never a panic and never a bitmap. The damage every decoder shares
// is in TestDecodersRejectMalformedInput; these are the sparse form's own.
func TestNDVBitmapRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"position past the bitmap by delta", []byte{0xFF, 0x0F, 0x01}, "beyond 2048 bits"},
		{"duplicate position", []byte{0x05, 0x00}, "duplicate position 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := readNDV(tc.raw)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("readNDV(%x) = %x, %v; want an error containing %q", tc.raw, b, err, tc.want)
			}
		})
	}
}
