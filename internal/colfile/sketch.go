package colfile

import (
	"encoding/binary"
	"math"
	"math/bits"

	"polaris/internal/wire"
)

// ColSketch is the per-column statistics sketch a Writer computes while a
// file is sealed: row/NULL counts, file-level min/max, and a fixed-size
// linear-counting bitmap estimating the number of distinct values. Sketches
// ride on the manifest entry of every data file (not in its footer), so
// table-level statistics are a pure fold over the live file entries — DML
// keeps them fresh with no separate ANALYZE pass.
//
// The NDV bitmap is mergeable by bitwise OR (the sketch of a union of files
// is the OR of their bitmaps), which is exactly how table-level NDV is
// derived. Estimates are estimates: deletions are not subtracted (a file's
// sketch describes the rows it was sealed with), and the bitmap saturates
// after a few thousand distinct values (measured at sketchBits) — both
// acceptable for the planner, which only needs relative cardinalities.
type ColSketch struct {
	// Rows counts every value observed, NULLs included.
	Rows int64
	// Stats carries file-level min/max and the NULL count, in the same
	// shape as the per-chunk zone maps.
	Stats ColStats
	// Bitmap is the linear-counting bitmap (sketchBits bits). Nil means NDV
	// is unknown for this column (e.g. a merge involving a pre-sketch file).
	Bitmap NDVBitmap
}

// sketchBits sizes the linear-counting bitmap: 256 bytes per column per file
// in memory, and on the wire as little as a few bytes for a small file (see
// NDVBitmap). The estimate is coarse, which the planner tolerates since it
// only compares cardinalities. Measured on sequential integers (the generator
// of TestSketchSaturation, each value observed four times so the row-count
// clamp hides nothing): 3 % high at 100 distinct values, 15 % high at 500 and
// 37 % high at 1,000, and every bit is set from 3,072 distinct values on,
// where the estimate falls back to the row count. FNV-1a's low 11 bits nearly
// permute small sequential integers, so they collide less than linear
// counting assumes and fill the bitmap early. Distinct strings ("v" plus a
// counter) first set every bit at about 13.4 k, near the 2048·ln 2048 ≈
// 15.6 k expected of a uniform hash.
const sketchBits = 2048

// NDVBitmap is a sketch's linear-counting bitmap. In memory it is always
// dense (sketchBits/8 bytes) or nil. On the wire (AppendSketches: manifests
// and checkpoints) it is written raw in whichever of two forms is shorter:
//   - dense: the sketchBits/8 bitmap bytes;
//   - sparse: the positions of the set bits in ascending order, each written
//     as a uvarint delta from the previous one (the first from zero).
//
// The length tells them apart: exactly sketchBits/8 bytes is dense,
// anything else is sparse. Sparse is written only when shorter, so an
// all-zero bitmap (an all-NULL column) is the empty form and a file of n
// rows costs at most about 2n bytes. The sparse decoder accepts only the
// form the encoder writes.
type NDVBitmap []byte

// appendWire appends the shorter wire form of b, a dense bitmap.
func (b NDVBitmap) appendWire(dst []byte) []byte {
	start, prev := len(dst), 0
	for w := 0; w < len(b) && len(dst)-start < len(b); w += 8 {
		for x := binary.LittleEndian.Uint64(b[w:]); x != 0; x &= x - 1 {
			bit := w*8 + bits.TrailingZeros64(x)
			dst = binary.AppendUvarint(dst, uint64(bit-prev))
			prev = bit
		}
	}
	if len(dst)-start >= len(b) {
		return append(dst[:start], b...)
	}
	return dst
}

// readNDV reads either wire form into a dense bitmap of its own. A
// malformed sparse form is an error, never a panic.
func readNDV(raw []byte) (NDVBitmap, error) {
	if len(raw) == sketchBits/8 {
		return append(NDVBitmap(nil), raw...), nil
	}
	return decodeSparse(raw)
}

// decodeSparse expands the sparse wire form into a dense bitmap of its own.
func decodeSparse(raw []byte) (NDVBitmap, error) {
	dense := make(NDVBitmap, sketchBits/8)
	if err := walkSparse(raw, dense); err != nil {
		return nil, err
	}
	return dense, nil
}

// walkSparse checks the sparse wire form, rejecting every byte string the
// encoder cannot have written: beyond wire.Reader's rules, a form longer than
// dense, a position past the bitmap and a repeated position. It sets each
// position's bit in dense, or only checks when dense is nil.
func walkSparse(raw []byte, dense NDVBitmap) error {
	r := wire.NewReader(raw)
	if len(raw) > sketchBits/8 {
		r.Fail("sparse form longer than dense")
	}
	for prev := 0; r.Err() == nil && r.Pos() < len(raw); {
		first := r.Pos() == 0
		switch d := r.Uvarint("positions"); {
		case r.Err() != nil:
		case !first && d == 0:
			r.Fail("duplicate position %d", prev)
		case d >= uint64(sketchBits-prev):
			r.Fail("position %d+%d beyond %d bits", prev, d, sketchBits)
		default:
			prev += int(d)
			if dense != nil {
				dense[prev/8] |= 1 << (prev % 8)
			}
		}
	}
	return r.End("colfile: ndv bitmap")
}

// AppendSketches appends a file's per-column sketches: their count, then per
// column its zone map as a file footer writes one (appendStats) and its NDV
// bitmap — a uvarint of 0 for nil, else the length of its wire form plus
// one, then the form. A bitmap that is neither nil nor dense has no wire
// form and is written as nil: NDV unknown. Rows are not written: every
// column of a sealed file observes every row, so each sketch's rows are the
// file's, which its reader already holds.
func AppendSketches(dst []byte, sks []ColSketch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(sks)))
	var scratch [sketchBits / 8]byte
	for i := range sks {
		s := &sks[i]
		dst = appendStats(dst, &s.Stats)
		if len(s.Bitmap) != sketchBits/8 {
			dst = append(dst, 0)
			continue
		}
		form := s.Bitmap.appendWire(scratch[:0])
		dst = append(binary.AppendUvarint(dst, uint64(len(form))+1), form...)
	}
	return dst
}

// ReadSketches reads the sketches AppendSketches wrote for a file of rows
// rows, nil for none. A damaged sketch fails r.
func ReadSketches(r *wire.Reader, rows int64) []ColSketch {
	// A sketch is at least its NULL count, its flags and its bitmap's
	// length: three bytes.
	n := r.Count("sketches", 3)
	if n == 0 {
		return nil
	}
	sks := make([]ColSketch, n)
	z := statsReader{r: r, str: func() string { return r.String("zone-map string bytes") }}
	for i := range sks {
		s := &sks[i]
		s.Rows = rows
		z.read(&s.Stats)
		raw, ok := readBitmapForm(r)
		if !ok {
			continue
		}
		b, err := readNDV(raw)
		if err != nil {
			r.Fail("%w", err)
			return nil
		}
		s.Bitmap = b
	}
	if r.Err() != nil {
		return nil
	}
	return sks
}

// SkipSketches walks the sketches AppendSketches wrote under ReadSketches'
// checks and keeps none of them: it allocates no bitmap and no zone-map
// bound. A damaged sketch fails r as ReadSketches would.
func SkipSketches(r *wire.Reader) {
	n := r.Count("sketches", 3)
	for i := 0; i < n && r.Err() == nil; i++ {
		skipStats(r)
		raw, ok := readBitmapForm(r)
		if !ok || len(raw) == sketchBits/8 {
			continue
		}
		if err := walkSparse(raw, nil); err != nil {
			r.Fail("%w", err)
		}
	}
}

// readBitmapForm reads one sketch's bitmap wire form, aliasing r's bytes; ok
// is false for a nil bitmap or once r has failed.
func readBitmapForm(r *wire.Reader) (raw []byte, ok bool) {
	l := r.Uvarint("ndv bitmap bytes")
	if l == 0 {
		return nil, false
	}
	raw = r.Take("ndv bitmap bytes", r.Claim("ndv bitmap bytes", l-1, 1), 1)
	return raw, r.Err() == nil
}

// fnv64a hashes an encoded value for the NDV bitmap.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// Observe folds every value of v into the sketch.
func (s *ColSketch) Observe(v *Vec) {
	if s.Bitmap == nil {
		s.Bitmap = make([]byte, sketchBits/8)
	}
	var scratch []byte
	n := v.Len()
	for i := 0; i < n; i++ {
		if v.IsNull(i) {
			s.Stats.NullCount++
			continue
		}
		scratch = v.AppendKey(scratch[:0], i)
		bit := fnv64a(scratch) % sketchBits
		s.Bitmap[bit/8] |= 1 << (bit % 8)
	}
	s.Rows += int64(n)
	s.Stats = mergeColStats(s.Stats, computeStats(v))
}

// Merge folds another sketch into s (the sketch of the concatenation of the
// two files). A nil bitmap on either side with values observed makes the
// merged NDV unknown.
func (s *ColSketch) Merge(o ColSketch) {
	s.Rows += o.Rows
	nulls := s.Stats.NullCount + o.Stats.NullCount
	s.Stats = mergeColStats(s.Stats, o.Stats)
	s.Stats.NullCount = nulls
	switch {
	case o.Rows-int64(o.Stats.NullCount) == 0:
		// Nothing non-NULL on the other side: bitmap unchanged.
	case s.Rows-o.Rows-int64(nulls-o.Stats.NullCount) == 0 && s.Bitmap == nil:
		// This side had nothing non-NULL yet: adopt the other bitmap.
		s.Bitmap = append([]byte(nil), o.Bitmap...)
	case s.Bitmap == nil || o.Bitmap == nil || len(s.Bitmap) != len(o.Bitmap):
		s.Bitmap = nil // NDV unknown
	default:
		for i := range s.Bitmap {
			s.Bitmap[i] |= o.Bitmap[i]
		}
	}
}

// NonNullRows returns the number of non-NULL values observed.
func (s *ColSketch) NonNullRows() int64 { return s.Rows - int64(s.Stats.NullCount) }

// NDV estimates the number of distinct non-NULL values via linear counting:
// with m bits and z still zero, the estimate is m·ln(m/z). A saturated bitmap
// (z = 0) or a missing one estimates the non-NULL row count — the safe upper
// bound. The estimate is always clamped to [min(1, rows), rows].
func (s *ColSketch) NDV() int64 {
	rows := s.NonNullRows()
	if rows <= 0 {
		return 0
	}
	if s.Bitmap == nil {
		return rows
	}
	ones := int64(0)
	for _, b := range s.Bitmap {
		for x := b; x != 0; x &= x - 1 {
			ones++
		}
	}
	zero := int64(len(s.Bitmap))*8 - ones
	if zero == 0 {
		return rows
	}
	m := float64(len(s.Bitmap)) * 8
	est := int64(math.Round(m * math.Log(m/float64(zero))))
	if est > rows {
		est = rows
	}
	if est < 1 {
		est = 1
	}
	return est
}

// mergeColStats folds the min/max of two zone-map summaries. NULL counts are
// the caller's responsibility (Observe counts them row by row; Merge sums
// them) — the result keeps a's count untouched.
func mergeColStats(a, b ColStats) ColStats {
	out := a
	if b.MinInt != nil && (out.MinInt == nil || *b.MinInt < *out.MinInt) {
		out.MinInt = b.MinInt
	}
	if b.MaxInt != nil && (out.MaxInt == nil || *b.MaxInt > *out.MaxInt) {
		out.MaxInt = b.MaxInt
	}
	if b.MinFloat != nil && (out.MinFloat == nil || *b.MinFloat < *out.MinFloat) {
		out.MinFloat = b.MinFloat
	}
	if b.MaxFloat != nil && (out.MaxFloat == nil || *b.MaxFloat > *out.MaxFloat) {
		out.MaxFloat = b.MaxFloat
	}
	if b.MinStr != nil && (out.MinStr == nil || *b.MinStr < *out.MinStr) {
		out.MinStr = b.MinStr
	}
	if b.MaxStr != nil && (out.MaxStr == nil || *b.MaxStr > *out.MaxStr) {
		out.MaxStr = b.MaxStr
	}
	return out
}
