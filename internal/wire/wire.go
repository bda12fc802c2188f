// Package wire holds the one reader every binary format of the engine
// decodes through: a data file's footer and column chunks, a batch frame, a
// sketch's NDV bitmap, a deletion vector, a manifest block and a checkpoint
// (docs/ARCHITECTURE.md, "Data files"). Bytes from storage are bytes from
// outside the process, so the reader holds them all to one set of rules:
//   - the first error sticks, and every later read returns a zero value, so
//     a walk ends without sizing anything by what it read after the damage;
//   - a count is checked against the bytes left before anything is sized by
//     it (Count, Claim);
//   - a varint is canonical: not longer than its value needs, and inside 64
//     bits;
//   - a bool byte is 0 or 1;
//   - nothing follows the last value (End).
//
// A column's values are decoded by one typed loop, not a call per value.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader walks one byte string. The zero value reads nothing; NewReader
// starts a walk.
type Reader struct {
	b   []byte
	pos int
	err error
}

// NewReader returns a reader at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Fail records an error unless one is recorded already.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first error of the walk, if any.
func (r *Reader) Err() error { return r.err }

// Pos returns the offset of the next byte to read.
func (r *Reader) Pos() int { return r.pos }

// Len returns the number of bytes left, 0 once the walk has failed.
func (r *Reader) Len() int {
	if r.err != nil {
		return 0
	}
	return len(r.b) - r.pos
}

// End fails on trailing bytes and returns the walk's error, if any,
// prefixed by the name of the format ("colfile: footer").
func (r *Reader) End(format string) error {
	if r.err == nil && r.pos != len(r.b) {
		r.Fail("%d trailing bytes", len(r.b)-r.pos)
	}
	if r.err != nil {
		return fmt.Errorf("%s: %w", format, r.err)
	}
	return nil
}

// Uvarint reads a canonical uvarint.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	x, w := binary.Uvarint(r.b[r.pos:])
	switch {
	case w == 0:
		r.Fail("truncated varint at byte %d (%s)", r.pos, what)
	case w < 0:
		r.Fail("varint overflows 64 bits at byte %d (%s)", r.pos, what)
	case w > 1 && r.b[r.pos+w-1] == 0:
		r.Fail("non-minimal varint at byte %d (%s)", r.pos, what)
	default:
		r.pos += w
		return x
	}
	return 0
}

// Varint reads a zig-zag varint (binary.AppendVarint's) under Uvarint's
// rules.
func (r *Reader) Varint(what string) int64 {
	ux := r.Uvarint(what)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Varints fills dst with zig-zag varints. Like Strings, it walks a column in
// one typed loop with binary.Uvarint inlined, not a call per value, and
// hands a varint Uvarint would reject back to Uvarint to fail the walk.
func (r *Reader) Varints(what string, dst []int64) {
	for i := range dst {
		x, w := binary.Uvarint(r.b[r.pos:])
		if r.err != nil || w <= 0 || w > 1 && r.b[r.pos+w-1] == 0 {
			r.Uvarint(what)
			return
		}
		r.pos += w
		dst[i] = int64(x>>1) ^ -int64(x&1)
	}
}

// Claim checks that n items of at least width bytes each fit in the bytes
// left, and returns n, or 0 once the walk has failed.
func (r *Reader) Claim(what string, n uint64, width int) int {
	if r.err != nil || n > uint64((len(r.b)-r.pos)/width) {
		r.Fail("%d %s need more than the %d bytes left at byte %d", n, what, len(r.b)-r.pos, r.pos)
		return 0
	}
	return int(n)
}

// Count reads a uvarint announcing that many items of at least width bytes
// each, and claims them.
func (r *Reader) Count(what string, width int) int {
	return r.Claim(what, r.Uvarint(what), width)
}

// Take returns the next n items of width bytes each, or nil once the walk
// has failed. The slice aliases the input.
func (r *Reader) Take(what string, n, width int) []byte {
	n = r.Claim(what, uint64(n), width) * width
	if r.err != nil {
		return nil
	}
	r.pos += n
	return r.b[r.pos-n : r.pos]
}

// Byte reads one byte.
func (r *Reader) Byte(what string) byte {
	if b := r.Take(what, 1, 1); b != nil {
		return b[0]
	}
	return 0
}

// Float reads a float64 of 8 little-endian bytes.
func (r *Reader) Float(what string) float64 {
	if b := r.Take(what, 1, 8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Floats reads n float64s of 8 little-endian bytes each.
func (r *Reader) Floats(n int) []float64 {
	raw := r.Take("float64 values", n, 8)
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// Bools reads n bools of one byte each, 0 or 1.
func (r *Reader) Bools(n int) []bool {
	raw := r.Take("bool values", n, 1)
	out := make([]bool, len(raw))
	for i, x := range raw {
		if x > 1 {
			r.Fail("bool value %d is %d", i, x)
			return nil
		}
		out[i] = x == 1
	}
	return out
}

// String reads one length-prefixed string (AppendString's) into a string
// of its own.
func (r *Reader) String(what string) string {
	return string(r.Take(what, r.Count(what, 1), 1))
}

// Strings reads n length-prefixed strings. One walk checks every length and
// finds the run's end; the run is then copied once and the values sliced
// from the copy, so a string column costs two allocations however many rows
// it has and aliases nothing of the bytes it came from.
func (r *Reader) Strings(what string, n int) []string {
	start := r.pos
	n = r.Claim(what, uint64(n), 1)
	for i := 0; i < n; i++ {
		l, w := binary.Uvarint(r.b[r.pos:])
		if r.err != nil || w <= 0 || w > 1 && r.b[r.pos+w-1] == 0 || l > uint64(len(r.b)-r.pos-w) {
			r.Count("string bytes", 1)
			return nil
		}
		r.pos += w + int(l)
	}
	if r.err != nil {
		return nil
	}
	run := r.b[start:r.pos]
	region := string(run)
	strs := make([]string, n)
	at := 0
	for i := range strs {
		l, w := binary.Uvarint(run[at:])
		at += w
		strs[i] = region[at : at+int(l)]
		at += int(l)
	}
	return strs
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}
