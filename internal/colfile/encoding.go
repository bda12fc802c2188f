package colfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Column-chunk encodings. The writer picks automatically: dictionary when a
// string column has few distinct values, run-length when an int column has
// long runs, plain otherwise.
const (
	encPlain byte = iota
	encDict
	encRLE
)

// Deflate state is pooled: a flate.Writer is over a megabyte of tables that
// NewWriter zeroes, which dwarfs the work of compressing one column chunk of
// a small file. Reset restores the state NewWriter and NewReader start from,
// so a chunk's bytes do not depend on what the state compressed before. The
// bytes a chunk is encoded to before deflate are pooled scratch too.
//
// A chunk is inflated into pooled scratch as well. The scratch goes back to
// the pool when decodeChunk returns, so nothing a decoder keeps may alias it:
// numbers and bitmaps are converted into slices of their own, and a string
// column takes one copy of its region (byteReader.strings).
var (
	flateWriters sync.Pool // *flate.Writer at flate.BestSpeed
	flateReaders sync.Pool // io.ReadCloser from flate.NewReader; a flate.Resetter
	inflateBufs  sync.Pool // *bytes.Buffer
	deflateBufs  sync.Pool // *[]byte
)

// encodeChunk serializes one column vector to bytes:
//
//	[encoding byte][null section][payload], then flate-compressed.
func encodeChunk(v *Vec) ([]byte, error) {
	scratch, _ := deflateBufs.Get().(*[]byte)
	if scratch == nil {
		scratch = new([]byte)
	}
	defer deflateBufs.Put(scratch)
	enc := chooseEncoding(v)
	raw := appendNulls(append((*scratch)[:0], enc), liveNulls(v.Nulls))
	switch enc {
	case encPlain:
		raw = appendPlain(raw, v)
	case encDict:
		raw = appendDict(raw, v)
	case encRLE:
		raw = appendRLE(raw, v)
	}
	*scratch = raw
	comp := &bytes.Buffer{}
	fw, _ := flateWriters.Get().(*flate.Writer)
	if fw == nil {
		var err error
		if fw, err = flate.NewWriter(comp, flate.BestSpeed); err != nil {
			return nil, err
		}
	} else {
		fw.Reset(comp)
	}
	defer flateWriters.Put(fw)
	if _, err := fw.Write(raw); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return comp.Bytes(), nil
}

// decodeChunk reverses encodeChunk. n is the row count recorded in the footer.
func decodeChunk(data []byte, t DataType, n int) (*Vec, error) {
	src := bytes.NewReader(data)
	fr, _ := flateReaders.Get().(io.ReadCloser)
	if fr == nil {
		fr = flate.NewReader(src)
	} else if err := fr.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, fmt.Errorf("colfile: decompress chunk: %w", err)
	}
	buf, _ := inflateBufs.Get().(*bytes.Buffer)
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	defer inflateBufs.Put(buf)
	_, err := buf.ReadFrom(fr)
	flateReaders.Put(fr)
	if err != nil {
		return nil, fmt.Errorf("colfile: decompress chunk: %w", err)
	}
	return decodeChunkBody(buf.Bytes(), t, n)
}

// decodeChunkBody decodes an inflated chunk of n rows of type t.
func decodeChunkBody(raw []byte, t DataType, n int) (*Vec, error) {
	r := byteReader{b: raw}
	enc := r.byte("encoding bytes")
	v := NewVec(t)
	v.Nulls = r.nulls(n)
	switch {
	case r.err != nil:
	case enc == encPlain:
		decodePlain(&r, v, n)
	case enc == encDict && t == String:
		decodeDict(&r, v, n)
	case enc == encRLE && t == Int64:
		decodeRLE(&r, v, n)
	default:
		r.fail("unknown encoding %d of a %s chunk", enc, t)
	}
	if err := r.end("chunk"); err != nil {
		return nil, err
	}
	return v, nil
}

func chooseEncoding(v *Vec) byte {
	switch v.Type {
	case String:
		if v.Len() >= 16 {
			distinct := make(map[string]struct{}, 64)
			for _, s := range v.Strs {
				distinct[s] = struct{}{}
				if len(distinct) > v.Len()/4 {
					return encPlain
				}
			}
			return encDict
		}
	case Int64:
		if v.Len() >= 16 {
			runs := 1
			for i := 1; i < len(v.Ints); i++ {
				if v.Ints[i] != v.Ints[i-1] {
					runs++
				}
			}
			if runs <= v.Len()/4 {
				return encRLE
			}
		}
	}
	return encPlain
}

// liveNulls returns a NULL bitmap, or nil when it marks no row: an all-false
// bitmap and an absent one are the same column, in files and in frames.
func liveNulls(nulls []bool) []bool {
	for _, isNull := range nulls {
		if isNull {
			return nulls
		}
	}
	return nil
}

// appendNulls appends a null section, the same in chunks and frames: flag 0
// for a nil bitmap (see liveNulls), else flag 1 and the bitmap bit-packed,
// (len+7)/8 bytes.
func appendNulls(dst []byte, live []bool) []byte {
	if live == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	at := len(dst)
	dst = append(dst, make([]byte, (len(live)+7)/8)...)
	for i, isNull := range live {
		if isNull {
			dst[at+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

// byteReader decodes every byte string colfile takes in — a file footer, an
// inflated column chunk, a batch frame's body, a sparse sketch — under one
// set of rules (docs/ARCHITECTURE.md, "Data files"):
//   - the first error sticks, and every later read returns a zero value, so
//     a walk ends without sizing anything by what it read after the damage;
//   - a count is checked against the bytes left before anything is sized by
//     it (count, claim);
//   - a varint is canonical: not longer than its value needs, and inside 64
//     bits;
//   - a null flag or bool byte is 0 or 1;
//   - nothing follows the last value (end).
//
// A column's values are decoded by one typed loop, not a call per value.
type byteReader struct {
	b   []byte
	pos int
	err error
}

func (r *byteReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// end fails on trailing bytes and returns the walk's error, if any, prefixed
// by the name of the format.
func (r *byteReader) end(format string) error {
	if r.err == nil && r.pos != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.pos)
	}
	if r.err != nil {
		return fmt.Errorf("colfile: %s: %w", format, r.err)
	}
	return nil
}

func (r *byteReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	x, w := binary.Uvarint(r.b[r.pos:])
	switch {
	case w == 0:
		r.fail("truncated varint at byte %d (%s)", r.pos, what)
	case w < 0:
		r.fail("varint overflows 64 bits at byte %d (%s)", r.pos, what)
	case w > 1 && r.b[r.pos+w-1] == 0:
		r.fail("non-minimal varint at byte %d (%s)", r.pos, what)
	default:
		r.pos += w
		return x
	}
	return 0
}

// varint reads a zig-zag varint (binary.AppendVarint's) under uvarint's rules.
func (r *byteReader) varint(what string) int64 {
	ux := r.uvarint(what)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// varints fills dst with zig-zag varints. Like strings, it walks a column in
// one typed loop with binary.Uvarint inlined, not a call per value, and hands
// a varint uvarint would reject back to uvarint to fail the walk.
func (r *byteReader) varints(what string, dst []int64) {
	for i := range dst {
		x, w := binary.Uvarint(r.b[r.pos:])
		if r.err != nil || w <= 0 || w > 1 && r.b[r.pos+w-1] == 0 {
			r.uvarint(what)
			return
		}
		r.pos += w
		dst[i] = int64(x>>1) ^ -int64(x&1)
	}
}

// claim checks that n items of at least width bytes each fit in the bytes
// left, and returns n, or 0 once the walk has failed.
func (r *byteReader) claim(what string, n uint64, width int) int {
	if r.err != nil || n > uint64((len(r.b)-r.pos)/width) {
		r.fail("%d %s need more than the %d bytes left at byte %d", n, what, len(r.b)-r.pos, r.pos)
		return 0
	}
	return int(n)
}

// count reads a uvarint announcing that many items of at least width bytes
// each, and claims them.
func (r *byteReader) count(what string, width int) int {
	return r.claim(what, r.uvarint(what), width)
}

// take returns the next n items of width bytes each, or nil once the walk
// has failed. The slice aliases the input.
func (r *byteReader) take(what string, n, width int) []byte {
	n = r.claim(what, uint64(n), width) * width
	if r.err != nil {
		return nil
	}
	r.pos += n
	return r.b[r.pos-n : r.pos]
}

func (r *byteReader) byte(what string) byte {
	if b := r.take(what, 1, 1); b != nil {
		return b[0]
	}
	return 0
}

// nulls reads a null section of n rows (see appendNulls); a bitmap that marks
// no row decodes to nil like an absent one.
func (r *byteReader) nulls(n int) []bool {
	switch flag := r.byte("null flags"); flag {
	case 0:
		return nil
	case 1:
	default:
		r.fail("null flag %d at byte %d", flag, r.pos-1)
		return nil
	}
	bits := r.take("null bitmap bytes", (n+7)/8, 1)
	if r.err != nil {
		return nil
	}
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return liveNulls(nulls)
}

// floats reads n float64s of 8 little-endian bytes each.
func (r *byteReader) floats(n int) []float64 {
	raw := r.take("float64 values", n, 8)
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// bools reads n bools of one byte each, 0 or 1.
func (r *byteReader) bools(n int) []bool {
	raw := r.take("bool values", n, 1)
	out := make([]bool, len(raw))
	for i, x := range raw {
		if x > 1 {
			r.fail("bool value %d is %d", i, x)
			return nil
		}
		out[i] = x == 1
	}
	return out
}

// strings reads n length-prefixed strings. One walk checks every length and
// finds the run's end; the run is then copied once and the values sliced
// from the copy, so a string column costs two allocations however many rows
// it has and aliases nothing of the bytes it came from.
func (r *byteReader) strings(what string, n int) []string {
	start := r.pos
	n = r.claim(what, uint64(n), 1)
	for i := 0; i < n; i++ {
		l, w := binary.Uvarint(r.b[r.pos:])
		if r.err != nil || w <= 0 || w > 1 && r.b[r.pos+w-1] == 0 || l > uint64(len(r.b)-r.pos-w) {
			r.count("string bytes", 1)
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

func appendPlain(dst []byte, v *Vec) []byte {
	switch v.Type {
	case Int64:
		for _, x := range v.Ints {
			dst = binary.AppendVarint(dst, x)
		}
	case Float64:
		for _, x := range v.Floats {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	case String:
		for _, s := range v.Strs {
			dst = appendString(dst, s)
		}
	case Bool:
		for _, b := range v.Bools {
			if b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

func decodePlain(r *byteReader, v *Vec, n int) {
	switch v.Type {
	case Int64:
		// A varint takes at least one byte, so a row count the chunk cannot
		// back is rejected before it sizes a slice.
		v.Ints = make([]int64, r.claim("int64 values", uint64(n), 1))
		r.varints("int64 values", v.Ints)
	case Float64:
		v.Floats = r.floats(n)
	case String:
		v.Strs = r.strings("string values", n)
	case Bool:
		v.Bools = r.bools(n)
	}
}

func appendDict(dst []byte, v *Vec) []byte {
	dict := make(map[string]uint64, 64)
	var order []string
	for _, s := range v.Strs {
		if _, ok := dict[s]; !ok {
			dict[s] = uint64(len(order))
			order = append(order, s)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(order)))
	for _, s := range order {
		dst = appendString(dst, s)
	}
	for _, s := range v.Strs {
		dst = binary.AppendUvarint(dst, dict[s])
	}
	return dst
}

func decodeDict(r *byteReader, v *Vec, n int) {
	dict := r.strings("dict entries", r.count("dict entries", 1))
	// A code takes at least one byte.
	v.Strs = make([]string, r.claim("dict codes", uint64(n), 1))
	for i := range v.Strs {
		if code := r.uvarint("dict codes"); code < uint64(len(dict)) {
			v.Strs[i] = dict[code]
		} else {
			r.fail("dict code %d of %d entries", code, len(dict))
		}
	}
}

func appendRLE(dst []byte, v *Vec) []byte {
	i := 0
	for i < len(v.Ints) {
		j := i
		for j < len(v.Ints) && v.Ints[j] == v.Ints[i] {
			j++
		}
		dst = binary.AppendVarint(dst, v.Ints[i])
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	return dst
}

func decodeRLE(r *byteReader, v *Vec, n int) {
	// A run costs two bytes however long it is, so n is bounded by the
	// footer alone: grow into it instead of trusting it with one allocation.
	v.Ints = make([]int64, 0, min(n, 1<<16))
	for len(v.Ints) < n && r.err == nil {
		val := r.varint("rle values")
		switch run := r.uvarint("rle runs"); {
		case r.err != nil:
		case run == 0 || run > uint64(n-len(v.Ints)):
			r.fail("rle run %d overflows %d rows", run, n)
		default:
			for ; run > 0; run-- {
				v.Ints = append(v.Ints, val)
			}
		}
	}
}
