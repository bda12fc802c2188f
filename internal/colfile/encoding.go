package colfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"polaris/internal/wire"
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
// column takes one copy of its region (wire.Reader.Strings).
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
	r := wire.NewReader(raw)
	enc := r.Byte("encoding bytes")
	v := NewVec(t)
	v.Nulls = readNulls(r, n)
	switch {
	case r.Err() != nil:
	case enc == encPlain:
		decodePlain(r, v, n)
	case enc == encDict && t == String:
		decodeDict(r, v, n)
	case enc == encRLE && t == Int64:
		decodeRLE(r, v, n)
	default:
		r.Fail("unknown encoding %d of a %s chunk", enc, t)
	}
	if err := r.End("colfile: chunk"); err != nil {
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

// readNulls reads a null section of n rows (see appendNulls); a bitmap that
// marks no row decodes to nil like an absent one. The flag is 0 or 1.
func readNulls(r *wire.Reader, n int) []bool {
	switch flag := r.Byte("null flags"); flag {
	case 0:
		return nil
	case 1:
	default:
		r.Fail("null flag %d at byte %d", flag, r.Pos()-1)
		return nil
	}
	bits := r.Take("null bitmap bytes", (n+7)/8, 1)
	if r.Err() != nil {
		return nil
	}
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return liveNulls(nulls)
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
			dst = wire.AppendString(dst, s)
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

func decodePlain(r *wire.Reader, v *Vec, n int) {
	switch v.Type {
	case Int64:
		// A varint takes at least one byte, so a row count the chunk cannot
		// back is rejected before it sizes a slice.
		v.Ints = make([]int64, r.Claim("int64 values", uint64(n), 1))
		r.Varints("int64 values", v.Ints)
	case Float64:
		v.Floats = r.Floats(n)
	case String:
		v.Strs = r.Strings("string values", n)
	case Bool:
		v.Bools = r.Bools(n)
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
		dst = wire.AppendString(dst, s)
	}
	for _, s := range v.Strs {
		dst = binary.AppendUvarint(dst, dict[s])
	}
	return dst
}

func decodeDict(r *wire.Reader, v *Vec, n int) {
	dict := r.Strings("dict entries", r.Count("dict entries", 1))
	// A code takes at least one byte.
	v.Strs = make([]string, r.Claim("dict codes", uint64(n), 1))
	for i := range v.Strs {
		if code := r.Uvarint("dict codes"); code < uint64(len(dict)) {
			v.Strs[i] = dict[code]
		} else {
			r.Fail("dict code %d of %d entries", code, len(dict))
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

func decodeRLE(r *wire.Reader, v *Vec, n int) {
	// A run costs two bytes however long it is, so n is bounded by the
	// footer alone: grow into it instead of trusting it with one allocation.
	v.Ints = make([]int64, 0, min(n, 1<<16))
	for len(v.Ints) < n && r.Err() == nil {
		val := r.Varint("rle values")
		switch run := r.Uvarint("rle runs"); {
		case r.Err() != nil:
		case run == 0 || run > uint64(n-len(v.Ints)):
			r.Fail("rle run %d overflows %d rows", run, n)
		default:
			for ; run > 0; run-- {
				v.Ints = append(v.Ints, val)
			}
		}
	}
}
