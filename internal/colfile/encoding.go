package colfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
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
// so a chunk's bytes do not depend on what the state compressed before.
//
// A chunk is inflated into pooled scratch as well. The scratch goes back to
// the pool when decodeChunk returns, so nothing a decoder keeps may alias it:
// numbers and bitmaps are converted into slices of their own, and a string
// column takes one copy of its region (sliceStrings).
var (
	flateWriters sync.Pool // *flate.Writer at flate.BestSpeed
	flateReaders sync.Pool // io.ReadCloser from flate.NewReader; a flate.Resetter
	inflateBufs  sync.Pool // *bytes.Buffer
)

// encodeChunk serializes one column vector to bytes:
//
//	[encoding byte][null section][payload], then flate-compressed.
func encodeChunk(v *Vec) ([]byte, error) {
	raw := &bytes.Buffer{}
	enc := chooseEncoding(v)
	raw.WriteByte(enc)
	writeNulls(raw, v)
	switch enc {
	case encPlain:
		encodePlain(raw, v)
	case encDict:
		encodeDict(raw, v)
	case encRLE:
		encodeRLE(raw, v)
	}
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
	if _, err := fw.Write(raw.Bytes()); err != nil {
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
	raw := buf.Bytes()
	if len(raw) == 0 {
		return nil, errors.New("colfile: empty chunk")
	}
	v := NewVec(t)
	nulls, body, err := readNulls(raw[1:], n)
	if err != nil {
		return nil, err
	}
	switch {
	case raw[0] == encPlain:
		err = decodePlain(body, v, n)
	case raw[0] == encDict && t == String:
		err = decodeDict(body, v, n)
	case raw[0] == encRLE && t == Int64:
		err = decodeRLE(body, v, n)
	default:
		return nil, fmt.Errorf("colfile: unknown encoding %d of a %s chunk", raw[0], t)
	}
	if err != nil {
		return nil, err
	}
	v.Nulls = nulls
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

// appendNullBits appends the bitmap bit-packed, (len+7)/8 bytes.
func appendNullBits(dst []byte, nulls []bool) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, (len(nulls)+7)/8)...)
	for i, isNull := range nulls {
		if isNull {
			dst[at+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

// unpackNullBits reverses appendNullBits for n rows.
func unpackNullBits(bits []byte, n int) []bool {
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return nulls
}

func writeNulls(w *bytes.Buffer, v *Vec) {
	nulls := liveNulls(v.Nulls)
	if nulls == nil {
		w.WriteByte(0)
		return
	}
	w.WriteByte(1)
	w.Write(appendNullBits(nil, nulls))
}

// readNulls reads a chunk's null section and returns what follows it.
func readNulls(b []byte, n int) (nulls []bool, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("colfile: null flag: %w", io.EOF)
	}
	if b[0] == 0 {
		return nil, b[1:], nil
	}
	b = b[1:]
	if (n+7)/8 > len(b) {
		return nil, nil, fmt.Errorf("colfile: null bitmap: %w", io.ErrUnexpectedEOF)
	}
	return unpackNullBits(b, n), b[(n+7)/8:], nil
}

func encodePlain(w *bytes.Buffer, v *Vec) {
	switch v.Type {
	case Int64:
		var tmp [binary.MaxVarintLen64]byte
		for _, x := range v.Ints {
			n := binary.PutVarint(tmp[:], x)
			w.Write(tmp[:n])
		}
	case Float64:
		var tmp [8]byte
		for _, x := range v.Floats {
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(x))
			w.Write(tmp[:])
		}
	case String:
		var tmp [binary.MaxVarintLen64]byte
		for _, s := range v.Strs {
			n := binary.PutUvarint(tmp[:], uint64(len(s)))
			w.Write(tmp[:n])
			w.WriteString(s)
		}
	case Bool:
		for _, b := range v.Bools {
			if b {
				w.WriteByte(1)
			} else {
				w.WriteByte(0)
			}
		}
	}
}

// errVarintOverflow is encoding/binary's own overflow error, which it does
// not export.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// varintErr is the error binary.ReadVarint or ReadUvarint would return where
// binary.Varint or Uvarint, given the left bytes that remain, returned
// w <= 0: the decoders read slices, and keep the stream readers' errors.
func varintErr(left, w int) error {
	switch {
	case w < 0:
		return errVarintOverflow
	case left == 0:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// readUvarint reads one uvarint and returns what follows it.
func readUvarint(b []byte) (uint64, []byte, error) {
	x, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, nil, varintErr(len(b), w)
	}
	return x, b[w:], nil
}

// sliceStrings decodes a run of n length-prefixed strings whose lengths the
// caller has walked and found inside the run: the run is copied once and the
// values are sliced from the copy, so a string column costs two allocations
// however many rows it has and aliases nothing of the buffer it came from.
func sliceStrings(run []byte, n int) []string {
	region := string(run)
	strs := make([]string, n)
	at := 0
	for r := range strs {
		l, w := binary.Uvarint(run[at:])
		at += w
		strs[r] = region[at : at+int(l)]
		at += int(l)
	}
	return strs
}

// readStrings reads n length-prefixed strings and returns what follows them;
// every length is checked against the bytes left before anything is sized by
// it. what names the values in the error.
func readStrings(b []byte, n int, what string) ([]string, []byte, error) {
	rest := b
	for i := 0; i < n; i++ {
		l, after, err := readUvarint(rest)
		if err == nil && l > uint64(len(after)) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, nil, fmt.Errorf("colfile: %s %d: %w", what, i, err)
		}
		rest = after[l:]
	}
	return sliceStrings(b[:len(b)-len(rest)], n), rest, nil
}

func decodePlain(b []byte, v *Vec, n int) error {
	// Every plain value takes at least one byte (a float eight), so a row
	// count the chunk cannot back is rejected before it sizes a slice.
	width := 1
	if v.Type == Float64 {
		width = 8
	}
	if n > len(b)/width {
		return fmt.Errorf("colfile: %d %s values in a %d-byte chunk", n, v.Type, len(b))
	}
	switch v.Type {
	case Int64:
		v.Ints = make([]int64, n)
		at := 0
		for i := range v.Ints {
			x, w := binary.Varint(b[at:])
			if w <= 0 {
				return fmt.Errorf("colfile: int64 value %d: %w", i, varintErr(len(b)-at, w))
			}
			v.Ints[i] = x
			at += w
		}
	case Float64:
		v.Floats = make([]float64, n)
		for i := range v.Floats {
			v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case String:
		var err error
		if v.Strs, _, err = readStrings(b, n, "string value"); err != nil {
			return err
		}
	case Bool:
		v.Bools = make([]bool, n)
		for i := range v.Bools {
			v.Bools[i] = b[i] != 0
		}
	}
	return nil
}

func encodeDict(w *bytes.Buffer, v *Vec) {
	dict := make(map[string]uint64, 64)
	var order []string
	for _, s := range v.Strs {
		if _, ok := dict[s]; !ok {
			dict[s] = uint64(len(order))
			order = append(order, s)
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(order)))
	w.Write(tmp[:n])
	for _, s := range order {
		n = binary.PutUvarint(tmp[:], uint64(len(s)))
		w.Write(tmp[:n])
		w.WriteString(s)
	}
	for _, s := range v.Strs {
		n = binary.PutUvarint(tmp[:], dict[s])
		w.Write(tmp[:n])
	}
}

func decodeDict(b []byte, v *Vec, n int) error {
	dn, b, err := readUvarint(b)
	if err != nil {
		return fmt.Errorf("colfile: dict size: %w", err)
	}
	// An entry and a code take at least one byte each.
	if dn > uint64(len(b)) || n > len(b) {
		return fmt.Errorf("colfile: %d dict entries and %d codes in a %d-byte chunk", dn, n, len(b))
	}
	dict, b, err := readStrings(b, int(dn), "dict entry")
	if err != nil {
		return err
	}
	v.Strs = make([]string, n)
	at := 0
	for i := range v.Strs {
		idx, w := binary.Uvarint(b[at:])
		if w <= 0 {
			return fmt.Errorf("colfile: dict code %d: %w", i, varintErr(len(b)-at, w))
		}
		if idx >= dn {
			return fmt.Errorf("colfile: dict code %d out of range", idx)
		}
		v.Strs[i] = dict[idx]
		at += w
	}
	return nil
}

func encodeRLE(w *bytes.Buffer, v *Vec) {
	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(v.Ints) {
		j := i
		for j < len(v.Ints) && v.Ints[j] == v.Ints[i] {
			j++
		}
		n := binary.PutVarint(tmp[:], v.Ints[i])
		w.Write(tmp[:n])
		n = binary.PutUvarint(tmp[:], uint64(j-i))
		w.Write(tmp[:n])
		i = j
	}
}

func decodeRLE(b []byte, v *Vec, n int) error {
	// A run costs two bytes however long it is, so n is bounded by the
	// footer alone: grow into it instead of trusting it with one allocation.
	v.Ints = make([]int64, 0, min(n, 1<<16))
	at := 0
	for len(v.Ints) < n {
		val, w := binary.Varint(b[at:])
		if w <= 0 {
			return fmt.Errorf("colfile: rle value: %w", varintErr(len(b)-at, w))
		}
		at += w
		run, w := binary.Uvarint(b[at:])
		if w <= 0 {
			return fmt.Errorf("colfile: rle run: %w", varintErr(len(b)-at, w))
		}
		at += w
		if run == 0 || run > uint64(n-len(v.Ints)) {
			return fmt.Errorf("colfile: rle run %d overflows %d rows", run, n)
		}
		for k := uint64(0); k < run; k++ {
			v.Ints = append(v.Ints, val)
		}
	}
	return nil
}
