package colfile

// Transient batch frames: the executor's grace hash-join writes overflow
// partitions to the object store and reads them back partition by partition,
// and the distributed DAG hands stage outputs from task to task the same way
// (internal/exec/spill.go, internal/sql/dag.go). Such a chunk is written
// once, read once and deleted inside the statement, so it does not go through
// the durable file format — no statistics sketch, zone map, encoding chooser,
// deflate or JSON footer — but through a raw frame:
//
//	magic "PSF1"
//	uvarint column count, then per column: type byte, uvarint name length, name
//	uvarint row count
//	per column:
//	  null flag (0 or 1); when 1, a bit-packed bitmap of (rows+7)/8 bytes
//	  payload: Int64 and Float64 as 8 little-endian bytes per value, Bool as
//	  one byte per value, String as uvarint length + bytes per value
//	CRC-32C (Castagnoli) of every byte above, 4 bytes little-endian
//
// The bytes are a pure function of the batch's logical content: a selection
// vector is materialized first, a bitmap with no NULL in it is written as
// flag 0 exactly like a nil one, and the payload slot under a NULL is written
// as the zero value whatever the vector holds there. A retried DAG task
// therefore overwrites its exchange chunk with identical bytes, and two
// results can be compared by comparing their frames. The decoder rejects a
// damaged frame — bad magic, checksum mismatch, a count or length that claims
// more than the bytes that remain (checked before anything is allocated for
// it), an unknown type, trailing bytes — instead of returning rows.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	frameMagic   = "PSF1"
	frameSumSize = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum is returned by UnmarshalBatch for a frame whose bytes do not
// match the checksum it was sealed with.
var ErrChecksum = errors.New("colfile: batch frame checksum mismatch")

// uvarintLen is the encoded size of x.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// MarshalBatch serializes the batch's logical rows as one frame. An empty
// batch yields a frame holding only the schema.
func MarshalBatch(b *Batch) ([]byte, error) {
	b = b.Materialize()
	if len(b.Cols) != len(b.Schema) {
		return nil, fmt.Errorf("colfile: batch has %d columns, schema has %d", len(b.Cols), len(b.Schema))
	}
	n := b.NumRows()
	// One pass sizes the buffer (an upper bound: a string left under a NULL
	// is counted but not written), the second fills it.
	size := len(frameMagic) + uvarintLen(uint64(len(b.Schema))) + uvarintLen(uint64(n)) + frameSumSize
	nulls := make([][]bool, len(b.Cols))
	for i, v := range b.Cols {
		f := b.Schema[i]
		if v.Type != f.Type {
			return nil, fmt.Errorf("colfile: column %d is %v, schema says %v", i, v.Type, f.Type)
		}
		if v.Len() != n {
			return nil, fmt.Errorf("colfile: column %d has %d rows, batch has %d", i, v.Len(), n)
		}
		size += 1 + uvarintLen(uint64(len(f.Name))) + len(f.Name) + 1
		if nulls[i] = liveNulls(v.Nulls); nulls[i] != nil {
			size += (n + 7) / 8
		}
		switch v.Type {
		case Int64, Float64:
			size += 8 * n
		case String:
			for _, s := range v.Strs {
				size += uvarintLen(uint64(len(s))) + len(s)
			}
		case Bool:
			size += n
		default:
			return nil, fmt.Errorf("colfile: column %d has unknown type %v", i, v.Type)
		}
	}

	buf := make([]byte, 0, size)
	buf = append(buf, frameMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(b.Schema)))
	for _, f := range b.Schema {
		buf = append(buf, byte(f.Type))
		buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
		buf = append(buf, f.Name...)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for i, v := range b.Cols {
		null := nulls[i]
		if null == nil {
			buf = append(buf, 0)
		} else {
			buf = appendNullBits(append(buf, 1), null)
		}
		switch v.Type {
		case Int64:
			for r, x := range v.Ints {
				if null != nil && null[r] {
					x = 0
				}
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
			}
		case Float64:
			for r, x := range v.Floats {
				if null != nil && null[r] {
					x = 0
				}
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		case String:
			for r, s := range v.Strs {
				if null != nil && null[r] {
					s = ""
				}
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
		case Bool:
			for r, x := range v.Bools {
				if x && !(null != nil && null[r]) {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

// frameReader walks a frame body. Every read is bounds-checked against the
// bytes that remain, and counts are checked before the caller allocates.
type frameReader struct {
	buf []byte
	pos int
}

func (d *frameReader) remaining() int { return len(d.buf) - d.pos }

func (d *frameReader) uvarint(what string) (uint64, error) {
	x, w := binary.Uvarint(d.buf[d.pos:])
	if w <= 0 {
		return 0, fmt.Errorf("colfile: batch frame: bad %s", what)
	}
	d.pos += w
	return x, nil
}

// count reads a uvarint that announces that many items of at least width
// bytes each, and fails if the remaining bytes cannot hold them.
func (d *frameReader) count(what string, width int) (int, error) {
	x, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if x > uint64(d.remaining()/width) {
		return 0, fmt.Errorf("colfile: batch frame: %s %d exceeds the %d bytes left", what, x, d.remaining())
	}
	return int(x), nil
}

// take returns the next n items of width bytes each.
func (d *frameReader) take(what string, n, width int) ([]byte, error) {
	if n > d.remaining()/width {
		return nil, fmt.Errorf("colfile: batch frame: %s needs %d x %d bytes, %d left", what, n, width, d.remaining())
	}
	out := d.buf[d.pos : d.pos+n*width]
	d.pos += n * width
	return out, nil
}

// UnmarshalBatch decodes a frame written by MarshalBatch into a dense batch
// (an empty one, with its schema, for an empty frame). A frame that fails its
// checksum returns ErrChecksum; every other defect returns an error naming
// it. Nothing is allocated on the word of a count the frame cannot back.
func UnmarshalBatch(data []byte) (*Batch, error) {
	if len(data) < len(frameMagic)+frameSumSize || string(data[:len(frameMagic)]) != frameMagic {
		return nil, errors.New("colfile: batch frame: bad magic")
	}
	body := data[:len(data)-frameSumSize]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, ErrChecksum
	}
	d := &frameReader{buf: body, pos: len(frameMagic)}

	ncols, err := d.count("column count", 2) // type byte + name length
	if err != nil {
		return nil, err
	}
	schema := make(Schema, ncols)
	for i := range schema {
		t, err := d.take("column type", 1, 1)
		if err != nil {
			return nil, err
		}
		if DataType(t[0]) > Bool {
			return nil, fmt.Errorf("colfile: batch frame: column %d has unknown type %d", i, t[0])
		}
		l, err := d.count("column name length", 1)
		if err != nil {
			return nil, err
		}
		name, err := d.take("column name", l, 1)
		if err != nil {
			return nil, err
		}
		schema[i] = Field{Name: string(name), Type: DataType(t[0])}
	}

	// Every column spends at least one byte per row, so the row count is
	// bounded by the bytes left; a frame without columns has no rows.
	n, err := d.count("row count", 1)
	if err != nil {
		return nil, err
	}
	if ncols == 0 && n != 0 {
		return nil, fmt.Errorf("colfile: batch frame: %d rows without columns", n)
	}
	cols := make([]*Vec, ncols)
	for i, f := range schema {
		v := &Vec{Type: f.Type}
		if v.Nulls, err = d.nulls(n); err != nil {
			return nil, err
		}
		switch f.Type {
		case Int64:
			raw, err := d.take("int64 column", n, 8)
			if err != nil {
				return nil, err
			}
			v.Ints = make([]int64, n)
			for r := range v.Ints {
				v.Ints[r] = int64(binary.LittleEndian.Uint64(raw[8*r:]))
			}
		case Float64:
			raw, err := d.take("float64 column", n, 8)
			if err != nil {
				return nil, err
			}
			v.Floats = make([]float64, n)
			for r := range v.Floats {
				v.Floats[r] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*r:]))
			}
		case String:
			if v.Strs, err = d.strings(n); err != nil {
				return nil, err
			}
		case Bool:
			raw, err := d.take("bool column", n, 1)
			if err != nil {
				return nil, err
			}
			v.Bools = make([]bool, n)
			for r, x := range raw {
				v.Bools[r] = x != 0
			}
		}
		cols[i] = v
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("colfile: batch frame: %d trailing bytes", d.remaining())
	}
	return &Batch{Schema: schema, Cols: cols}, nil
}

// nulls reads one column's null section; a bitmap that marks no row decodes
// to nil like an absent one.
func (d *frameReader) nulls(n int) ([]bool, error) {
	flag, err := d.take("null flag", 1, 1)
	if err != nil {
		return nil, err
	}
	switch flag[0] {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, fmt.Errorf("colfile: batch frame: null flag %d", flag[0])
	}
	bits, err := d.take("null bitmap", (n+7)/8, 1)
	if err != nil {
		return nil, err
	}
	return liveNulls(unpackNullBits(bits, n)), nil
}

// strings reads n length-prefixed strings: one walk validates every length
// and finds the column's end, then sliceStrings copies the column out of the
// frame once.
func (d *frameReader) strings(n int) ([]string, error) {
	start := d.pos
	for r := 0; r < n; r++ {
		l, err := d.count("string length", 1)
		if err != nil {
			return nil, err
		}
		d.pos += l
	}
	return sliceStrings(d.buf[start:d.pos], n), nil
}

// rowMemSize estimates the bytes position i of the vector occupies in
// memory: the single accounting rule MemSize and RowMemSize both sum, so the
// whole-vector and row-at-a-time meters a spill budget compares cannot
// drift apart. Strings count their header plus byte length; a null bitmap
// entry counts when the bitmap exists.
func (v *Vec) rowMemSize(i int) int64 {
	var n int64
	switch v.Type {
	case String:
		n = 16 + int64(len(v.Strs[i]))
	case Bool:
		n = 1
	default:
		n = 8
	}
	if v.Nulls != nil {
		n++
	}
	return n
}

// MemSize estimates the in-memory footprint of the vector's payload in bytes:
// the quantity a memory budget meters.
func (v *Vec) MemSize() int64 {
	var n int64
	switch v.Type {
	case Int64:
		n = 8 * int64(len(v.Ints))
	case Float64:
		n = 8 * int64(len(v.Floats))
	case String:
		for _, s := range v.Strs {
			n += 16 + int64(len(s))
		}
	case Bool:
		n = int64(len(v.Bools))
	}
	return n + int64(len(v.Nulls))
}

// MemSize estimates the in-memory footprint of the batch in bytes.
func (b *Batch) MemSize() int64 {
	var n int64
	for _, v := range b.Cols {
		n += v.MemSize()
	}
	return n
}

// RowMemSize estimates the bytes row r of the batch contributes to MemSize —
// the incremental meter spill writers use to decide when to flush.
func (b *Batch) RowMemSize(r int) int64 {
	var n int64
	for _, v := range b.Cols {
		n += v.rowMemSize(r)
	}
	return n
}
