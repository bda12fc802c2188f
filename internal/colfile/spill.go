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
// results can be compared by comparing their frames. The decoder rejects bad
// magic, a checksum mismatch and an unknown type, and decodes the rest under
// the rules every binary decoder shares (wire.Reader; docs/ARCHITECTURE.md,
// "Data files").

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"polaris/internal/wire"
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
		buf = wire.AppendString(append(buf, byte(f.Type)), f.Name)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for i, v := range b.Cols {
		null := nulls[i]
		buf = appendNulls(buf, null)
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
				buf = wire.AppendString(buf, s)
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
	r := wire.NewReader(body)
	r.Take("magic bytes", len(frameMagic), 1)
	schema := make(Schema, r.Count("columns", 2)) // type byte + name length
	for i := range schema {
		t := DataType(r.Byte("column type bytes"))
		if t > Bool {
			r.Fail("column %d has unknown type %d", i, t)
		}
		schema[i] = Field{Name: string(r.Take("column name bytes", r.Count("column name bytes", 1), 1)), Type: t}
	}
	// Every column spends at least one byte per row, so the row count is
	// bounded by the bytes left; a frame without columns has no rows.
	n := r.Count("rows", 1)
	if len(schema) == 0 && n != 0 {
		r.Fail("%d rows without columns", n)
	}
	cols := make([]*Vec, len(schema))
	for i, f := range schema {
		v := &Vec{Type: f.Type, Nulls: readNulls(r, n)}
		switch f.Type {
		case Int64:
			raw := r.Take("int64 values", n, 8)
			v.Ints = make([]int64, len(raw)/8)
			for j := range v.Ints {
				v.Ints[j] = int64(binary.LittleEndian.Uint64(raw[8*j:]))
			}
		case Float64:
			v.Floats = r.Floats(n)
		case String:
			v.Strs = r.Strings("string values", n)
		case Bool:
			v.Bools = r.Bools(n)
		}
		cols[i] = v
	}
	if err := r.End("colfile: batch frame"); err != nil {
		return nil, err
	}
	return &Batch{Schema: schema, Cols: cols}, nil
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
		if v.coded() { // what the plain column would take
			for i, c := range v.Ints {
				n += 16
				if !v.IsNull(i) {
					n += int64(len(v.Strs[c]))
				}
			}
			break
		}
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

// RowMeter is the incremental meter spill writers flush by: Row(r) is the
// bytes physical row r of the metered columns adds to the MemSize of the
// dense batch Materialize returns for them. Strings count their header plus
// byte length; a NULL byte counts when that batch carries a bitmap — for a
// selected batch, when one of its selected rows is NULL.
type RowMeter struct {
	fixed int64  // per row: fixed-width payloads, string headers, NULL bytes
	strs  []*Vec // string columns, which add their byte length
}

// Meter returns the RowMeter of columns cols of b (nil: every column).
func (b *Batch) Meter(cols []int) RowMeter {
	var m RowMeter
	meter := func(v *Vec) {
		switch v.Type {
		case String:
			m.fixed += 16
			m.strs = append(m.strs, v)
		case Bool:
			m.fixed++
		default:
			m.fixed += 8
		}
		if v.Nulls != nil && (b.Sel == nil || v.anyNullAt(b.Sel)) {
			m.fixed++
		}
	}
	if cols == nil {
		for _, v := range b.Cols {
			meter(v)
		}
	}
	for _, c := range cols {
		meter(b.Cols[c])
	}
	return m
}

// Row returns the bytes physical row r adds.
func (m RowMeter) Row(r int) int64 {
	n := m.fixed
	for _, v := range m.strs {
		if !v.coded() || !v.IsNull(r) {
			n += int64(len(v.Str(r)))
		}
	}
	return n
}
