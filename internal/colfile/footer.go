package colfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Footer format v2, the one every writer seals (magic PCF2). Counts, lengths,
// offsets and row counts are uvarints; strings are a uvarint length and the
// bytes:
//
//	columns    count, then per column: type byte, name
//	sorted by  column name, empty if unsorted
//	num rows   rows in the file
//	row groups count, then per group: rows, then per column chunk:
//	           offset, length, null count, a zone-map flags byte, and the
//	           values the flags name in flag order — ints as zig-zag
//	           varints, floats as 8 bytes little endian, strings
//
// Nothing follows the last chunk. It holds exactly what a Reader serves:
// the per-column sketches are in the manifest's Add action, not here.

// Zone-map flags: which ColStats pointers a chunk's stats carry.
const (
	statMinInt = 1 << iota
	statMaxInt
	statMinFloat
	statMaxFloat
	statMinStr
	statMaxStr
	statAll = 1<<iota - 1
)

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendV2 appends the footer's v2 encoding to dst.
func (m *footer) appendV2(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Schema)))
	for _, f := range m.Schema {
		dst = appendString(append(dst, byte(f.Type)), f.Name)
	}
	dst = appendString(dst, m.SortedBy)
	dst = binary.AppendUvarint(dst, uint64(m.NumRows))
	dst = binary.AppendUvarint(dst, uint64(len(m.RowGroups)))
	for _, rg := range m.RowGroups {
		dst = binary.AppendUvarint(dst, uint64(rg.NumRows))
		for _, ch := range rg.Chunks {
			st := &ch.Stats
			dst = binary.AppendUvarint(dst, uint64(ch.Offset))
			dst = binary.AppendUvarint(dst, uint64(ch.Length))
			dst = binary.AppendUvarint(dst, uint64(st.NullCount))
			var flags byte
			for i, set := range []bool{st.MinInt != nil, st.MaxInt != nil, st.MinFloat != nil, st.MaxFloat != nil, st.MinStr != nil, st.MaxStr != nil} {
				if set {
					flags |= 1 << i
				}
			}
			dst = append(dst, flags)
			for _, p := range []*int64{st.MinInt, st.MaxInt} {
				if p != nil {
					dst = binary.AppendVarint(dst, *p)
				}
			}
			for _, p := range []*float64{st.MinFloat, st.MaxFloat} {
				if p != nil {
					dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(*p))
				}
			}
			for _, p := range []*string{st.MinStr, st.MaxStr} {
				if p != nil {
					dst = appendString(dst, *p)
				}
			}
		}
	}
	return dst
}

// footerDecoder walks a v2 footer. The first error sticks: every later read
// returns a zero value, so the walk ends without sizing anything by it. A
// count is checked against the bytes left before anything is allocated for
// it. Names and zone-map strings are sliced from one copy of the footer, and
// the zone-map values of the whole file share three backing arrays, sized for
// two values per chunk of a column of their type.
type footerDecoder struct {
	b   []byte
	s   string // b, copied once
	pos int
	err error

	ints   []int64
	floats []float64
	strs   []string
}

func (d *footerDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("colfile: footer: "+format, args...)
	}
}

func (d *footerDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	x, w := binary.Uvarint(d.b[d.pos:])
	if w <= 0 {
		d.fail("bad %s varint", what)
		return 0
	}
	d.pos += w
	return x
}

// count reads a uvarint announcing that many items of at least width bytes.
func (d *footerDecoder) count(what string, width int) int {
	x := d.uvarint(what)
	if left := len(d.b) - d.pos; x > uint64(left/width) {
		d.fail("%d %s exceed the %d bytes left", x, what, left)
		return 0
	}
	return int(x)
}

func (d *footerDecoder) take(what string, n int) int {
	if d.err == nil && n > len(d.b)-d.pos {
		d.fail("%s needs %d bytes, %d left", what, n, len(d.b)-d.pos)
	}
	if d.err != nil {
		return -1
	}
	d.pos += n
	return d.pos - n
}

func (d *footerDecoder) str(what string) string {
	n := d.count(what+" bytes", 1)
	if at := d.take(what, n); at >= 0 {
		return d.s[at : at+n]
	}
	return ""
}

func (d *footerDecoder) byte(what string) byte {
	if at := d.take(what, 1); at >= 0 {
		return d.b[at]
	}
	return 0
}

func (d *footerDecoder) intPtr() *int64 {
	x, w := binary.Varint(d.b[d.pos:])
	if d.err != nil || w <= 0 {
		d.fail("bad zone-map int varint")
		return nil
	}
	d.pos += w
	d.ints = append(d.ints, x)
	return &d.ints[len(d.ints)-1]
}

func (d *footerDecoder) floatPtr() *float64 {
	at := d.take("zone-map float", 8)
	if at < 0 {
		return nil
	}
	d.floats = append(d.floats, math.Float64frombits(binary.LittleEndian.Uint64(d.b[at:])))
	return &d.floats[len(d.floats)-1]
}

func (d *footerDecoder) strPtr() *string {
	s := d.str("zone-map string")
	if d.err != nil {
		return nil
	}
	d.strs = append(d.strs, s)
	return &d.strs[len(d.strs)-1]
}

func (d *footerDecoder) chunk(ch *chunkMeta) {
	ch.Offset = int64(d.uvarint("chunk offset"))
	ch.Length = int64(d.uvarint("chunk length"))
	st := &ch.Stats
	st.NullCount = int(d.uvarint("null count"))
	flags := d.byte("zone-map flags")
	if flags&^statAll != 0 {
		d.fail("unknown zone-map flags %#x", flags)
	}
	// Flags that do not match the column's type can outgrow a backing
	// array: the values after that go to a new one, and the pointers
	// already taken keep the old one alive.
	if flags&statMinInt != 0 {
		st.MinInt = d.intPtr()
	}
	if flags&statMaxInt != 0 {
		st.MaxInt = d.intPtr()
	}
	if flags&statMinFloat != 0 {
		st.MinFloat = d.floatPtr()
	}
	if flags&statMaxFloat != 0 {
		st.MaxFloat = d.floatPtr()
	}
	if flags&statMinStr != 0 {
		st.MinStr = d.strPtr()
	}
	if flags&statMaxStr != 0 {
		st.MaxStr = d.strPtr()
	}
}

// decodeFooterV2 parses a v2 footer. It checks the encoding — every count,
// length and varint inside the bytes, none left over — and leaves what the
// values mean to footer.validate.
func decodeFooterV2(b []byte) (footer, error) {
	d := footerDecoder{b: b, s: string(b)}
	var m footer
	// A column is a type byte and a name length at least; a chunk four
	// varints and a flags byte; a group its row count and its chunks.
	ncols := d.count("columns", 2)
	m.Schema = make(Schema, ncols)
	for i := range m.Schema {
		m.Schema[i].Type = DataType(d.byte("column type"))
		m.Schema[i].Name = d.str("column name")
	}
	m.SortedBy = d.str("sort column")
	m.NumRows = int64(d.uvarint("row count"))
	ngroups := d.count("row groups", 1+4*ncols)
	chunks := make([]chunkMeta, ngroups*ncols)
	var perType [Bool + 1]int
	for _, f := range m.Schema {
		if f.Type <= Bool {
			perType[f.Type] += 2 * ngroups
		}
	}
	d.ints = make([]int64, 0, perType[Int64])
	d.floats = make([]float64, 0, perType[Float64])
	d.strs = make([]string, 0, perType[String])
	m.RowGroups = make([]rowGroupMeta, ngroups)
	for g := range m.RowGroups {
		rg := &m.RowGroups[g]
		rg.NumRows = int(d.uvarint("group rows"))
		rg.Chunks = chunks[g*ncols : (g+1)*ncols : (g+1)*ncols]
		for c := range rg.Chunks {
			d.chunk(&rg.Chunks[c])
		}
	}
	if d.err == nil && d.pos != len(b) {
		d.fail("%d trailing bytes", len(b)-d.pos)
	}
	if d.err != nil {
		return footer{}, d.err
	}
	return m, nil
}

// memSize estimates what a parsed footer and the reader's per-chunk memo
// table hold in memory: the slices, two zone-map bounds per int, float or
// string chunk, and every string's header and bytes. A v2 reader also holds
// the one copy of the footer its strings are sliced from, which OpenReader
// adds.
func (m *footer) memSize() int64 {
	const ptr = int64(unsafe.Sizeof(uintptr(0)))
	const str = int64(unsafe.Sizeof(""))
	n := int64(unsafe.Sizeof(*m)) + int64(len(m.SortedBy))
	for _, f := range m.Schema {
		n += int64(unsafe.Sizeof(f)) + int64(len(f.Name))
	}
	for _, rg := range m.RowGroups {
		n += int64(unsafe.Sizeof(rg))
		for c, ch := range rg.Chunks {
			n += int64(unsafe.Sizeof(ch)) + ptr // the chunk and its memo slot
			switch m.Schema[c].Type {
			case Int64, Float64:
				n += 2 * 8
			case String:
				n += 2 * str
				for _, p := range []*string{ch.Stats.MinStr, ch.Stats.MaxStr} {
					if p != nil {
						n += int64(len(*p))
					}
				}
			}
		}
	}
	return n
}
