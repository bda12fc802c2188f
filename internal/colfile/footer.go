package colfile

import (
	"encoding/binary"
	"math"
	"unsafe"

	"polaris/internal/wire"
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
// It holds exactly what a Reader serves: the per-column sketches are in the
// manifest's Add action, not here. It decodes under the rules every binary
// decoder shares (wire.Reader; docs/ARCHITECTURE.md, "Data files").

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

// appendV2 appends the footer's v2 encoding to dst.
func (m *footer) appendV2(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Schema)))
	for _, f := range m.Schema {
		dst = wire.AppendString(append(dst, byte(f.Type)), f.Name)
	}
	dst = wire.AppendString(dst, m.SortedBy)
	dst = binary.AppendUvarint(dst, uint64(m.NumRows))
	dst = binary.AppendUvarint(dst, uint64(len(m.RowGroups)))
	for _, rg := range m.RowGroups {
		dst = binary.AppendUvarint(dst, uint64(rg.NumRows))
		for _, ch := range rg.Chunks {
			dst = binary.AppendUvarint(dst, uint64(ch.Offset))
			dst = binary.AppendUvarint(dst, uint64(ch.Length))
			dst = appendStats(dst, &ch.Stats)
		}
	}
	return dst
}

// appendStats appends a zone map: the NULL count as a uvarint, a flags byte
// naming the bounds present, and those bounds in flag order — ints as
// zig-zag varints, floats as 8 bytes little endian, strings length-prefixed.
// A footer writes one per chunk and a sketch one per column (appendSketch).
func appendStats(dst []byte, st *ColStats) []byte {
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
			dst = wire.AppendString(dst, *p)
		}
	}
	return dst
}

// statsReader decodes the zone maps appendStats writes. The bounds it reads
// are appended to three backing arrays a decoder sizes for what it expects,
// so a footer's or a manifest block's bounds cost three allocations, not one
// per bound; bounds past a backing array's capacity go to a new one, and the
// pointers already taken keep the old one alive. str reads one string bound.
type statsReader struct {
	r      *wire.Reader
	ints   []int64
	floats []float64
	strs   []string
	str    func() string
}

// read decodes one zone map into st.
func (z *statsReader) read(st *ColStats) {
	r := z.r
	st.NullCount = int(r.Uvarint("null count"))
	flags := r.Byte("zone-map flag bytes")
	if flags&^statAll != 0 {
		r.Fail("unknown zone-map flags %#x", flags)
		return
	}
	for _, p := range []**int64{&st.MinInt, &st.MaxInt} {
		if flags&1 != 0 {
			z.ints = append(z.ints, r.Varint("zone-map ints"))
			*p = &z.ints[len(z.ints)-1]
		}
		flags >>= 1
	}
	for _, p := range []**float64{&st.MinFloat, &st.MaxFloat} {
		if flags&1 != 0 {
			z.floats = append(z.floats, r.Float("zone-map float bytes"))
			*p = &z.floats[len(z.floats)-1]
		}
		flags >>= 1
	}
	for _, p := range []**string{&st.MinStr, &st.MaxStr} {
		if flags&1 != 0 {
			z.strs = append(z.strs, z.str())
			*p = &z.strs[len(z.strs)-1]
		}
		flags >>= 1
	}
}

// skipStats walks one zone map under read's checks and keeps nothing.
func skipStats(r *wire.Reader) {
	r.Uvarint("null count")
	flags := r.Byte("zone-map flag bytes")
	if flags&^statAll != 0 {
		r.Fail("unknown zone-map flags %#x", flags)
		return
	}
	for bit := byte(1); bit <= 1<<5; bit <<= 1 {
		switch {
		case flags&bit == 0:
		case bit <= 1<<1:
			r.Varint("zone-map ints")
		case bit <= 1<<3:
			r.Take("zone-map float bytes", 1, 8)
		default:
			r.Take("zone-map string bytes", r.Count("zone-map string bytes", 1), 1)
		}
	}
}

// decodeFooterV2 parses a v2 footer: it checks the encoding (see
// wire.Reader) and leaves what the values mean to footer.validate. Names and
// zone-map strings are sliced from one copy of the footer, and the zone-map
// values of the whole file share three backing arrays, sized for two values
// per chunk of a column of their type.
func decodeFooterV2(b []byte) (footer, error) {
	r := wire.NewReader(b)
	s := string(b)
	str := func() string {
		n := r.Count("string bytes", 1)
		at := r.Pos()
		r.Take("string bytes", n, 1)
		return s[at : at+n]
	}
	var m footer
	// A column is a type byte and a name length at least; a chunk four
	// varints and a flags byte; a group its row count and its chunks.
	ncols := r.Count("columns", 2)
	m.Schema = make(Schema, ncols)
	for i := range m.Schema {
		m.Schema[i].Type = DataType(r.Byte("column type bytes"))
		m.Schema[i].Name = str()
	}
	m.SortedBy = str()
	m.NumRows = int64(r.Uvarint("row count"))
	ngroups := r.Count("row groups", 1+4*ncols)
	chunks := make([]chunkMeta, ngroups*ncols)
	var perType [Bool + 1]int
	for _, f := range m.Schema {
		if f.Type <= Bool {
			perType[f.Type] += 2 * ngroups
		}
	}
	z := statsReader{
		r:      r,
		ints:   make([]int64, 0, perType[Int64]),
		floats: make([]float64, 0, perType[Float64]),
		strs:   make([]string, 0, perType[String]),
		str:    str,
	}
	m.RowGroups = make([]rowGroupMeta, ngroups)
	for g := range m.RowGroups {
		rg := &m.RowGroups[g]
		rg.NumRows = int(r.Uvarint("group rows"))
		rg.Chunks = chunks[g*ncols : (g+1)*ncols : (g+1)*ncols]
		for c := range rg.Chunks {
			ch := &rg.Chunks[c]
			ch.Offset = int64(r.Uvarint("chunk offset"))
			ch.Length = int64(r.Uvarint("chunk length"))
			z.read(&ch.Stats)
		}
	}
	if err := r.End("colfile: footer"); err != nil {
		return footer{}, err
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
