package colfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// File layout:
//
//	[chunk bytes ...][footer][footer length: 8 bytes LE][magic: 4 bytes]
//
// The footer records the schema, the sort column, the row counts, each row
// group's per-column chunk extents, and zone-map statistics, in the binary
// encoding the magic "PCF2" names (see footer.go). OpenReader rejects any
// other magic.
var magicV2 = []byte("PCF2")

// MaxGroupRows is the most rows one row group may hold: WriteBatch refuses a
// larger batch and OpenReader a footer that claims one. A run-length chunk
// backs any row count with two bytes, so without a cap a footer alone could
// size a group's decode.
const MaxGroupRows = 1 << 16

// ColStats holds the zone map for one column chunk. Min/Max are set in the
// field of the column's type, nil when the chunk has no non-NULL value;
// NullCount counts NULLs.
type ColStats struct {
	MinInt    *int64
	MaxInt    *int64
	MinFloat  *float64
	MaxFloat  *float64
	MinStr    *string
	MaxStr    *string
	NullCount int
}

// chunkMeta locates one column chunk within the file.
type chunkMeta struct {
	Offset int64
	Length int64
	Stats  ColStats
}

// rowGroupMeta describes one row group.
type rowGroupMeta struct {
	NumRows int
	Chunks  []chunkMeta
}

type footer struct {
	Schema    Schema
	RowGroups []rowGroupMeta
	NumRows   int64
	// SortedBy names the column the writer declared rows ordered by within
	// each row group (Z-order / clustering stand-in); empty if unsorted.
	SortedBy string
}

// Writer builds a columnar file in memory.
type Writer struct {
	schema   Schema
	sortedBy string
	buf      bytes.Buffer
	meta     footer
	sketches []ColSketch
	finished bool
}

// NewWriter creates a writer for the schema.
func NewWriter(schema Schema) *Writer {
	return &Writer{schema: schema, meta: footer{Schema: schema}}
}

// SetSortedBy declares the clustering column recorded in the footer.
func (w *Writer) SetSortedBy(col string) { w.sortedBy = col }

// WriteBatch appends one row group containing the batch's logical rows.
// Selection vectors never reach the file format: a selected batch is
// materialized densely first (docs/VECTORIZATION.md, boundary rule).
func (w *Writer) WriteBatch(b *Batch) error {
	if w.finished {
		return errors.New("colfile: writer already finished")
	}
	b = b.Materialize()
	if !b.Schema.Equal(w.schema) {
		return fmt.Errorf("colfile: batch schema %v does not match file schema %v", b.Schema, w.schema)
	}
	n := b.NumRows()
	if n == 0 {
		return nil
	}
	if n > MaxGroupRows {
		return fmt.Errorf("colfile: row group of %d rows exceeds %d", n, MaxGroupRows)
	}
	if w.sketches == nil {
		w.sketches = make([]ColSketch, len(w.schema))
	}
	rg := rowGroupMeta{NumRows: n, Chunks: make([]chunkMeta, len(b.Cols))}
	for i, col := range b.Cols {
		if col.Len() != n {
			return fmt.Errorf("colfile: column %d has %d rows, batch has %d", i, col.Len(), n)
		}
		w.sketches[i].Observe(col)
		data, err := encodeChunk(col)
		if err != nil {
			return err
		}
		rg.Chunks[i] = chunkMeta{
			Offset: int64(w.buf.Len()),
			Length: int64(len(data)),
			Stats:  computeStats(col),
		}
		w.buf.Write(data)
	}
	w.meta.RowGroups = append(w.meta.RowGroups, rg)
	w.meta.NumRows += int64(n)
	return nil
}

// Finish seals the file and returns its bytes. The writer cannot be reused.
func (w *Writer) Finish() ([]byte, error) {
	if w.finished {
		return nil, errors.New("colfile: writer already finished")
	}
	w.finished = true
	w.meta.SortedBy = w.sortedBy
	dataEnd := w.buf.Len()
	out := w.meta.appendV2(w.buf.Bytes())
	out = binary.LittleEndian.AppendUint64(out, uint64(len(out)-dataEnd))
	return append(out, magicV2...), nil
}

// NumRows returns the rows written so far.
func (w *Writer) NumRows() int64 { return w.meta.NumRows }

// Sketches returns the per-column statistics sketches accumulated so far
// (schema-aligned; nil before the first batch). They are not sealed into the
// file: write paths attach them to the manifest's Add action, where table
// stats are folded from.
func (w *Writer) Sketches() []ColSketch { return w.sketches }

func computeStats(v *Vec) ColStats {
	var st ColStats
	first := true
	nonFinite := false
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			st.NullCount++
			continue
		}
		switch v.Type {
		case Int64:
			x := v.Ints[i]
			if first || x < *st.MinInt {
				st.MinInt = ptr(x)
			}
			if first || x > *st.MaxInt {
				st.MaxInt = ptr(x)
			}
		case Float64:
			x := v.Floats[i]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				// Non-finite values are not JSON-encodable and would poison
				// the zone map; drop the map for this chunk (no pruning).
				nonFinite = true
				continue
			}
			if first || st.MinFloat == nil || x < *st.MinFloat {
				st.MinFloat = ptr(x)
			}
			if first || st.MaxFloat == nil || x > *st.MaxFloat {
				st.MaxFloat = ptr(x)
			}
		case String:
			x := v.Strs[i]
			if first || x < *st.MinStr {
				st.MinStr = ptr(x)
			}
			if first || x > *st.MaxStr {
				st.MaxStr = ptr(x)
			}
		case Bool:
			// no zone map for bools
		}
		first = false
	}
	if nonFinite {
		st.MinFloat, st.MaxFloat = nil, nil
	}
	if st.MinStr != nil {
		// The zone map outlives v (a file's sketch rides on its manifest Add
		// action), so it copies its strings rather than pin v's storage: a
		// string cell of INSERT … VALUES is a substring of the statement text.
		st.MinStr, st.MaxStr = ptr(strings.Clone(*st.MinStr)), ptr(strings.Clone(*st.MaxStr))
	}
	return st
}

func ptr[T any](x T) *T { v := x; return &v }

// Reader provides random access to a sealed file's row groups. It is
// logically immutable after OpenReader returns: the footer and the file bytes
// are only read, and the one thing a method changes — ReadColumn keeping the
// vector it decoded, behind an atomic pointer — no caller can observe except
// as speed. One Reader may therefore be shared by any number of goroutines
// and kept for as long as the bytes it was opened over (the compute cache
// keeps it beside them, and charges its capacity what Retained reports).
//
// Everything a Reader hands out is shared and read-only: Schema is the
// footer's own slice, and the vectors of ReadColumn and ReadRowGroup
// are the ones every other reader of the file receives. An operator that
// wants to change a column copies it first (Take, Slice, Filter, AppendBatch
// and Materialize of a selected batch all do).
type Reader struct {
	data []byte
	meta footer
	// chunks memoizes ReadColumn, row group major: a file's bytes never
	// change, so neither does what a chunk decodes to.
	chunks   []atomic.Pointer[Vec]
	retained atomic.Int64 // parsed footer + MemSize of every memoized vector
	decodes  atomic.Int64
}

// OpenReader parses and validates the footer of a sealed file. A reader it
// returns can serve every row group the footer describes: chunk extents lie
// inside the data region, every group has one chunk per schema column and
// at most MaxGroupRows rows, and row counts are non-negative and sum to the
// file's.
func OpenReader(data []byte) (*Reader, error) {
	if len(data) < 12 || !bytes.Equal(data[len(data)-4:], magicV2) {
		return nil, errors.New("colfile: bad magic")
	}
	flen := binary.LittleEndian.Uint64(data[len(data)-12 : len(data)-4])
	fstart := uint64(len(data)) - 12 - flen
	if flen > uint64(len(data))-12 {
		return nil, errors.New("colfile: footer length out of range")
	}
	meta, err := decodeFooterV2(data[fstart : fstart+flen])
	if err != nil {
		return nil, err
	}
	if err := meta.validate(int64(fstart)); err != nil {
		return nil, err
	}
	r := &Reader{data: data, meta: meta, chunks: make([]atomic.Pointer[Vec], len(meta.RowGroups)*len(meta.Schema))}
	r.retained.Store(r.footerSize())
	return r, nil
}

// validate checks the footer against the file it came from; dataEnd is where
// the chunk region ends and the footer starts.
func (m *footer) validate(dataEnd int64) error {
	for c, f := range m.Schema {
		if f.Type > Bool {
			return fmt.Errorf("colfile: column %d has unknown type %s", c, f.Type)
		}
	}
	var rows int64
	for g, rg := range m.RowGroups {
		if rg.NumRows < 0 || rg.NumRows > MaxGroupRows {
			return fmt.Errorf("colfile: row group %d has %d rows", g, rg.NumRows)
		}
		if len(rg.Chunks) != len(m.Schema) {
			return fmt.Errorf("colfile: row group %d has %d chunks for %d columns", g, len(rg.Chunks), len(m.Schema))
		}
		for c, ch := range rg.Chunks {
			// Offset ≤ dataEnd first, so the subtraction cannot overflow.
			if ch.Offset < 0 || ch.Length < 0 || ch.Offset > dataEnd || ch.Length > dataEnd-ch.Offset {
				return fmt.Errorf("colfile: row group %d column %d chunk out of file bounds", g, c)
			}
		}
		// Row ordinals — deletion vectors, the scan's row base — are 32-bit
		// (and checking per group keeps the sum from wrapping).
		if rows += int64(rg.NumRows); rows > math.MaxUint32 {
			return fmt.Errorf("colfile: more than %d rows", uint32(math.MaxUint32))
		}
	}
	if rows != m.NumRows {
		return fmt.Errorf("colfile: row groups hold %d rows, footer says %d", rows, m.NumRows)
	}
	return nil
}

// footerSize is what the parsed footer holds in memory: memSize's estimate,
// plus for a v2 footer the copy of its bytes that its strings are sliced from.
func (r *Reader) footerSize() int64 {
	n := r.meta.memSize()
	if bytes.Equal(r.data[len(r.data)-4:], magicV2) {
		n += int64(binary.LittleEndian.Uint64(r.data[len(r.data)-12:]))
	}
	return n
}

// Schema returns the file schema.
func (r *Reader) Schema() Schema { return r.meta.Schema }

// NumRows returns the total number of rows in the file.
func (r *Reader) NumRows() int64 { return r.meta.NumRows }

// Size returns the length of the sealed file in bytes.
func (r *Reader) Size() int64 { return int64(len(r.data)) }

// NumRowGroups returns the number of row groups.
func (r *Reader) NumRowGroups() int { return len(r.meta.RowGroups) }

// RowGroupRows returns the row count of group g.
func (r *Reader) RowGroupRows(g int) int { return r.meta.RowGroups[g].NumRows }

// SortedBy returns the clustering column declared by the writer.
func (r *Reader) SortedBy() string { return r.meta.SortedBy }

// Stats returns the zone map for column c of row group g.
func (r *Reader) Stats(g, c int) ColStats { return r.meta.RowGroups[g].Chunks[c].Stats }

// ChunkExtent returns where column c of row group g lies in the file's bytes.
func (r *Reader) ChunkExtent(g, c int) (offset, length int64) {
	ch := r.meta.RowGroups[g].Chunks[c]
	return ch.Offset, ch.Length
}

// Retained estimates the bytes the reader holds beyond the file's own: the
// parsed footer plus every vector ReadColumn has memoized so far. It only
// grows, and is what a cache keeping the reader should count against its
// capacity beside the file bytes.
func (r *Reader) Retained() int64 { return r.retained.Load() }

// ChunkDecodes counts the column chunks the reader has inflated and decoded:
// one per chunk read, however often it is read (a few more when first readers
// race).
func (r *Reader) ChunkDecodes() int64 { return r.decodes.Load() }

// ReadColumn returns column c of row group g, decoding it on the first call
// and returning the same vector on every later one. The vector is shared with
// every other caller and must not be written to. A chunk that fails to decode
// fails again on the next call: nothing is kept for it.
func (r *Reader) ReadColumn(g, c int) (*Vec, error) {
	if g < 0 || g >= len(r.meta.RowGroups) {
		return nil, fmt.Errorf("colfile: row group %d out of range", g)
	}
	rg := r.meta.RowGroups[g]
	if c < 0 || c >= len(rg.Chunks) {
		return nil, fmt.Errorf("colfile: column %d out of range", c)
	}
	memo := &r.chunks[g*len(rg.Chunks)+c]
	if v := memo.Load(); v != nil {
		return v, nil
	}
	ch := rg.Chunks[c] // extent validated by OpenReader
	v, err := decodeChunk(r.data[ch.Offset:ch.Offset+ch.Length], r.meta.Schema[c].Type, rg.NumRows)
	if err != nil {
		return nil, err
	}
	r.decodes.Add(1)
	// Readers racing on a cold chunk all leave with the first vector stored.
	if !memo.CompareAndSwap(nil, v) {
		return memo.Load(), nil
	}
	r.retained.Add(v.MemSize())
	return v, nil
}

// ReadRowGroup returns the given columns (all columns when cols is nil) of
// row group g as a batch whose schema is the projection. The batch is the
// caller's; its vectors are ReadColumn's, shared and read-only.
func (r *Reader) ReadRowGroup(g int, cols []int) (*Batch, error) {
	if cols == nil {
		cols = make([]int, len(r.meta.Schema))
		for i := range cols {
			cols[i] = i
		}
	}
	schema := make(Schema, len(cols))
	vecs := make([]*Vec, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(r.meta.Schema) {
			return nil, fmt.Errorf("colfile: column %d out of range", c)
		}
		schema[i] = r.meta.Schema[c]
		v, err := r.ReadColumn(g, c)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	return &Batch{Schema: schema, Cols: vecs}, nil
}

// ReadAll copies the whole file into one batch (all row groups, all columns)
// that is the caller's to change.
func (r *Reader) ReadAll() (*Batch, error) {
	out := NewBatch(r.meta.Schema)
	for g := 0; g < r.NumRowGroups(); g++ {
		b, err := r.ReadRowGroup(g, nil)
		if err != nil {
			return nil, err
		}
		out.AppendBatch(b)
	}
	return out, nil
}

// PruneInt reports whether row group g can be skipped for a predicate
// col ∈ [lo, hi] using the zone map; true means provably no matching rows.
func (r *Reader) PruneInt(g, c int, lo, hi int64) bool {
	st := r.Stats(g, c)
	if st.MinInt == nil || st.MaxInt == nil {
		return false
	}
	return *st.MinInt > hi || *st.MaxInt < lo
}
