package colfile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// File layout:
//
//	[chunk bytes ...][footer JSON][footer length: 8 bytes LE][magic: 4 bytes]
//
// The footer records the schema, each row group's per-column chunk offsets,
// and zone-map statistics.
var fileMagic = []byte("PCF1")

// ColStats holds the zone map for one column chunk. Min/Max are stored as the
// JSON-friendly representations of the column type; NullCount counts NULLs.
type ColStats struct {
	MinInt    *int64   `json:"min_int,omitempty"`
	MaxInt    *int64   `json:"max_int,omitempty"`
	MinFloat  *float64 `json:"min_float,omitempty"`
	MaxFloat  *float64 `json:"max_float,omitempty"`
	MinStr    *string  `json:"min_str,omitempty"`
	MaxStr    *string  `json:"max_str,omitempty"`
	NullCount int      `json:"null_count"`
}

// chunkMeta locates one column chunk within the file.
type chunkMeta struct {
	Offset int64    `json:"offset"`
	Length int64    `json:"length"`
	Stats  ColStats `json:"stats"`
}

// rowGroupMeta describes one row group.
type rowGroupMeta struct {
	NumRows int         `json:"num_rows"`
	Chunks  []chunkMeta `json:"chunks"`
}

type footer struct {
	Schema    Schema         `json:"schema"`
	RowGroups []rowGroupMeta `json:"row_groups"`
	NumRows   int64          `json:"num_rows"`
	// SortedBy names the column the writer declared rows ordered by within
	// each row group (Z-order / clustering stand-in); empty if unsorted.
	SortedBy string `json:"sorted_by,omitempty"`
	// Sketches holds one per-column statistics sketch (row/NULL counts,
	// min/max, NDV bitmap) for the whole file, schema-aligned. Absent in
	// files sealed before sketches existed — readers must tolerate nil.
	Sketches []ColSketch `json:"sketches,omitempty"`
}

// Writer builds a columnar file in memory.
type Writer struct {
	schema   Schema
	sortedBy string
	buf      bytes.Buffer
	meta     footer
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
	if w.meta.Sketches == nil {
		w.meta.Sketches = make([]ColSketch, len(w.schema))
	}
	rg := rowGroupMeta{NumRows: n, Chunks: make([]chunkMeta, len(b.Cols))}
	for i, col := range b.Cols {
		if col.Len() != n {
			return fmt.Errorf("colfile: column %d has %d rows, batch has %d", i, col.Len(), n)
		}
		w.meta.Sketches[i].Observe(col)
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
	fj, err := json.Marshal(w.meta)
	if err != nil {
		return nil, err
	}
	w.buf.Write(fj)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(fj)))
	w.buf.Write(lenBuf[:])
	w.buf.Write(fileMagic)
	return w.buf.Bytes(), nil
}

// NumRows returns the rows written so far.
func (w *Writer) NumRows() int64 { return w.meta.NumRows }

// Sketches returns the per-column statistics sketches accumulated so far
// (schema-aligned; nil before the first batch). Write paths attach these to
// the manifest action after sealing so table stats stay fresh under DML.
func (w *Writer) Sketches() []ColSketch { return w.meta.Sketches }

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
// Everything a Reader hands out is shared and read-only: Schema and Sketches
// are the footer's own slices, and the vectors of ReadColumn and ReadRowGroup
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
// inside the data region, every group has one chunk per schema column, and
// row counts are non-negative and sum to the file's.
func OpenReader(data []byte) (*Reader, error) {
	if len(data) < 12 || !bytes.Equal(data[len(data)-4:], fileMagic) {
		return nil, errors.New("colfile: bad magic")
	}
	flen := binary.LittleEndian.Uint64(data[len(data)-12 : len(data)-4])
	fstart := uint64(len(data)) - 12 - flen
	if flen > uint64(len(data))-12 {
		return nil, errors.New("colfile: footer length out of range")
	}
	var meta footer
	if err := json.Unmarshal(data[fstart:fstart+flen], &meta); err != nil {
		return nil, fmt.Errorf("colfile: parse footer: %w", err)
	}
	if err := meta.validate(int64(fstart)); err != nil {
		return nil, err
	}
	r := &Reader{data: data, meta: meta, chunks: make([]atomic.Pointer[Vec], len(meta.RowGroups)*len(meta.Schema))}
	// The parsed footer is charged at its encoded length, which its size in
	// memory tracks: both are a few dozen bytes a field, zone map and chunk,
	// and the sketch bitmaps dominate either.
	r.retained.Store(int64(flen))
	return r, nil
}

// validate checks the footer against the file it came from; dataEnd is where
// the chunk region ends and the footer starts.
func (m *footer) validate(dataEnd int64) error {
	if len(m.Sketches) != 0 && len(m.Sketches) != len(m.Schema) {
		return fmt.Errorf("colfile: footer has %d sketches for %d columns", len(m.Sketches), len(m.Schema))
	}
	for c, f := range m.Schema {
		if f.Type > Bool {
			return fmt.Errorf("colfile: column %d has unknown type %s", c, f.Type)
		}
	}
	var rows int64
	for g, rg := range m.RowGroups {
		if rg.NumRows < 0 {
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

// Sketches returns the file-level per-column statistics sketches, or nil for
// files sealed before sketches existed.
func (r *Reader) Sketches() []ColSketch { return r.meta.Sketches }

// Stats returns the zone map for column c of row group g.
func (r *Reader) Stats(g, c int) ColStats { return r.meta.RowGroups[g].Chunks[c].Stats }

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

// PruneStr is the string analogue of PruneInt.
func (r *Reader) PruneStr(g, c int, lo, hi string) bool {
	st := r.Stats(g, c)
	if st.MinStr == nil || st.MaxStr == nil {
		return false
	}
	return *st.MinStr > hi || *st.MaxStr < lo
}

// FileStats summarizes a file for compaction decisions (paper Section 5.1).
type FileStats struct {
	NumRows   int64
	NumGroups int
	SizeBytes int64
}

// QuickStats reads only the footer-derived statistics.
func QuickStats(data []byte) (FileStats, error) {
	r, err := OpenReader(data)
	if err != nil {
		return FileStats{}, err
	}
	return FileStats{NumRows: r.NumRows(), NumGroups: r.NumRowGroups(), SizeBytes: int64(len(data))}, nil
}
