// Package colfile implements an immutable columnar file format standing in
// for Apache Parquet (paper Section 2.3). Real Parquet is unavailable with a
// stdlib-only constraint, so colfile reproduces the structural properties the
// paper's storage engine relies on:
//
//   - row groups of column chunks, readable independently and in parallel;
//   - columnar encodings (plain, dictionary, run-length) plus flate
//     compression (the deflate state is pooled and Reset per chunk, which
//     leaves every byte where a fresh state would put it);
//   - per-row-group, per-column min/max zone maps for predicate pruning;
//   - a self-describing footer so a file is usable given only its bytes.
//
// Files are write-once: a Writer accumulates row groups and Finish seals the
// file. Readers never mutate file bytes, which is what makes log-structured
// storage's "discard on failure" recovery story work.
//
// Transient data takes another route: a batch that is spilled or exchanged —
// written once, read once, deleted inside the statement — is serialized by
// MarshalBatch as a raw frame closed by a checksum (spill.go), with none of
// the statistics, encodings, compression or footer a durable file earns back
// over its lifetime.
//
// In-memory, Vec and Batch are also the executor's vectorized currency:
// batches may carry a transient selection vector (Batch.Sel) between pipeline
// operators, and vectors expose reusable scratch (ResetLen, NullScratch) for
// allocation-free kernel evaluation. The selection-vector rules — logical vs
// physical rows, the materialize-at-boundaries rule — are specified in
// docs/VECTORIZATION.md.
package colfile

import (
	"encoding/binary"
	"fmt"
	"math"
)

// DataType enumerates supported column types.
type DataType uint8

// Supported column types.
const (
	Int64 DataType = iota
	Float64
	String
	Bool
)

// String renders the type name for error messages and plan display.
func (t DataType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("datatype(%d)", uint8(t))
	}
}

// Field is one column in a schema.
type Field struct {
	Name string   `json:"name"`
	Type DataType `json:"type"`
}

// Schema describes the columns of a file or table.
type Schema []Field

// ColIndex returns the index of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Equal reports whether two schemas have identical fields.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Vec is a typed column vector: the unit of data exchanged between the file
// format and the vectorized execution engine. Exactly one payload slice is
// populated according to Type. Nulls, when non-nil, marks NULL positions.
type Vec struct {
	Type   DataType
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  []bool
}

// NewVec returns an empty vector of the given type.
func NewVec(t DataType) *Vec { return &Vec{Type: t} }

// Len returns the number of values in the vector.
func (v *Vec) Len() int {
	switch v.Type {
	case Int64:
		return len(v.Ints)
	case Float64:
		return len(v.Floats)
	case String:
		return len(v.Strs)
	case Bool:
		return len(v.Bools)
	}
	return 0
}

// IsNull reports whether position i is NULL.
func (v *Vec) IsNull(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// HasNulls reports whether the vector carries a NULL bitmap at all. A nil
// bitmap means "provably no NULLs", which is the fast path vectorized kernels
// branch on; a non-nil bitmap may still be all-false.
func (v *Vec) HasNulls() bool { return v.Nulls != nil }

// ResetLen prepares v for reuse as a kernel output: type t, exactly n value
// slots, reusing payload capacity from previous uses and clearing the NULL
// bitmap to nil. Slot values are unspecified until written — callers (the
// exec kernel runner) overwrite every lane they later read. This is the
// scratch-reuse primitive of the vectorized pipeline (docs/VECTORIZATION.md):
// in steady state a scratch vector never allocates.
func (v *Vec) ResetLen(t DataType, n int) {
	v.Type = t
	v.Nulls = nil
	switch t {
	case Int64:
		if cap(v.Ints) < n {
			v.Ints = make([]int64, n)
		} else {
			v.Ints = v.Ints[:n]
		}
	case Float64:
		if cap(v.Floats) < n {
			v.Floats = make([]float64, n)
		} else {
			v.Floats = v.Floats[:n]
		}
	case String:
		if cap(v.Strs) < n {
			v.Strs = make([]string, n)
		} else {
			v.Strs = v.Strs[:n]
		}
	case Bool:
		if cap(v.Bools) < n {
			v.Bools = make([]bool, n)
		} else {
			v.Bools = v.Bools[:n]
		}
	}
}

// NullScratch returns a zeroed NULL bitmap of length n, installed as v.Nulls
// and reusing its previous capacity. Kernels call it when at least one input
// carries NULLs; lanes outside the selection stay false, which is harmless
// because those lanes are never read.
func (v *Vec) NullScratch(n int) []bool {
	if cap(v.Nulls) < n {
		v.Nulls = make([]bool, n)
	} else {
		v.Nulls = v.Nulls[:n]
		for i := range v.Nulls {
			v.Nulls[i] = false
		}
	}
	return v.Nulls
}

// AppendInt appends an int64 value.
func (v *Vec) AppendInt(x int64) { v.Ints = append(v.Ints, x); v.growNull(false) }

// AppendFloat appends a float64 value.
func (v *Vec) AppendFloat(x float64) { v.Floats = append(v.Floats, x); v.growNull(false) }

// AppendStr appends a string value.
func (v *Vec) AppendStr(x string) { v.Strs = append(v.Strs, x); v.growNull(false) }

// AppendBool appends a bool value.
func (v *Vec) AppendBool(x bool) { v.Bools = append(v.Bools, x); v.growNull(false) }

// AppendNull appends a NULL of the vector's type.
func (v *Vec) AppendNull() {
	switch v.Type {
	case Int64:
		v.Ints = append(v.Ints, 0)
	case Float64:
		v.Floats = append(v.Floats, 0)
	case String:
		v.Strs = append(v.Strs, "")
	case Bool:
		v.Bools = append(v.Bools, false)
	}
	v.growNull(true)
}

func (v *Vec) growNull(isNull bool) {
	if v.Nulls == nil {
		if !isNull {
			return
		}
		v.Nulls = make([]bool, v.Len()-1, v.Len())
	}
	v.Nulls = append(v.Nulls, isNull)
}

// Value returns position i as an interface value (nil for NULL). Intended for
// row-at-a-time consumers such as result rendering; the execution engine
// works on the typed slices directly.
func (v *Vec) Value(i int) any {
	if v.IsNull(i) {
		return nil
	}
	switch v.Type {
	case Int64:
		return v.Ints[i]
	case Float64:
		return v.Floats[i]
	case String:
		return v.Strs[i]
	case Bool:
		return v.Bools[i]
	}
	return nil
}

// Key-encoding tag bytes. Every encoded value starts with one of these, so a
// NULL can never collide with a value and adjacent columns stay
// self-delimiting.
const (
	keyNull  = 0x00
	keyValue = 0x01
)

// AppendKey appends a self-delimiting binary encoding of position i to dst
// and returns the extended slice. The encoding is the engine's canonical
// hash/group key: two rows encode to the same bytes iff their values are
// equal column by column. Unlike a separator-based text rendering, it cannot
// collide across column boundaries (strings are length-prefixed, so
// ("a\x00","b") and ("a","\x00b") differ) and it never boxes the value.
// Int64 and Float64 use order-preserving big-endian transforms, so a
// bytewise sort of encoded keys sorts numeric groups in value order.
func (v *Vec) AppendKey(dst []byte, i int) []byte {
	if v.IsNull(i) {
		return append(dst, keyNull)
	}
	switch v.Type {
	case Int64:
		u := uint64(v.Ints[i]) ^ (1 << 63) // flip sign bit: bytewise order = numeric order
		return binary.BigEndian.AppendUint64(append(dst, keyValue), u)
	case Float64:
		u := math.Float64bits(v.Floats[i])
		if u&(1<<63) != 0 {
			u = ^u // negative floats: reverse order
		} else {
			u ^= 1 << 63
		}
		return binary.BigEndian.AppendUint64(append(dst, keyValue), u)
	case String:
		s := v.Strs[i]
		dst = binary.AppendUvarint(append(dst, keyValue), uint64(len(s)))
		return append(dst, s...)
	case Bool:
		if v.Bools[i] {
			return append(dst, keyValue, 1)
		}
		return append(dst, keyValue, 0)
	}
	return append(dst, keyNull)
}

// AppendSortKey appends an order-preserving binary encoding of position i to
// dst and returns the extended slice: bytewise comparison of two encoded keys
// equals the engine's ORDER BY comparison of the underlying values. It is the
// sort-order counterpart of AppendKey and reuses AppendKey's typed transforms
// wherever they already preserve order (Int64 sign-flip, Float64 total-order
// transform, Bool, and the NULL tag, which sorts NULLs first). Strings differ:
// AppendKey's length prefix breaks lexicographic byte order ("b" < "ab" after
// encoding), so the sort key instead escapes embedded 0x00 bytes (0x00 →
// 0x00 0xFF) and closes with a 0x00 0x00 terminator, keeping the encoding
// both order-preserving and self-delimiting across columns.
//
// With desc the bytes are appended complemented, which reverses their
// comparison order: DESC keys sort descending — and NULLs last — under the
// same ascending bytewise compare, so multi-column keys with mixed
// directions still reduce to one memcmp.
func (v *Vec) AppendSortKey(dst []byte, i int, desc bool) []byte {
	start := len(dst)
	switch {
	case v.IsNull(i):
		dst = append(dst, keyNull)
	case v.Type == String:
		s := v.Strs[i]
		dst = append(dst, keyValue)
		for j := 0; j < len(s); j++ {
			if s[j] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, s[j])
			}
		}
		dst = append(dst, 0x00, 0x00)
	default:
		dst = v.AppendKey(dst, i)
	}
	if desc {
		for j := start; j < len(dst); j++ {
			dst[j] = ^dst[j]
		}
	}
	return dst
}

// Append appends position i of src (which must have the same type).
func (v *Vec) Append(src *Vec, i int) {
	if src.IsNull(i) {
		v.AppendNull()
		return
	}
	switch v.Type {
	case Int64:
		v.AppendInt(src.Ints[i])
	case Float64:
		v.AppendFloat(src.Floats[i])
	case String:
		v.AppendStr(src.Strs[i])
	case Bool:
		v.AppendBool(src.Bools[i])
	}
}

// AppendValue appends a Go value, converting compatible types.
func (v *Vec) AppendValue(x any) error {
	if x == nil {
		v.AppendNull()
		return nil
	}
	switch v.Type {
	case Int64:
		switch t := x.(type) {
		case int64:
			v.AppendInt(t)
		case int:
			v.AppendInt(int64(t))
		case float64:
			v.AppendInt(int64(t))
		default:
			return fmt.Errorf("colfile: cannot append %T to int64 column", x)
		}
	case Float64:
		switch t := x.(type) {
		case float64:
			v.AppendFloat(t)
		case int64:
			v.AppendFloat(float64(t))
		case int:
			v.AppendFloat(float64(t))
		default:
			return fmt.Errorf("colfile: cannot append %T to float64 column", x)
		}
	case String:
		t, ok := x.(string)
		if !ok {
			return fmt.Errorf("colfile: cannot append %T to string column", x)
		}
		v.AppendStr(t)
	case Bool:
		t, ok := x.(bool)
		if !ok {
			return fmt.Errorf("colfile: cannot append %T to bool column", x)
		}
		v.AppendBool(t)
	}
	return nil
}

// Take gathers the given positions into a new vector: out[k] = v[idx[k]].
// An index of -1 yields NULL, which is how join gathers pad the unmatched
// side of an outer join. The gather is a typed bulk copy — no per-row
// interface boxing.
func (v *Vec) Take(idx []int) *Vec {
	n := len(idx)
	out := &Vec{Type: v.Type}
	var nulls []bool
	setNull := func(k int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[k] = true
	}
	switch v.Type {
	case Int64:
		out.Ints = make([]int64, n)
		for k, i := range idx {
			if i < 0 || v.IsNull(i) {
				setNull(k)
				continue
			}
			out.Ints[k] = v.Ints[i]
		}
	case Float64:
		out.Floats = make([]float64, n)
		for k, i := range idx {
			if i < 0 || v.IsNull(i) {
				setNull(k)
				continue
			}
			out.Floats[k] = v.Floats[i]
		}
	case String:
		out.Strs = make([]string, n)
		for k, i := range idx {
			if i < 0 || v.IsNull(i) {
				setNull(k)
				continue
			}
			out.Strs[k] = v.Strs[i]
		}
	case Bool:
		out.Bools = make([]bool, n)
		for k, i := range idx {
			if i < 0 || v.IsNull(i) {
				setNull(k)
				continue
			}
			out.Bools[k] = v.Bools[i]
		}
	}
	out.Nulls = nulls
	return out
}

// Filter returns a new vector containing only positions where keep[i] is
// true. The kept positions are copied with typed bulk loops rather than
// per-row appends.
func (v *Vec) Filter(keep []bool) *Vec {
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	out := &Vec{Type: v.Type}
	var nulls []bool
	hasNull := false
	if v.Nulls != nil {
		nulls = make([]bool, kept)
	}
	o := 0
	fill := func(i int) {
		if nulls != nil && v.Nulls[i] {
			nulls[o] = true
			hasNull = true
		}
	}
	switch v.Type {
	case Int64:
		out.Ints = make([]int64, kept)
		for i, k := range keep {
			if k {
				out.Ints[o] = v.Ints[i]
				fill(i)
				o++
			}
		}
	case Float64:
		out.Floats = make([]float64, kept)
		for i, k := range keep {
			if k {
				out.Floats[o] = v.Floats[i]
				fill(i)
				o++
			}
		}
	case String:
		out.Strs = make([]string, kept)
		for i, k := range keep {
			if k {
				out.Strs[o] = v.Strs[i]
				fill(i)
				o++
			}
		}
	case Bool:
		out.Bools = make([]bool, kept)
		for i, k := range keep {
			if k {
				out.Bools[o] = v.Bools[i]
				fill(i)
				o++
			}
		}
	}
	if hasNull {
		out.Nulls = nulls
	}
	return out
}

// Slice returns a new vector with positions [lo, hi), as a bulk copy (the
// result does not alias the source).
func (v *Vec) Slice(lo, hi int) *Vec {
	n := hi - lo
	out := &Vec{Type: v.Type}
	switch v.Type {
	case Int64:
		out.Ints = make([]int64, n)
		copy(out.Ints, v.Ints[lo:hi])
	case Float64:
		out.Floats = make([]float64, n)
		copy(out.Floats, v.Floats[lo:hi])
	case String:
		out.Strs = make([]string, n)
		copy(out.Strs, v.Strs[lo:hi])
	case Bool:
		out.Bools = make([]bool, n)
		copy(out.Bools, v.Bools[lo:hi])
	}
	if v.Nulls != nil {
		hasNull := false
		nulls := make([]bool, n)
		copy(nulls, v.Nulls[lo:hi])
		for _, b := range nulls {
			if b {
				hasNull = true
				break
			}
		}
		if hasNull {
			out.Nulls = nulls
		}
	}
	return out
}

// Batch is a set of equal-length column vectors: the execution engine's unit
// of work.
//
// Sel, when non-nil, is a selection vector: the batch's logical rows are the
// physical positions Sel[0..len(Sel)) of the column vectors, in that order
// (strictly ascending in every batch the engine produces). A filter that
// keeps 12 of 4096 rows emits the same physical columns with a 12-entry Sel
// instead of copying 12-row columns — downstream operators iterate logical
// rows via RowIdx and read the physical slices directly. The contract
// (normative in docs/VECTORIZATION.md): selection vectors are a transient,
// intra-pipeline annotation; they never cross a persistence or exchange
// boundary (Writer.WriteBatch, MarshalBatch and AppendBatch materialize), and
// a batch carrying Sel must be treated as read-only through it.
type Batch struct {
	Schema Schema
	Cols   []*Vec
	Sel    []int
}

// NewBatch creates an empty batch for a schema.
func NewBatch(schema Schema) *Batch {
	cols := make([]*Vec, len(schema))
	for i, f := range schema {
		cols[i] = NewVec(f.Type)
	}
	return &Batch{Schema: schema, Cols: cols}
}

// NumRows returns the number of logical rows in the batch: the selection
// length when a selection vector is present, the physical column length
// otherwise.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// PhysRows returns the physical length of the column vectors, ignoring any
// selection vector. Kernel outputs are sized to PhysRows so their lanes stay
// position-aligned with the input columns.
func (b *Batch) PhysRows() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// RowIdx maps logical row i to its physical position in the column vectors.
func (b *Batch) RowIdx(i int) int {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return i
}

// Materialize returns a dense batch: b itself when no selection vector is
// present, otherwise a new batch whose columns hold exactly the selected rows
// (a typed bulk gather, no per-value boxing).
func (b *Batch) Materialize() *Batch {
	if b.Sel == nil {
		return b
	}
	out := &Batch{Schema: b.Schema, Cols: make([]*Vec, len(b.Cols))}
	for i, v := range b.Cols {
		out.Cols[i] = v.Take(b.Sel)
	}
	return out
}

// AppendRow appends one row given as Go values.
func (b *Batch) AppendRow(vals ...any) error {
	if len(vals) != len(b.Cols) {
		return fmt.Errorf("colfile: row has %d values, batch has %d columns", len(vals), len(b.Cols))
	}
	for i, x := range vals {
		if err := b.Cols[i].AppendValue(x); err != nil {
			return err
		}
	}
	return nil
}

// Row materializes logical row i as Go values.
func (b *Batch) Row(i int) []any {
	out := make([]any, len(b.Cols))
	p := b.RowIdx(i)
	for c, v := range b.Cols {
		out[c] = v.Value(p)
	}
	return out
}

// Filter returns a new dense batch keeping only logical rows where keep[i]
// is true. keep is indexed by logical row (a selected batch is materialized
// first).
func (b *Batch) Filter(keep []bool) *Batch {
	b = b.Materialize()
	out := &Batch{Schema: b.Schema, Cols: make([]*Vec, len(b.Cols))}
	for i, v := range b.Cols {
		out.Cols[i] = v.Filter(keep)
	}
	return out
}

// Take gathers the given physical row positions into a new dense batch (see
// Vec.Take; an index of -1 yields a NULL row on every column). idx addresses
// physical positions: callers holding a selected batch map logical rows
// through RowIdx themselves (the join probe does exactly that).
func (b *Batch) Take(idx []int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]*Vec, len(b.Cols))}
	for i, v := range b.Cols {
		out.Cols[i] = v.Take(idx)
	}
	return out
}

// AppendBatch appends all logical rows of src (same schema). A selection
// vector on src is honored — only the selected rows are appended — so
// collecting a filtered stream materializes it densely. A dense column
// without NULLs, the common case under every Collect, is one typed append.
func (b *Batch) AppendBatch(src *Batch) {
	n := src.NumRows()
	for i, dst := range b.Cols {
		sv := src.Cols[i]
		if src.Sel != nil || sv.Nulls != nil {
			for r := 0; r < n; r++ {
				dst.Append(sv, src.RowIdx(r))
			}
			continue
		}
		switch dst.Type {
		case Int64:
			dst.Ints = append(dst.Ints, sv.Ints[:n]...)
		case Float64:
			dst.Floats = append(dst.Floats, sv.Floats[:n]...)
		case String:
			dst.Strs = append(dst.Strs, sv.Strs[:n]...)
		case Bool:
			dst.Bools = append(dst.Bools, sv.Bools[:n]...)
		}
		if dst.Nulls != nil {
			dst.Nulls = append(dst.Nulls, make([]bool, n)...)
		}
	}
}
