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
	"hash/maphash"
	"math"
	"slices"
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
	Name string
	Type DataType
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
//
// A String vector may instead be dictionary-coded, the layout of a
// dictionary array: Ints is non-nil and holds one code per lane, Strs is the
// dictionary, its entries distinct, and lane i is Strs[Ints[i]] (Str reads
// it; a NULL lane's code means nothing). So two lanes' codes are equal
// exactly when their strings are, and a consumer that groups by the column
// resolves each dictionary entry once and then every row by its code, while
// the column costs a code per lane, not a string header. DictCoded mints the
// coding of a column; Plain decodes it. The copies — Append, AppendTake,
// Take, Slice and AppendBatch — keep lanes coded while every coded source
// appended shares one dictionary (SameDict) and decode them otherwise; every
// other mutator decodes the vector first. Only the executor's join probe emits
// coded vectors, for the group keys it feeds (exec.Probe.Coded): kernels and
// the file and spill writers read Strs as lanes, so a coded vector reaches
// them only through Plain.
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
		if v.Ints != nil {
			return len(v.Ints)
		}
		return len(v.Strs)
	case Bool:
		return len(v.Bools)
	}
	return 0
}

// Str returns lane i of a String vector, coded or not.
func (v *Vec) Str(i int) string {
	if v.Ints != nil {
		return v.Strs[v.Ints[i]]
	}
	return v.Strs[i]
}

// DictCoded returns String vector v dictionary-coded: v itself when it is
// coded already, otherwise a new vector with v's NULL bitmap (shared, not
// copied) whose dictionary is v's distinct non-NULL values in lane order. v is
// not changed, so a vector other statements share may be coded.
func (v *Vec) DictCoded() *Vec {
	if v.Ints != nil {
		return v
	}
	codes := make([]int64, len(v.Strs))
	var dict []string
	// An open-addressing index of dict, at most half full: code + 1 per
	// slot, 0 = empty. Which slot a value takes depends on the hash; its
	// code does not.
	slots := make([]int32, 16)
	for i, s := range v.Strs {
		if v.IsNull(i) {
			continue
		}
		mask := uint64(len(slots) - 1)
		j := maphash.String(codeSeed, s) & mask
		for slots[j] != 0 && dict[slots[j]-1] != s {
			j = (j + 1) & mask
		}
		if slots[j] != 0 {
			codes[i] = int64(slots[j] - 1)
			continue
		}
		codes[i] = int64(len(dict))
		dict = append(dict, s)
		slots[j] = int32(len(dict))
		if 2*len(dict) > len(slots) {
			slots = reindex(dict, 2*len(slots))
		}
	}
	if dict == nil {
		dict = []string{}
	}
	return &Vec{Type: String, Ints: codes, Strs: dict, Nulls: v.Nulls}
}

// reindex returns DictCoded's index of dict in size slots.
func reindex(dict []string, size int) []int32 {
	slots := make([]int32, size)
	mask := uint64(size - 1)
	for code, s := range dict {
		j := maphash.String(codeSeed, s) & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = int32(code) + 1
	}
	return slots
}

// codeSeed seeds DictCoded's index.
var codeSeed = maphash.MakeSeed()

// SameDict reports whether two dictionaries are one: the same entries in the
// same backing array, so a code means the same string under either.
func SameDict(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Plain returns v with its lanes as strings: v itself unless it is a coded
// String vector, otherwise a new vector (sharing v's NULL bitmap) that leaves
// what one Append per lane would.
func (v *Vec) Plain() *Vec {
	if !v.coded() {
		return v
	}
	out := &Vec{Type: String, Nulls: v.Nulls}
	out.decodeFrom(v)
	return out
}

// decode makes a coded String vector plain in place; a plain one is left as
// it is.
func (v *Vec) decode() {
	if v.coded() {
		src := *v
		v.Ints, v.Strs = nil, nil
		v.decodeFrom(&src)
	}
}

// decodeFrom sets v.Strs to the lanes of coded src, "" under a NULL.
func (v *Vec) decodeFrom(src *Vec) {
	v.Strs = make([]string, len(src.Ints))
	for i, c := range src.Ints {
		if !src.IsNull(i) {
			v.Strs[i] = src.Strs[c]
		}
	}
}

// codedCopy prepares String vector v, holding base lanes, for lanes of src
// appended by a bulk copy. It reports whether they go on coded — src is
// coded, and v is empty or coded under the same dictionary, and then v is
// left coded under src's — and otherwise leaves v plain.
func (v *Vec) codedCopy(src *Vec, base int) bool {
	switch {
	case src.Ints == nil:
	case base == 0:
		if v.Ints == nil {
			v.Ints = []int64{}
		}
		v.Ints, v.Strs = v.Ints[:0], src.Strs
		return true
	case v.Ints != nil && SameDict(v.Strs, src.Strs):
		return true
	}
	v.decode()
	return false
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
		if v.Ints != nil {
			// A coded vector's Strs is a dictionary, perhaps shared.
			v.Ints, v.Strs = nil, nil
		}
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
func (v *Vec) AppendStr(x string) { v.decode(); v.Strs = append(v.Strs, x); v.growNull(false) }

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
		v.decode()
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
		return v.Str(i)
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
		s := v.Str(i)
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
		s := v.Str(i)
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

// Append appends position i of src (which must have the same type). A
// coded lane stays coded under the rule of the bulk copies.
func (v *Vec) Append(src *Vec, i int) {
	if v.Type == String && v.codedCopy(src, v.Len()) {
		v.Ints = append(v.Ints, src.Ints[i])
		v.growNull(src.IsNull(i))
		return
	}
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
		v.AppendStr(src.Str(i))
	case Bool:
		v.AppendBool(src.Bools[i])
	}
}

// AppendTake appends positions idx of src (which must have the same type),
// in order: the bulk form of calling Append once per index, leaving the same
// vector — a NULL appends the type's zero value, and the NULL bitmap is
// created only when a NULL is actually appended. An index of -1 appends a
// NULL, which is how join gathers pad the unmatched side of an outer join.
// Each payload is one typed gather into capacity grown once; repeated
// indexes are allowed. It is the one gather of column values: Take and
// AppendBatch of a selected batch run on it.
func (v *Vec) AppendTake(src *Vec, idx []int) {
	base := v.Len()
	var null bool
	switch v.Type {
	case Int64:
		v.Ints, null = appendTake(v.Ints, src.Ints, src.Nulls, idx)
	case Float64:
		v.Floats, null = appendTake(v.Floats, src.Floats, src.Nulls, idx)
	case String:
		switch {
		case v.codedCopy(src, base):
			v.Ints, null = appendTake(v.Ints, src.Ints, src.Nulls, idx)
		case src.Ints != nil:
			v.Strs, null = appendTakeCoded(v.Strs, src, idx)
		default:
			v.Strs, null = appendTake(v.Strs, src.Strs, src.Nulls, idx)
		}
	case Bool:
		v.Bools, null = appendTake(v.Bools, src.Bools, src.Nulls, idx)
	}
	if v.Nulls == nil && !null {
		return
	}
	if v.Nulls == nil {
		v.Nulls = make([]bool, base, base+len(idx))
	}
	for _, i := range idx {
		v.Nulls = append(v.Nulls, i < 0 || src.IsNull(i))
	}
}

// appendTake appends src[i] for every i in idx to dst, growing it once: the
// zero value where i is -1 or nulls marks i. It reports whether it appended
// any such NULL.
func appendTake[T any](dst, src []T, nulls []bool, idx []int) ([]T, bool) {
	n := len(dst)
	dst = slices.Grow(dst, len(idx))[:n+len(idx)]
	out := dst[n:]
	var zero T
	null := false
	if nulls == nil {
		for k, i := range idx {
			if i < 0 {
				out[k], null = zero, true
				continue
			}
			out[k] = src[i]
		}
		return dst, null
	}
	for k, i := range idx {
		if i < 0 || nulls[i] {
			out[k], null = zero, true
			continue
		}
		out[k] = src[i]
	}
	return dst, null
}

// appendTakeCoded is appendTake of coded String vector src's lanes as
// strings.
func appendTakeCoded(dst []string, src *Vec, idx []int) ([]string, bool) {
	n := len(dst)
	dst = slices.Grow(dst, len(idx))[:n+len(idx)]
	null := false
	for k, i := range idx {
		if i < 0 || src.IsNull(i) {
			dst[n+k], null = "", true
			continue
		}
		dst[n+k] = src.Strs[src.Ints[i]]
	}
	return dst, null
}

// span returns the positions [lo, hi).
func span(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for k := range idx {
		idx[k] = lo + k
	}
	return idx
}

// anyNullAt reports whether any of positions idx is NULL.
func (v *Vec) anyNullAt(idx []int) bool {
	if v.Nulls == nil {
		return false
	}
	for _, i := range idx {
		if v.Nulls[i] {
			return true
		}
	}
	return false
}

// appendRange appends positions [lo, hi) of src (which must have the same
// type): what one Append per position leaves — the zero value under a NULL,
// and a NULL bitmap only once a NULL is appended — as one typed append per
// payload. Slice and AppendBatch of a dense batch run on it.
func (v *Vec) appendRange(src *Vec, lo, hi int) {
	base := v.Len()
	var nulls []bool
	if src.Nulls != nil && slices.Contains(src.Nulls[lo:hi], true) {
		nulls = src.Nulls[lo:hi]
	}
	switch v.Type {
	case Int64:
		v.Ints = appendRange(v.Ints, src.Ints[lo:hi], nulls)
	case Float64:
		v.Floats = appendRange(v.Floats, src.Floats[lo:hi], nulls)
	case String:
		switch {
		case v.codedCopy(src, base):
			v.Ints = appendRange(v.Ints, src.Ints[lo:hi], nulls)
		case src.Ints != nil:
			v.Strs, _ = appendTakeCoded(v.Strs, src, span(lo, hi))
		default:
			v.Strs = appendRange(v.Strs, src.Strs[lo:hi], nulls)
		}
	case Bool:
		v.Bools = appendRange(v.Bools, src.Bools[lo:hi], nulls)
	}
	switch {
	case nulls != nil:
		if v.Nulls == nil {
			v.Nulls = make([]bool, base, base+len(nulls))
		}
		v.Nulls = append(v.Nulls, nulls...)
	case v.Nulls != nil:
		v.Nulls = append(v.Nulls, make([]bool, hi-lo)...)
	}
}

// appendRange appends src to dst, the zero value where nulls (nil, or as
// long as src) marks a position.
func appendRange[T any](dst, src []T, nulls []bool) []T {
	n := len(dst)
	dst = append(dst, src...)
	var zero T
	for k, null := range nulls {
		if null {
			dst[n+k] = zero
		}
	}
	return dst
}

// Grow makes room for n more values, so appending them reallocates no
// payload: the pre-sizing of a concatenation whose length is known.
func (v *Vec) Grow(n int) {
	switch v.Type {
	case Int64:
		v.Ints = slices.Grow(v.Ints, n)
	case Float64:
		v.Floats = slices.Grow(v.Floats, n)
	case String:
		if v.Ints != nil {
			v.Ints = slices.Grow(v.Ints, n)
		} else {
			v.Strs = slices.Grow(v.Strs, n)
		}
	case Bool:
		v.Bools = slices.Grow(v.Bools, n)
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

// Take gathers the given positions into a new vector: out[k] = v[idx[k]],
// an index of -1 yielding NULL (see AppendTake).
func (v *Vec) Take(idx []int) *Vec {
	out := NewVec(v.Type)
	out.AppendTake(v, idx)
	return out
}

// Slice returns a new vector with positions [lo, hi), as a bulk copy (the
// result does not alias the source) that leaves what Append would.
func (v *Vec) Slice(lo, hi int) *Vec {
	out := NewVec(v.Type)
	out.appendRange(v, lo, hi)
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

// Materialize returns a dense batch of plain columns: b itself when no
// selection vector is present and no column is dictionary-coded, otherwise a
// new batch whose columns hold exactly the selected rows (a typed bulk
// gather, no per-value boxing), each coded column decoded (Vec.Plain).
func (b *Batch) Materialize() *Batch {
	if b.Sel == nil && !slices.ContainsFunc(b.Cols, (*Vec).coded) {
		return b
	}
	out := &Batch{Schema: b.Schema, Cols: make([]*Vec, len(b.Cols))}
	for i, v := range b.Cols {
		if b.Sel != nil {
			v = v.Take(b.Sel)
		}
		out.Cols[i] = v.Plain()
	}
	return out
}

// coded reports whether v is a dictionary-coded String vector.
func (v *Vec) coded() bool { return v.Type == String && v.Ints != nil }

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

// Convert retypes the logical rows of b (as many columns as schema) as a
// dense batch of schema: a column already of its field's type is adopted as
// it is; a mismatched one — a NULL literal is typed int64, numeric values
// convert — goes value by value through AppendValue, with its conversions
// and its errors. INSERT … SELECT and UPDATE store rows through it.
func (b *Batch) Convert(schema Schema) (*Batch, error) {
	b = b.Materialize()
	out := &Batch{Schema: schema, Cols: make([]*Vec, len(schema))}
	for i, v := range b.Cols {
		if v.Type == schema[i].Type {
			out.Cols[i] = v
			continue
		}
		out.Cols[i] = NewVec(schema[i].Type)
		for r := 0; r < v.Len(); r++ {
			if err := out.Cols[i].AppendValue(v.Value(r)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
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

// AppendBatch appends all logical rows of src (same schema): one AppendTake
// per column of a selected batch, so collecting a filtered stream
// materializes it densely, and one range copy per column of a dense one.
func (b *Batch) AppendBatch(src *Batch) {
	for i, dst := range b.Cols {
		if src.Sel != nil {
			dst.AppendTake(src.Cols[i], src.Sel)
		} else {
			dst.appendRange(src.Cols[i], 0, src.NumRows())
		}
	}
}
