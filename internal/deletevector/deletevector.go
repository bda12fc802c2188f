// Package deletevector implements the compressed row-deletion bitmaps that
// merge-on-read log-structured tables attach to immutable data files
// (paper Section 2.1). A delete vector marks row ordinals within one data
// file as deleted; readers filter marked rows out at scan time.
//
// The representation is a sorted set of [start,end) runs, which compresses
// both the sparse case (trickle deletes) and the dense case (bulk deletes of
// contiguous ranges) well, and makes Union — needed when a later statement in
// the same transaction deletes more rows from the same file — linear.
package deletevector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"polaris/internal/wire"
)

// Vector is a set of deleted row ordinals for a single data file.
// The zero value is an empty vector ready for use.
type Vector struct {
	runs []run // sorted, non-overlapping, non-adjacent
}

type run struct{ start, end uint32 } // [start, end)

// New returns an empty delete vector.
func New() *Vector { return &Vector{} }

// FromRows builds a vector from an arbitrary list of row ordinals.
func FromRows(rows []uint32) *Vector {
	v := New()
	if len(rows) == 0 {
		return v
	}
	sorted := append([]uint32(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	start := sorted[0]
	prev := sorted[0]
	for _, r := range sorted[1:] {
		if r == prev || r == prev+1 {
			prev = r
			continue
		}
		v.runs = append(v.runs, run{start, prev + 1})
		start, prev = r, r
	}
	v.runs = append(v.runs, run{start, prev + 1})
	return v
}

// Add marks a single row as deleted.
func (v *Vector) Add(row uint32) { v.AddRange(row, row+1) }

// AddRange marks rows in [start, end) as deleted.
func (v *Vector) AddRange(start, end uint32) {
	if start >= end {
		return
	}
	// Find insertion window of runs overlapping or adjacent to [start,end).
	i := sort.Search(len(v.runs), func(i int) bool { return v.runs[i].end >= start })
	j := i
	ns, ne := start, end
	for j < len(v.runs) && v.runs[j].start <= end {
		if v.runs[j].start < ns {
			ns = v.runs[j].start
		}
		if v.runs[j].end > ne {
			ne = v.runs[j].end
		}
		j++
	}
	merged := make([]run, 0, len(v.runs)-(j-i)+1)
	merged = append(merged, v.runs[:i]...)
	merged = append(merged, run{ns, ne})
	merged = append(merged, v.runs[j:]...)
	v.runs = merged
}

// Contains reports whether the row is marked deleted.
func (v *Vector) Contains(row uint32) bool {
	i := sort.Search(len(v.runs), func(i int) bool { return v.runs[i].end > row })
	return i < len(v.runs) && v.runs[i].start <= row
}

// AppendLive appends to dst the offsets i in [0, n) whose row base+i is not
// deleted, in ascending order: a walk of the runs inside the window (Runs),
// not a Contains per row.
func (v *Vector) AppendLive(dst []int, base uint32, n int) []int {
	next := 0 // the first offset not yet known deleted or emitted
	r := v.Runs(base, n)
	for lo, hi, ok := r.Next(); ok; lo, hi, ok = r.Next() {
		for x := next; x < lo; x++ {
			dst = append(dst, x)
		}
		next = hi
	}
	for x := next; x < n; x++ {
		dst = append(dst, x)
	}
	return dst
}

// Runs is a cursor over the deleted runs that meet a window of rows, as
// offsets from the window's first row; see Vector.Runs. It is a plain value:
// copying it restarts the walk from where the copy was made, and walking it
// allocates nothing.
type Runs struct {
	runs      []run  // from the first run that can reach the window on
	base, end uint64 // the window's rows [base, end)
}

// Runs returns a cursor over the deleted runs that meet the n rows from row
// base on: one binary search for the first run that can reach the window,
// after which Next steps run by run.
func (v *Vector) Runs(base uint32, n int) Runs {
	if n <= 0 {
		return Runs{}
	}
	i := sort.Search(len(v.runs), func(i int) bool { return v.runs[i].end > base })
	return Runs{runs: v.runs[i:], base: uint64(base), end: uint64(base) + uint64(n)}
}

// Next returns the next deleted run inside the window as offsets [lo, hi)
// from its first row, clipped to the window, in ascending order; ok is false
// once no run is left inside it.
func (r *Runs) Next() (lo, hi int, ok bool) {
	if len(r.runs) == 0 || uint64(r.runs[0].start) >= r.end {
		return 0, 0, false
	}
	x := r.runs[0]
	r.runs = r.runs[1:]
	return int(max(uint64(x.start), r.base) - r.base), int(min(uint64(x.end), r.end) - r.base), true
}

// Cardinality returns the number of deleted rows.
func (v *Vector) Cardinality() int {
	var n int
	for _, r := range v.runs {
		n += int(r.end - r.start)
	}
	return n
}

// IsEmpty reports whether no rows are deleted.
func (v *Vector) IsEmpty() bool { return len(v.runs) == 0 }

// Union merges another vector into this one (in place) and returns v.
// This implements the paper's "merged version" of a delete vector when a
// statement deletes rows from a file that already has a delete vector. It is
// one linear merge of the two sorted run lists into one new slice.
func (v *Vector) Union(o *Vector) *Vector {
	if o == nil || len(o.runs) == 0 {
		return v
	}
	merged := make([]run, 0, len(v.runs)+len(o.runs))
	a, b := v.runs, o.runs
	for len(a) > 0 || len(b) > 0 {
		var r run
		if len(b) == 0 || (len(a) > 0 && a[0].start <= b[0].start) {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		// Runs arrive by start, so r overlaps or adjoins only the last one.
		if last := len(merged) - 1; last >= 0 && r.start <= merged[last].end {
			merged[last].end = max(merged[last].end, r.end)
			continue
		}
		merged = append(merged, r)
	}
	v.runs = merged
	return v
}

// Rows returns all deleted row ordinals in ascending order.
func (v *Vector) Rows() []uint32 {
	out := make([]uint32, 0, v.Cardinality())
	for _, r := range v.runs {
		for x := r.start; x < r.end; x++ {
			out = append(out, x)
		}
	}
	return out
}

// Equal reports whether two vectors mark exactly the same rows.
func (v *Vector) Equal(o *Vector) bool {
	if len(v.runs) != len(o.runs) {
		return false
	}
	for i, r := range v.runs {
		if o.runs[i] != r {
			return false
		}
	}
	return true
}

const magic = uint32(0x44564543) // "DVEC"

// Marshal serializes the vector: magic, run count, then delta-varint runs.
func (v *Vector) Marshal() []byte {
	buf := make([]byte, 0, 8+len(v.runs)*4)
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = binary.AppendUvarint(buf, uint64(len(v.runs)))
	var prevEnd uint32
	for _, r := range v.runs {
		buf = binary.AppendUvarint(buf, uint64(r.start-prevEnd))
		buf = binary.AppendUvarint(buf, uint64(r.end-r.start))
		prevEnd = r.end
	}
	return buf
}

// Unmarshal parses a serialized vector. It accepts only what Marshal writes:
// non-empty runs in ascending order, none adjoining the one before it, all
// inside the uint32 row space, canonical varints (wire.Reader) and no bytes
// after the last run.
func Unmarshal(data []byte) (*Vector, error) {
	if len(data) < 4 || binary.LittleEndian.Uint32(data[:4]) != magic {
		return nil, errors.New("deletevector: bad magic")
	}
	r := wire.NewReader(data)
	r.Take("magic bytes", 4, 1)
	// A run is two varints of at least a byte each.
	n := r.Count("runs", 2)
	v := New()
	if n > 0 {
		v.runs = make([]run, 0, n)
	}
	var prevEnd uint64
	for i := 0; i < n && r.Err() == nil; i++ {
		gap := r.Uvarint("run starts")
		length := r.Uvarint("run lengths")
		switch {
		case r.Err() != nil:
		case length == 0:
			r.Fail("run %d is empty", i)
		case i > 0 && gap == 0:
			r.Fail("run %d adjoins the run before it", i)
		case gap > math.MaxUint32 || length > math.MaxUint32 || prevEnd+gap+length > math.MaxUint32:
			r.Fail("run %d ends past the last row ordinal", i)
		default:
			start := prevEnd + gap
			prevEnd = start + length
			v.runs = append(v.runs, run{uint32(start), uint32(prevEnd)})
		}
	}
	if err := r.End("deletevector"); err != nil {
		return nil, err
	}
	return v, nil
}

// String renders the runs for debugging.
func (v *Vector) String() string {
	s := "dv{"
	for i, r := range v.runs {
		if i > 0 {
			s += ","
		}
		if r.end == r.start+1 {
			s += fmt.Sprintf("%d", r.start)
		} else {
			s += fmt.Sprintf("%d-%d", r.start, r.end-1)
		}
	}
	return s + "}"
}
