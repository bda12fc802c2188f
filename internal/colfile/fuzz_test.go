package colfile

// Fuzz coverage for the two key encodings the executor leans on (join/group
// keys via AppendKey, ORDER BY keys via AppendSortKey): for arbitrary ints,
// floats, strings, bools and NULLs, the encoded-key comparison must agree
// with a direct row comparison — equality for AppendKey, full ordering (asc
// and desc, multi-column) for AppendSortKey. The seed corpora run as plain
// unit tests in every `go test`; CI additionally runs a bounded `-fuzztime`
// exploration (`make fuzz-smoke`).

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// fuzzVal is one fuzzed cell: a value of every type plus a NULL flag; typ
// selects which payload is live.
type fuzzVal struct {
	i    int64
	f    float64
	s    string
	b    bool
	null bool
}

// vecOf builds a one-row vector of the selected type holding v.
func vecOf(typ DataType, v fuzzVal) *Vec {
	vec := NewVec(typ)
	if v.null {
		vec.AppendNull()
		return vec
	}
	switch typ {
	case Int64:
		vec.AppendInt(v.i)
	case Float64:
		vec.AppendFloat(v.f)
	case String:
		vec.AppendStr(v.s)
	case Bool:
		vec.AppendBool(v.b)
	}
	return vec
}

// sameCell is the direct row comparison AppendKey must agree with: both
// NULL, or equal values — bit-equal for floats, since the encoding (and the
// engine's grouping) distinguishes -0.0 from +0.0 and unifies identical NaNs.
func sameCell(typ DataType, a, b fuzzVal) bool {
	if a.null || b.null {
		return a.null && b.null
	}
	switch typ {
	case Int64:
		return a.i == b.i
	case Float64:
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	case String:
		return a.s == b.s
	case Bool:
		return a.b == b.b
	}
	return false
}

// cmpCell is the direct ordering AppendSortKey must agree with: NULL sorts
// below every value; floats order by the IEEE-754 total order.
func cmpCell(typ DataType, a, b fuzzVal) int {
	if a.null || b.null {
		switch {
		case a.null && b.null:
			return 0
		case a.null:
			return -1
		default:
			return 1
		}
	}
	switch typ {
	case Int64:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	case Float64:
		ta, tb := floatTotalOrder(a.f), floatTotalOrder(b.f)
		switch {
		case ta < tb:
			return -1
		case ta > tb:
			return 1
		}
		return 0
	case String:
		return strings.Compare(a.s, b.s)
	case Bool:
		switch {
		case !a.b && b.b:
			return -1
		case a.b && !b.b:
			return 1
		}
		return 0
	}
	return 0
}

// floatTotalOrder maps a float to a uint64 whose unsigned order is the
// IEEE-754 total order (negative NaN < -Inf < ... < -0 < +0 < ... < +Inf <
// NaN) — the independent reference for the encoder's transform.
func floatTotalOrder(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

func addKeySeeds(f *testing.F) {
	f.Add(int64(0), int64(0), 0.0, 0.0, "", "", false, false, false, false, uint8(0), uint8(0), false, false)
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), math.Inf(-1), math.Inf(1), "a\x00", "a", true, false, false, false, uint8(2), uint8(2), true, false)
	f.Add(int64(-1), int64(1), math.Copysign(0, -1), 0.0, "\x00\x00", "\x00", false, true, true, false, uint8(1), uint8(1), false, true)
	f.Add(int64(42), int64(42), math.NaN(), math.NaN(), "ab", "b", true, true, false, true, uint8(3), uint8(0), true, true)
	f.Add(int64(7), int64(7), 1.5, 1.5, "same", "same", true, true, false, false, uint8(2), uint8(3), false, false)
}

// FuzzAppendKey checks the hash/group-key encoding: two cells encode to the
// same bytes iff they hold the same value, and two-column keys are self-
// delimiting (no collisions across the column boundary, the PR2 separator
// bug this encoding replaced).
func FuzzAppendKey(f *testing.F) {
	addKeySeeds(f)
	f.Fuzz(func(t *testing.T, aInt, bInt int64, aFloat, bFloat float64, aStr, bStr string,
		aBool, bBool, aNull, bNull bool, typSel1, typSel2 uint8, _, _ bool) {
		t1, t2 := DataType(typSel1%4), DataType(typSel2%4)
		a1 := fuzzVal{i: aInt, f: aFloat, s: aStr, b: aBool, null: aNull}
		b1 := fuzzVal{i: bInt, f: bFloat, s: bStr, b: bBool, null: bNull}

		// Single column: key equality ⇔ value equality.
		ka := vecOf(t1, a1).AppendKey(nil, 0)
		kb := vecOf(t1, b1).AppendKey(nil, 0)
		if got, want := bytes.Equal(ka, kb), sameCell(t1, a1, b1); got != want {
			t.Fatalf("type %v: key-equal=%v, value-equal=%v (a=%+v b=%+v)", t1, got, want, a1, b1)
		}

		// Two columns, second column swapped between rows: concatenated keys
		// must compare equal iff both cells agree (self-delimiting encoding).
		a2 := fuzzVal{i: bInt, f: bFloat, s: bStr, b: bBool, null: bNull}
		b2 := fuzzVal{i: aInt, f: aFloat, s: aStr, b: aBool, null: aNull}
		rowA := vecOf(t2, a2).AppendKey(ka, 0)
		rowB := vecOf(t2, b2).AppendKey(kb, 0)
		wantRows := sameCell(t1, a1, b1) && sameCell(t2, a2, b2)
		if got := bytes.Equal(rowA, rowB); got != wantRows {
			t.Fatalf("types %v,%v: row-key-equal=%v, rows-equal=%v", t1, t2, got, wantRows)
		}
	})
}

// FuzzAppendSortKey checks the ORDER BY encoding: bytewise comparison of
// encoded keys equals the direct value comparison — NULLs first ascending,
// DESC complemented, and multi-column keys with mixed directions reducing to
// one memcmp.
func FuzzAppendSortKey(f *testing.F) {
	addKeySeeds(f)
	f.Fuzz(func(t *testing.T, aInt, bInt int64, aFloat, bFloat float64, aStr, bStr string,
		aBool, bBool, aNull, bNull bool, typSel1, typSel2 uint8, desc1, desc2 bool) {
		t1, t2 := DataType(typSel1%4), DataType(typSel2%4)
		a1 := fuzzVal{i: aInt, f: aFloat, s: aStr, b: aBool, null: aNull}
		b1 := fuzzVal{i: bInt, f: bFloat, s: bStr, b: bBool, null: bNull}

		sign := func(x int) int {
			switch {
			case x < 0:
				return -1
			case x > 0:
				return 1
			}
			return 0
		}
		flip := func(c int, desc bool) int {
			if desc {
				return -c
			}
			return c
		}

		// Single column, asc and desc.
		for _, desc := range []bool{false, true} {
			ka := vecOf(t1, a1).AppendSortKey(nil, 0, desc)
			kb := vecOf(t1, b1).AppendSortKey(nil, 0, desc)
			want := flip(cmpCell(t1, a1, b1), desc)
			if got := sign(bytes.Compare(ka, kb)); got != want {
				t.Fatalf("type %v desc=%v: byte-cmp=%d, value-cmp=%d (a=%+v b=%+v)", t1, desc, got, want, a1, b1)
			}
		}

		// Two columns with independent directions: the concatenated keys must
		// order like the lexicographic (col1, col2) comparison.
		a2 := fuzzVal{i: bInt, f: bFloat, s: bStr, b: bBool, null: bNull}
		b2 := fuzzVal{i: aInt, f: aFloat, s: aStr, b: aBool, null: aNull}
		rowA := vecOf(t2, a2).AppendSortKey(vecOf(t1, a1).AppendSortKey(nil, 0, desc1), 0, desc2)
		rowB := vecOf(t2, b2).AppendSortKey(vecOf(t1, b1).AppendSortKey(nil, 0, desc1), 0, desc2)
		want := flip(cmpCell(t1, a1, b1), desc1)
		if want == 0 {
			want = flip(cmpCell(t2, a2, b2), desc2)
		}
		if got := sign(bytes.Compare(rowA, rowB)); got != want {
			t.Fatalf("types %v,%v desc=(%v,%v): byte-cmp=%d, row-cmp=%d", t1, t2, desc1, desc2, got, want)
		}
	})
}

// FuzzBatchSpillRoundTrip checks the spill serialization: any batch written
// by MarshalBatch reads back value-identical through UnmarshalBatch.
func FuzzBatchSpillRoundTrip(f *testing.F) {
	f.Add(int64(1), 2.5, "x", true, false, uint8(3))
	f.Add(int64(-9), math.NaN(), "a\x00b", false, true, uint8(7))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, b, null bool, rows uint8) {
		schema := Schema{
			{Name: "i", Type: Int64}, {Name: "f", Type: Float64},
			{Name: "s", Type: String}, {Name: "b", Type: Bool},
		}
		in := NewBatch(schema)
		n := int(rows % 32)
		for r := 0; r < n; r++ {
			if null && r%3 == 0 {
				for _, c := range in.Cols {
					c.AppendNull()
				}
				continue
			}
			in.Cols[0].AppendInt(i + int64(r))
			in.Cols[1].AppendFloat(fl)
			in.Cols[2].AppendStr(s)
			in.Cols[3].AppendBool(b)
		}
		data, err := MarshalBatch(in)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		out, err := UnmarshalBatch(data)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !out.Schema.Equal(in.Schema) || out.NumRows() != in.NumRows() {
			t.Fatalf("round trip shape: %d rows -> %d rows", in.NumRows(), out.NumRows())
		}
		for r := 0; r < in.NumRows(); r++ {
			for c := range in.Cols {
				va := in.Cols[c].AppendKey(nil, r)
				vb := out.Cols[c].AppendKey(nil, r)
				if !bytes.Equal(va, vb) {
					t.Fatalf("row %d col %d differs after round trip", r, c)
				}
			}
		}
	})
}

// FuzzUnmarshalBatch feeds the frame decoder arbitrary bytes: it returns a
// batch or an error, never panics, never allocates more than a small multiple
// of its input (a count is checked against the bytes left before anything is
// sized by it), and a batch it does return is one MarshalBatch/UnmarshalBatch
// carry unchanged. The seeds are valid frames, their truncations, and valid
// frames whose body was mutated and the checksum recomputed — the mutants the
// fuzzer needs to get past the CRC to the structural checks.
func FuzzUnmarshalBatch(f *testing.F) {
	empty := NewBatch(frameBatch().Schema)
	for _, b := range []*Batch{frameBatch(), empty, NewBatch(Schema{}), frameBatch().Take([]int{2, 4, 9})} {
		data, err := MarshalBatch(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		body := data[:len(data)-frameSumSize]
		for _, at := range []int{len(frameMagic), len(body) / 3, len(body) / 2, len(body) - 1} {
			if at < len(body) {
				mutant := append([]byte(nil), body...)
				mutant[at] ^= 0x55
				f.Add(sealFrame(mutant))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var out *Batch
		var err error
		grew := allocatedBy(func() { out, err = UnmarshalBatch(data) })
		// A one-byte string costs a 16-byte header plus its copy, a one-bit
		// NULL a one-byte bool: 32x covers both with room for the schema.
		if limit := uint64(32*len(data) + 16<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil {
			if out != nil {
				t.Fatalf("error %v returned with a batch", err)
			}
			return
		}
		again, err := MarshalBatch(out)
		if err != nil {
			t.Fatalf("re-marshal of an accepted frame: %v", err)
		}
		back, err := UnmarshalBatch(again)
		if err != nil {
			t.Fatalf("re-unmarshal of an accepted frame: %v", err)
		}
		sameBatch(t, back, out)
	})
}
