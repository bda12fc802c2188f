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
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
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

// sealedFile is a small real file — two row groups, every type, NULLs, an
// RLE and a dictionary chunk — for the reader tests to open and to damage.
func sealedFile(tb testing.TB) []byte {
	tb.Helper()
	schema := Schema{
		{Name: "k", Type: Int64}, {Name: "v", Type: Float64},
		{Name: "s", Type: String}, {Name: "b", Type: Bool}, {Name: "run", Type: Int64},
	}
	w := NewWriter(schema)
	w.SetSortedBy("k")
	for g := 0; g < 2; g++ {
		b := NewBatch(schema)
		for r := 0; r < 24; r++ {
			vals := []any{int64(g*24 + r), float64(r) / 4, []string{"x", "y", "z"}[r%3], r%2 == 0, int64(g)}
			if r%7 == 3 {
				vals[1], vals[2] = nil, nil
			}
			if err := b.AppendRow(vals...); err != nil {
				tb.Fatal(err)
			}
		}
		if err := w.WriteBatch(b); err != nil {
			tb.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// refooter returns the file with its footer edited: the chunk region is kept
// and the edited footer re-sealed behind it.
func refooter(tb testing.TB, data []byte, edit func(*footer)) []byte {
	tb.Helper()
	flen := binary.LittleEndian.Uint64(data[len(data)-12:])
	fstart := len(data) - 12 - int(flen)
	var meta footer
	if err := json.Unmarshal(data[fstart:fstart+int(flen)], &meta); err != nil {
		tb.Fatal(err)
	}
	edit(&meta)
	fj, err := json.Marshal(meta)
	if err != nil {
		tb.Fatal(err)
	}
	out := append([]byte(nil), data[:fstart]...)
	out = append(out, fj...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(fj)))
	return append(out, fileMagic...)
}

// malformedFooters are footers OpenReader used to accept and then could not
// serve: each opened without error on the parent of the change that added
// footer validation, and the first three then panicked in ReadColumn, Stats
// and decodeChunk.
func malformedFooters(tb testing.TB) map[string][]byte {
	data := sealedFile(tb)
	return map[string][]byte{
		"negative chunk offset":   refooter(tb, data, func(m *footer) { m.RowGroups[0].Chunks[1].Offset = -1 }),
		"group short of chunks":   refooter(tb, data, func(m *footer) { m.RowGroups[1].Chunks = m.RowGroups[1].Chunks[:2] }),
		"negative group rows":     refooter(tb, data, func(m *footer) { m.RowGroups[0].NumRows = -24; m.NumRows = 0 }),
		"negative chunk length":   refooter(tb, data, func(m *footer) { m.RowGroups[0].Chunks[0].Length = -5 }),
		"chunk past the footer":   refooter(tb, data, func(m *footer) { m.RowGroups[1].Chunks[4].Length += 9 }),
		"offset+length overflows": refooter(tb, data, func(m *footer) { m.RowGroups[0].Chunks[0].Length = math.MaxInt64 }),
		"rows do not sum":         refooter(tb, data, func(m *footer) { m.NumRows++ }),
		"sketches off the schema": refooter(tb, data, func(m *footer) { m.Sketches = m.Sketches[:3] }),
		"unknown column type":     refooter(tb, data, func(m *footer) { m.Schema[2].Type = 9 }),
	}
}

func TestOpenReaderRejectsMalformedFooter(t *testing.T) {
	if _, err := OpenReader(refooter(t, sealedFile(t), func(*footer) {})); err != nil {
		t.Fatalf("an unedited footer must re-seal to a file that opens: %v", err)
	}
	for name, data := range malformedFooters(t) {
		if r, err := OpenReader(data); err == nil {
			t.Errorf("%s: opened (%d rows)", name, r.NumRows())
		}
	}
}

// exerciseReader calls everything a scan, a planner or a compaction calls on
// an opened reader. None of it may panic, whatever the footer said.
func exerciseReader(r *Reader) (rows int64, err error) {
	for g := 0; g < r.NumRowGroups(); g++ {
		for c := range r.Schema() {
			_ = r.Stats(g, c)
			_ = r.PruneInt(g, c, -1, 1)
		}
		b, err := r.ReadRowGroup(g, nil)
		if err != nil {
			return 0, err
		}
		if b.NumRows() != r.RowGroupRows(g) && len(r.Schema()) > 0 {
			return 0, fmt.Errorf("group %d decoded %d rows, footer says %d", g, b.NumRows(), r.RowGroupRows(g))
		}
	}
	all, err := r.ReadAll()
	if err != nil {
		return 0, err
	}
	return int64(all.NumRows()), nil
}

// damagedChunks returns the sealed file with the first bytes of one column
// chunk overwritten: it opens, and that chunk fails to decode.
func damagedChunks(tb testing.TB) []byte {
	data := append([]byte(nil), sealedFile(tb)...)
	r, err := OpenReader(data)
	if err != nil {
		tb.Fatal(err)
	}
	copy(data[r.meta.RowGroups[1].Chunks[2].Offset:], "\xff\xff\xff\xff")
	return data
}

// checkMemo reads every chunk of a cold or warm reader twice and checks what
// ReadColumn memoizes: a vector is the identical pointer the second time, an
// error is the same error again with nothing kept for it, and Retained is
// exactly the footer plus the MemSize of the vectors returned — nothing
// billed twice, nothing billed for a failed decode.
//
// How much a reader can come to retain is bounded per chunk, against the
// bytes the chunk inflates to: a plain value costs at least one inflated byte
// and at most 17 of MemSize (an empty string and its NULL flag), so a plain
// chunk retains under 32x what it inflates to. The other two encodings back
// any amount with a few bytes and are exempt: a run-length chunk spends two
// bytes on a run of any length (the case ROADMAP records: a hostile footer
// can ask for 2^32 rows), and a dictionary chunk's rows share their entry's
// bytes while MemSize counts them per row. Before this reader memoized, such
// a vector was garbage as soon as the statement ended; now it is retained for
// as long as the file is cached, which is why it is charged to the cache that
// keeps it (compute's lru evicts an entry that outgrows it). The file's own
// length bounds none of this — deflate shrinks a chunk of zeros a
// thousandfold, and nothing stops two footer entries naming one extent.
func checkMemo(t *testing.T, r *Reader, footerLen int) {
	t.Helper()
	want := int64(footerLen)
	for g := 0; g < r.NumRowGroups(); g++ {
		for c := range r.Schema() {
			v, err := r.ReadColumn(g, c)
			again, errAgain := r.ReadColumn(g, c)
			if err != nil {
				if v != nil || again != nil || errAgain == nil || errAgain.Error() != err.Error() {
					t.Fatalf("chunk %d/%d: %v, then (%v, %v)", g, c, err, again, errAgain)
				}
				continue
			}
			if again != v || errAgain != nil {
				t.Fatalf("chunk %d/%d: second read returned another vector (%v)", g, c, errAgain)
			}
			want += v.MemSize()
			ch := r.meta.RowGroups[g].Chunks[c]
			raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(r.data[ch.Offset : ch.Offset+ch.Length])))
			if err != nil {
				t.Fatalf("chunk %d/%d decoded but does not inflate: %v", g, c, err)
			}
			if raw[0] == encPlain && v.MemSize() > int64(32*len(raw)) {
				t.Fatalf("chunk %d/%d: %d inflated bytes retained as %d", g, c, len(raw), v.MemSize())
			}
		}
	}
	if got := r.Retained(); got != want {
		t.Fatalf("reader reports %d bytes retained, footer and vectors sum to %d", got, want)
	}
}

// FuzzOpenReader feeds the file reader arbitrary bytes: OpenReader returns a
// reader or an error, and on a reader every Stats, PruneInt, ReadRowGroup and
// ReadAll returns a value or an error — never a panic — and ReadColumn
// memoizes what checkMemo says. The seeds are a real sealed file, its
// truncations, a damaged chunk, and the malformed footers above.
func FuzzOpenReader(f *testing.F) {
	data := sealedFile(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[len(data)/2:])
	f.Add(damagedChunks(f))
	for _, bad := range malformedFooters(f) {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReader(data)
		if err != nil {
			if r != nil {
				t.Fatalf("error %v returned with a reader", err)
			}
			return
		}
		// A run-length chunk backs any row count with two bytes, so a footer
		// can honestly claim more rows than a fuzz iteration should decode.
		if r.NumRows() > 1<<16 {
			return
		}
		checkMemo(t, r, int(binary.LittleEndian.Uint64(data[len(data)-12:])))
		if rows, err := exerciseReader(r); err == nil && rows != r.NumRows() && len(r.Schema()) > 0 {
			t.Fatalf("decoded %d rows, footer says %d", rows, r.NumRows())
		}
	})
}

// TestReaderSharedAcrossGoroutines pins the Reader's contract — logically
// immutable after open, memoizing behind atomics — under the race detector:
// the compute cache hands one reader to every session that scans the file.
func TestReaderSharedAcrossGoroutines(t *testing.T) {
	r, err := OpenReader(sealedFile(t))
	if err != nil {
		t.Fatal(err)
	}
	// First readers racing on one cold chunk all leave with the same vector.
	const racers = 16
	start := make(chan struct{})
	vecs := make([]*Vec, racers)
	var wg sync.WaitGroup
	for i := range vecs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := r.ReadColumn(1, 2)
			if err != nil {
				t.Error(err)
			}
			vecs[i] = v
		}()
	}
	close(start)
	wg.Wait()
	for i, v := range vecs {
		if v == nil || v != vecs[0] {
			t.Fatalf("racer %d left with its own vector", i)
		}
	}
	if kept, err := r.ReadColumn(1, 2); err != nil || kept != vecs[0] {
		t.Fatalf("the vector the racers share is not the one kept (%v)", err)
	}

	want, err := exerciseReader(r)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, err := exerciseReader(r); err != nil || got != want {
					t.Errorf("shared reader: %d rows, %v", got, err)
					return
				}
				_, _, _, _ = r.Schema(), r.Sketches(), r.SortedBy(), r.Size()
			}
		}()
	}
	wg.Wait()
}
