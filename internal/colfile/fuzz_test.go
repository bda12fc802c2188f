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
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"polaris/internal/wire"
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

// refooter returns the file with its footer edited and re-sealed behind the
// same chunk region. The footer is the one OpenReader parsed from the file.
func refooter(tb testing.TB, data []byte, edit func(*footer)) []byte {
	tb.Helper()
	r, err := OpenReader(data)
	if err != nil {
		tb.Fatal(err)
	}
	meta := r.meta
	edit(&meta)
	return resealFooter(data, meta.appendV2(nil), magicV2)
}

// resealFooter puts enc behind data's chunk region as a footer under magic.
func resealFooter(data, enc, magic []byte) []byte {
	dataEnd := len(data) - 12 - int(binary.LittleEndian.Uint64(data[len(data)-12:]))
	out := append([]byte(nil), data[:dataEnd]...)
	out = append(out, enc...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(enc)))
	return append(out, magic...)
}

// malformedFooters are footers OpenReader used to accept and then could not
// serve: each opened without error on the parent of the change that added
// footer validation, and the first three then panicked in ReadColumn, Stats
// and decodeChunk. The last four break the footer's encoding itself.
func malformedFooters(tb testing.TB) map[string][]byte {
	data := sealedFile(tb)
	edits := map[string]func(m *footer){
		"negative chunk offset":   func(m *footer) { m.RowGroups[0].Chunks[1].Offset = -1 },
		"group short of chunks":   func(m *footer) { m.RowGroups[1].Chunks = m.RowGroups[1].Chunks[:2] },
		"negative group rows":     func(m *footer) { m.RowGroups[0].NumRows = -24; m.NumRows = 0 },
		"negative chunk length":   func(m *footer) { m.RowGroups[0].Chunks[0].Length = -5 },
		"chunk past the footer":   func(m *footer) { m.RowGroups[1].Chunks[4].Length += 9 },
		"offset+length overflows": func(m *footer) { m.RowGroups[0].Chunks[0].Length = math.MaxInt64 },
		"rows do not sum":         func(m *footer) { m.NumRows++ },
		"unknown column type":     func(m *footer) { m.Schema[2].Type = 9 },
		"group over the row cap": func(m *footer) {
			m.RowGroups[0].NumRows += MaxGroupRows
			m.NumRows += MaxGroupRows
		},
	}
	out := map[string][]byte{}
	for name, edit := range edits {
		out[name] = refooter(tb, data, edit)
	}
	r, err := OpenReader(data)
	if err != nil {
		tb.Fatal(err)
	}
	enc := r.meta.appendV2(nil)
	// The encoding up to the row-group count, which is one byte here: the
	// columns, the sort column and the row count.
	head := (&footer{Schema: r.meta.Schema, SortedBy: r.meta.SortedBy, NumRows: r.meta.NumRows}).appendV2(nil)
	atGroups := len(head) - 1
	// The first column's name length sits behind the column count and its
	// type byte.
	const atName = 2
	splice := func(at int, with []byte) []byte {
		return append(append(append([]byte(nil), enc[:at]...), with...), enc[at+1:]...)
	}
	out["truncated varint"] = resealFooter(data, append(enc[:atGroups:atGroups], 0x80), magicV2)
	out["count past the bytes left"] = resealFooter(data, splice(atGroups, binary.AppendUvarint(nil, 1<<40)), magicV2)
	out["string past the end"] = resealFooter(data, splice(atName, binary.AppendUvarint(nil, uint64(len(enc)))), magicV2)
	out["trailing bytes"] = resealFooter(data, append(enc[:len(enc):len(enc)], 0), magicV2)
	return out
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

// TestOpenReaderRejectsOversizeGroup is a hostile file that decodes: one
// run-length chunk of a few bytes that backs a group of 2^30 rows. Before
// the row-group cap it opened, and a scan then sized its decode and keep
// mask by the footer's count.
func TestOpenReaderRejectsOversizeGroup(t *testing.T) {
	raw := binary.AppendUvarint(binary.AppendVarint([]byte{encRLE, 0}, 7), 1<<30)
	var chunk bytes.Buffer
	fw, err := flate.NewWriter(&chunk, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	seven := int64(7)
	meta := footer{
		Schema:  Schema{{Name: "k", Type: Int64}},
		NumRows: 1 << 30,
		RowGroups: []rowGroupMeta{{NumRows: 1 << 30, Chunks: []chunkMeta{{
			Length: int64(chunk.Len()), Stats: ColStats{MinInt: &seven, MaxInt: &seven},
		}}}},
	}
	data := append(chunk.Bytes(), make([]byte, 12)...) // an empty footer to replace
	if r, err := OpenReader(resealFooter(data, meta.appendV2(nil), magicV2)); err == nil {
		t.Fatalf("a %d-row group opened (%d rows)", r.RowGroupRows(0), r.NumRows())
	}
	w := NewWriter(Schema{{Name: "k", Type: Int64}})
	b := NewBatch(w.schema)
	for i := 0; i <= MaxGroupRows; i++ {
		b.Cols[0].AppendInt(7)
	}
	if err := w.WriteBatch(b); err == nil {
		t.Fatalf("WriteBatch sealed a group of %d rows", b.NumRows())
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
// exactly the footer's estimate plus the MemSize of the vectors returned —
// nothing billed twice, nothing billed for a failed decode.
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
func checkMemo(t *testing.T, r *Reader) {
	t.Helper()
	want := r.footerSize()
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
// halves, the same file under the retired "PCF1" magic, a damaged chunk, the
// malformed footers above, and a one-column file of each chunkSeeds vector,
// so every encoding and type starts out behind a valid footer.
func FuzzOpenReader(f *testing.F) {
	data := sealedFile(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[len(data)/2:])
	f.Add(withMagic(data, "PCF1"))
	f.Add(damagedChunks(f))
	for _, bad := range malformedFooters(f) {
		f.Add(bad)
	}
	for _, v := range chunkSeeds() {
		b := &Batch{Schema: Schema{{Name: "c", Type: v.Type}}, Cols: []*Vec{v}}
		w := NewWriter(b.Schema)
		if err := w.WriteBatch(b); err != nil {
			f.Fatal(err)
		}
		sealed, err := w.Finish()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sealed)
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
		checkMemo(t, r)
		if rows, err := exerciseReader(r); err == nil && rows != r.NumRows() && len(r.Schema()) > 0 {
			t.Fatalf("decoded %d rows, footer says %d", rows, r.NumRows())
		}
	})
}

// chunkSeeds are one vector per encoding and type, each also with NULLs: the
// inputs FuzzChunkBody starts from, inflated.
func chunkSeeds() []*Vec {
	runs, codes := NewVec(Int64), NewVec(String)
	for i := 0; i < 32; i++ {
		runs.AppendInt(int64(i / 8))
		codes.AppendStr([]string{"x", "", "zz"}[i%3])
	}
	vecs := []*Vec{
		{Type: Int64, Ints: []int64{0, -1, 1, 300, math.MinInt64, math.MaxInt64}},
		runs,
		{Type: Float64, Floats: []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 2.5}},
		{Type: String, Strs: []string{"", "a", "\x00\xff", "long enough to need its own bytes"}},
		codes,
		{Type: Bool, Bools: []bool{true, false, true}},
	}
	for _, v := range vecs {
		withNulls := v.Slice(0, v.Len())
		withNulls.Nulls = make([]bool, v.Len())
		for r := 0; r < v.Len(); r += 3 {
			withNulls.Nulls[r] = true
		}
		vecs = append(vecs, withNulls)
	}
	return vecs
}

// FuzzChunkBody feeds the chunk body decoder arbitrary inflated bytes as a
// chunk of a fuzzed type and row count; FuzzOpenReader's inputs rarely get
// past inflate. It returns a vector of exactly that many rows or an error,
// never panics, and allocates no more than a small multiple of its input —
// except for a run-length chunk, which backs any row count with two bytes
// (see checkMemo). A vector it returns re-encodes to a chunk that decodes
// back to the same vector, payload under NULLs and float bits included. The
// seeds are chunkSeeds and their truncations.
func FuzzChunkBody(f *testing.F) {
	for _, v := range chunkSeeds() {
		data, err := encodeChunk(v)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(data)))
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{len(raw), len(raw) - 1, len(raw) / 2, 1} {
			f.Add(raw[:cut], byte(v.Type), uint16(v.Len()))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, typ byte, rows uint16) {
		dt, n := DataType(typ%byte(Bool+1)), int(rows)
		var v *Vec
		var err error
		grew := allocatedBy(func() { v, err = decodeChunkBody(raw, dt, n) })
		// As in FuzzUnmarshalBatch: a string costs a 16-byte header and its
		// copy, a NULL bit a one-byte bool, a dictionary code a header.
		if limit := uint64(32*len(raw) + 16<<10); grew > limit && (len(raw) == 0 || raw[0] != encRLE) {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), grew, limit)
		}
		if err != nil {
			if v != nil {
				t.Fatalf("error %v returned with a vector", err)
			}
			return
		}
		if v.Type != dt || v.Len() != n || (v.Nulls != nil && len(v.Nulls) != n) {
			t.Fatalf("%v chunk of %d rows decoded to a %v vector of %d rows, %d NULL flags", dt, n, v.Type, v.Len(), len(v.Nulls))
		}
		data, err := encodeChunk(v)
		if err != nil {
			t.Fatalf("re-encode of an accepted chunk: %v", err)
		}
		back, err := decodeChunk(data, dt, n)
		if err != nil {
			t.Fatalf("re-decode of an accepted chunk: %v", err)
		}
		sameFrame(t, "re-decoded chunk", back, v)
		if again, err := encodeChunk(back); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("re-decoded chunk re-encodes differently (%v)", err)
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
				_, _, _ = r.Schema(), r.SortedBy(), r.Size()
			}
		}()
	}
	wg.Wait()
}

// FuzzVecCopies: for a fuzzed type, length, NULL pattern (junk payload under
// each NULL; nulls == 0 is no bitmap, a pattern past the last row an
// all-false one), index list (repeats and -1s) and range, AppendTake, Take,
// Slice and AppendBatch each leave the vector of per-row Append, and none
// panics.
func FuzzVecCopies(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte{1, 2, 3, 4}, []byte{0, 4, 2, 2}, uint8(1), uint8(3))
	f.Add(uint8(1), uint64(0b1010), []byte{9, 8, 7, 6, 5}, []byte{5, 0, 1}, uint8(0), uint8(5))
	f.Add(uint8(2), uint64(1<<63), []byte{1, 2}, []byte{}, uint8(2), uint8(0))
	f.Add(uint8(3), uint64(0b111), []byte{1, 0, 1}, []byte{3, 3, 0}, uint8(1), uint8(2))
	f.Add(uint8(0), uint64(1), []byte{}, []byte{7}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, typ uint8, nulls uint64, vals, idxBytes []byte, lo, hi uint8) {
		src := NewVec(DataType(typ % 4))
		vals = vals[:min(len(vals), 64)]
		for _, b := range vals {
			switch src.Type {
			case Int64:
				src.AppendInt(int64(int8(b)))
			case Float64:
				src.AppendFloat(float64(int8(b)) / 4)
			case String:
				src.AppendStr(fmt.Sprint(b))
			case Bool:
				src.AppendBool(b&1 == 1)
			}
		}
		n := len(vals)
		if nulls != 0 {
			src.Nulls = make([]bool, n)
			for i := range src.Nulls {
				src.Nulls[i] = nulls>>i&1 == 1
			}
		}
		idx := make([]int, len(idxBytes))
		for k, b := range idxBytes {
			idx[k] = int(b)%(n+1) - 1
		}
		l, h := int(lo)%(n+1), int(hi)%(n+1)
		if l > h {
			l, h = h, l
		}
		checkCopies(t, fmt.Sprintf("%v, %d rows", src.Type, n), src, idx, l, h)
	})
}

// FuzzNDVBitmap: any bytes, as the raw wire form of an NDVBitmap and as a
// list of sketches (AppendSketches') of a file of any row count, give a
// value or an error — never a panic, and never an allocation the input
// cannot back. A bitmap is dense. Whatever decodes re-encodes stably:
// decoding the encoding gives the same value, and encoding that gives the
// same bytes. (A dense input with few bits set legitimately comes back
// sparse.)
func FuzzNDVBitmap(f *testing.F) {
	full := bytes.Repeat([]byte{0xFF}, sketchBits/8)
	for _, seed := range [][]byte{
		{}, {0x00, 0xFF, 0x0F}, {0x80}, {0x80, 0x10}, {0x05, 0x00}, {0x85, 0x00},
		{0xFF, 0x0F, 0x01}, {0x03, 0xB9, 0x05, 0x01}, append(full, 0),
		make([]byte, sketchBits/8), full,
		AppendSketches(nil, []ColSketch{{}, {Stats: ColStats{NullCount: 2}, Bitmap: bitmapWith()}}),
		AppendSketches(nil, []ColSketch{{Bitmap: full}, {Bitmap: bitmapWith(0, 2047)}}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := readNDV(data); err == nil {
			if len(b) != sketchBits/8 {
				t.Fatalf("%x decoded to %d bytes", data, len(b))
			}
			enc := b.appendWire(nil)
			back, err := readNDV(enc)
			if err != nil {
				t.Fatalf("re-decode of %x: %v", enc, err)
			}
			if !bytes.Equal(back, b) {
				t.Fatalf("%x decodes to %x, want %x", enc, back, b)
			}
			if again := back.appendWire(nil); !bytes.Equal(again, enc) {
				t.Fatalf("re-encoding is not stable: %x then %x", enc, again)
			}
		}
		const rows = 9 // the file's: the wire holds no row counts
		r := wire.NewReader(data)
		sks := ReadSketches(r, rows)
		if r.End("sketches") != nil {
			return
		}
		for i, sk := range sks {
			if sk.Bitmap != nil && len(sk.Bitmap) != sketchBits/8 {
				t.Fatalf("%x: sketch %d has a %d-byte bitmap", data, i, len(sk.Bitmap))
			}
			if sk.Rows != rows {
				t.Fatalf("%x: sketch %d has %d rows, the file %d", data, i, sk.Rows, rows)
			}
		}
		enc := AppendSketches(nil, sks)
		r = wire.NewReader(enc)
		back := ReadSketches(r, rows)
		if err := r.End("sketches"); err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if again := AppendSketches(nil, back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable: %x then %x", enc, again)
		}
	})
}
