package colfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
)

// sealFrame closes a hand-built frame body with the checksum the decoder
// expects, so a test (or the fuzzer) reaches the structural checks behind it.
func sealFrame(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameBatch is a small batch with every type, NULLs in three columns and
// the awkward values: NaN, infinities, negative zero, NUL bytes, invalid
// UTF-8, the empty string.
func frameBatch() *Batch {
	b := NewBatch(Schema{
		{Name: "i", Type: Int64}, {Name: "f", Type: Float64},
		{Name: "s", Type: String}, {Name: "b", Type: Bool}, {Name: "", Type: Int64},
	})
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, math.Float64frombits(0x7ff8000000000123)}
	strs := []string{"", "a\x00b", "\xff\xfe", "plain", "\x00", "é", "x"}
	for r := 0; r < 11; r++ {
		b.Cols[0].AppendInt(int64(r)*math.MaxInt64/7 - 5)
		if r == 4 {
			b.Cols[1].AppendNull()
		} else {
			b.Cols[1].AppendFloat(floats[r%len(floats)])
		}
		if r%5 == 2 {
			b.Cols[2].AppendNull()
		} else {
			b.Cols[2].AppendStr(strs[r%len(strs)])
		}
		if r == 9 {
			b.Cols[3].AppendNull()
		} else {
			b.Cols[3].AppendBool(r%3 == 0)
		}
		b.Cols[4].AppendInt(math.MinInt64 + int64(r))
	}
	return b
}

// sameBatch compares two batches cell by cell through the key encoding, which
// keeps float bit patterns (NaN payloads, the sign of zero) and NULLs apart.
func sameBatch(t *testing.T, got, want *Batch) {
	t.Helper()
	want = want.Materialize()
	if !got.Schema.Equal(want.Schema) || len(got.Cols) != len(want.Cols) {
		t.Fatalf("schema %v, want %v", got.Schema, want.Schema)
	}
	if got.Sel != nil {
		t.Fatal("decoded batch carries a selection vector")
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for c := range want.Cols {
		if got.Cols[c].Type != want.Cols[c].Type || got.Cols[c].Len() != want.Cols[c].Len() {
			t.Fatalf("col %d: %v x %d, want %v x %d", c, got.Cols[c].Type, got.Cols[c].Len(), want.Cols[c].Type, want.Cols[c].Len())
		}
		for r := 0; r < want.NumRows(); r++ {
			if g, w := got.Cols[c].AppendKey(nil, r), want.Cols[c].AppendKey(nil, r); !bytes.Equal(g, w) {
				t.Fatalf("row %d col %d: %x, want %x", r, c, g, w)
			}
		}
	}
}

func mustMarshal(t *testing.T, b *Batch) []byte {
	t.Helper()
	data, err := MarshalBatch(b)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestFramePurity: the frame is a function of the logical rows only — not of
// how the NULL bitmap is represented, of what sits under a NULL, or of
// whether the rows are dense or seen through a selection vector.
func TestFramePurity(t *testing.T) {
	schema := Schema{{Name: "k", Type: Int64}, {Name: "s", Type: String}, {Name: "f", Type: Float64}, {Name: "b", Type: Bool}}
	dense := NewBatch(schema)
	for r := 0; r < 20; r++ {
		dense.Cols[0].AppendInt(int64(r))
		dense.Cols[1].AppendStr("v")
		dense.Cols[2].AppendFloat(float64(r) / 2)
		dense.Cols[3].AppendBool(r%2 == 1)
	}
	want := mustMarshal(t, dense)
	if again := mustMarshal(t, dense); !bytes.Equal(again, want) {
		t.Fatal("two marshals of one batch differ")
	}

	allFalse := &Batch{Schema: schema, Cols: make([]*Vec, len(dense.Cols))}
	for c, v := range dense.Cols {
		cp := *v
		cp.Nulls = make([]bool, v.Len())
		allFalse.Cols[c] = &cp
	}
	if got := mustMarshal(t, allFalse); !bytes.Equal(got, want) {
		t.Fatal("an all-false NULL bitmap marshals differently from a nil one")
	}
	back, err := UnmarshalBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range back.Cols {
		if v.Nulls != nil {
			t.Fatalf("col %d: a NULL-free column decoded with a bitmap", c)
		}
	}

	// The same 20 rows as the even positions of a 40-row batch.
	wide := NewBatch(schema)
	var sel []int
	for r := 0; r < 20; r++ {
		sel = append(sel, wide.NumRows())
		wide.AppendBatch(dense.Take([]int{r}))
		if err := wide.AppendRow(int64(-r), "other", 9.0, true); err != nil {
			t.Fatal(err)
		}
	}
	wide.Sel = sel
	if got := mustMarshal(t, wide); !bytes.Equal(got, want) {
		t.Fatal("a selected batch marshals differently from its dense rows")
	}

	// Whatever a kernel left in the payload slot under a NULL is not content.
	a, b := frameBatch(), frameBatch()
	b.Cols[1].Floats[4] = 42
	b.Cols[2].Strs[2] = "stale"
	b.Cols[3].Bools[9] = true
	if !bytes.Equal(mustMarshal(t, a), mustMarshal(t, b)) {
		t.Fatal("the slot under a NULL leaks into the frame")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	allNull := NewBatch(Schema{{Name: "n", Type: String}, {Name: "m", Type: Float64}})
	for r := 0; r < 9; r++ {
		allNull.Cols[0].AppendNull()
		allNull.Cols[1].AppendNull()
	}
	selected := frameBatch()
	selected.Sel = []int{0, 3, 4, 9}
	for name, in := range map[string]*Batch{
		"mixed":       frameBatch(),
		"selected":    selected,
		"empty":       NewBatch(frameBatch().Schema),
		"all-null":    allNull,
		"zero-column": NewBatch(Schema{}),
		"one-row":     frameBatch().Take([]int{4}),
	} {
		t.Run(name, func(t *testing.T) {
			data := mustMarshal(t, in)
			out, err := UnmarshalBatch(data)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			sameBatch(t, out, in)
			if again := mustMarshal(t, out); !bytes.Equal(again, data) {
				t.Fatal("re-marshalling the decoded batch changes the bytes")
			}
		})
	}

	// Float bit patterns survive exactly, NaN payload and zero sign included.
	in := frameBatch()
	out, err := UnmarshalBatch(mustMarshal(t, in))
	if err != nil {
		t.Fatal(err)
	}
	for r, x := range in.Cols[1].Floats {
		if !in.Cols[1].IsNull(r) && math.Float64bits(out.Cols[1].Floats[r]) != math.Float64bits(x) {
			t.Fatalf("float row %d: bits %x, want %x", r, math.Float64bits(out.Cols[1].Floats[r]), math.Float64bits(x))
		}
	}
}

func TestMarshalBatchRejectsMalformedBatch(t *testing.T) {
	ragged := frameBatch()
	ragged.Cols[0].AppendInt(1)
	mistyped := frameBatch()
	mistyped.Cols[0] = NewVec(String)
	short := frameBatch()
	short.Cols = short.Cols[:2]
	for name, b := range map[string]*Batch{"ragged": ragged, "mistyped": mistyped, "short": short} {
		if _, err := MarshalBatch(b); err == nil {
			t.Errorf("%s batch marshalled without error", name)
		}
	}
}

// TestFrameCorruption: a damaged frame is an error — never a batch, never a
// panic. The checksum catches every single-byte flip and every truncation;
// behind a recomputed checksum the structural checks catch the rest.
func TestFrameCorruption(t *testing.T) {
	good := mustMarshal(t, frameBatch())
	if _, err := UnmarshalBatch(good); err != nil {
		t.Fatal(err)
	}
	for i := range good {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := append([]byte(nil), good...)
			bad[i] ^= mask
			if b, err := UnmarshalBatch(bad); err == nil {
				t.Fatalf("flip %#x at byte %d of %d accepted: %d rows", mask, i, len(good), b.NumRows())
			} else if i >= len(frameMagic) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("flip at byte %d: %v, want ErrChecksum", i, err)
			}
		}
	}
	for n := 0; n < len(good); n++ {
		if b, err := UnmarshalBatch(good[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted: %d rows", n, len(good), b.NumRows())
		}
	}
	if _, err := UnmarshalBatch(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("a byte after the checksum accepted")
	}

	// Structural defects behind a valid checksum (those every decoder shares
	// are in TestDecodersRejectMalformedInput). head is a one-column int64
	// schema ("a"); each case supplies what follows it.
	head := func(typ byte) []byte { return append([]byte(frameMagic), 1, typ, 1, 'a') }
	for name, body := range map[string][]byte{
		"unknown type":           append(head(9), 0, 0),
		"null flag 2":            append(head(byte(Int64)), 0, 2),
		"missing null flag":      append(head(byte(Int64)), 0),
		"short int payload":      append(head(byte(Int64)), 2, 0, 1, 2, 3, 4, 5, 6, 7, 8),
		"short null bitmap":      append(head(byte(Bool)), 9, 1, 0xff),
		"name beyond frame":      append([]byte(frameMagic), 1, byte(Int64), 200, 'a'),
		"rows without columns":   append([]byte(frameMagic), 0, 5),
		"string beyond frame":    append(head(byte(String)), 1, 0, 50, 'x'),
		"overlong row count":     append(head(byte(Int64)), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"second string past end": append(head(byte(String)), 2, 0, 1, 'x', 9),
	} {
		if b, err := UnmarshalBatch(sealFrame(body)); err == nil {
			t.Errorf("%s: accepted, %d rows", name, b.NumRows())
		} else if errors.Is(err, ErrChecksum) {
			t.Errorf("%s: rejected by the checksum, not by the structural check", name)
		}
	}
	if _, err := UnmarshalBatch(sealFrame(append(head(byte(Int64)), 0, 0))); err != nil {
		t.Fatalf("the control frame (empty, one column) must decode: %v", err)
	}
}

// TestFrameClaimsAreCheckedBeforeAllocating: a count the frame cannot back
// fails before anything is allocated on its word.
func TestFrameClaimsAreCheckedBeforeAllocating(t *testing.T) {
	const claim = 1 << 28 // rows, strings bytes or columns: gigabytes if believed
	uv := binary.AppendUvarint(nil, claim)
	intCol := append([]byte(frameMagic), 1, byte(Int64), 1, 'a')
	strCol := append([]byte(frameMagic), 1, byte(String), 1, 's')
	frames := map[string][]byte{
		"row count":     sealFrame(append(append(intCol, uv...), 0, 1, 2, 3)),
		"string length": sealFrame(append(append(append(strCol, 1, 0), uv...), 'x')),
		"column count":  sealFrame(append(append([]byte(frameMagic), uv...), 0, 0)),
		"name length":   sealFrame(append(append([]byte(frameMagic), 1, byte(Int64)), uv...)),
	}
	// A row count the bytes do back per row but not per 8-byte value.
	padded := append(append(intCol, binary.AppendUvarint(nil, 1<<16)...), 0)
	frames["row count under value width"] = sealFrame(append(padded, make([]byte, 1<<16)...))
	for name, frame := range frames {
		var err error
		grew := allocatedBy(func() { _, err = UnmarshalBatch(frame) })
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew > 64<<10 {
			t.Errorf("%s: allocated %d bytes before rejecting a %d-byte frame", name, grew, len(frame))
		}
	}
}
