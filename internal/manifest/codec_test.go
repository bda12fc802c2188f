package manifest

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"polaris/internal/colfile"
)

// sameBits reports whether a and b are deeply equal, floats compared by their
// bits: NaN equals NaN and −0 differs from +0, where reflect.DeepEqual has
// them the other way round.
func sameBits(a, b any) bool { return sameValue(reflect.ValueOf(a), reflect.ValueOf(b)) }

func sameValue(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint8:
		return a.Uint() == b.Uint()
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

// edgeSketches are one column of each awkward kind: ±2^62 int bounds, NaN
// and −0 float bounds, empty-string bounds, an all-NULL column (no min or
// max, an all-zero bitmap), a nil bitmap, and a dense bitmap beside a sparse
// one. They are the sketches of a 3-row file: every column observes every
// row, and the wire takes a sketch's rows from its file's.
func edgeSketches() []colfile.ColSketch {
	hi, lo := int64(1)<<62, -(int64(1) << 62)
	nan, negZero, empty := math.NaN(), math.Copysign(0, -1), ""
	dense, sparse := make(colfile.NDVBitmap, 256), make(colfile.NDVBitmap, 256)
	for i := range dense {
		dense[i] = byte(i*37 + 1)
	}
	sparse[0], sparse[255] = 0x01, 0x80
	return []colfile.ColSketch{
		{Rows: 3, Stats: colfile.ColStats{MinInt: &lo, MaxInt: &hi}, Bitmap: dense},
		{Rows: 3, Stats: colfile.ColStats{MinFloat: &nan, MaxFloat: &negZero, NullCount: 1}, Bitmap: sparse},
		{Rows: 3, Stats: colfile.ColStats{MinStr: &empty, MaxStr: &empty}, Bitmap: sparse},
		{Rows: 3, Stats: colfile.ColStats{NullCount: 3}, Bitmap: make(colfile.NDVBitmap, 256)},
		{Rows: 3},
	}
}

// edgeActions is one action of every op and kind, with paths that share a
// long prefix, paths that share none, and ±2^62 counts.
func edgeActions() []Action {
	hi := int64(1) << 62
	return []Action{
		{Op: OpAdd, Kind: KindData, Path: "tables/1/data/7-p0-1.pcf", Rows: 3, Size: hi, Partition: 7, Sketches: edgeSketches()},
		{Op: OpAdd, Kind: KindData, Path: "tables/1/data/7-p0-2.pcf", Rows: -hi},
		{Op: OpAdd, Kind: KindDV, Path: "x", Target: "tables/1/data/7-p0-1.pcf", DeletedRows: hi, Partition: 1},
		{Op: OpRemove, Kind: KindDV, Path: "tables/1/dv/9-0.dv", Target: "y"},
		{Op: OpRemove, Kind: KindData, Path: "z"},
	}
}

// edgeCheckpoint holds files with and without deletion vectors and sketches.
func edgeCheckpoint() *Checkpoint {
	hi := int64(1) << 62
	return &Checkpoint{
		TableID: hi, Seq: hi,
		Files: []*FileEntry{
			{Path: "a", Rows: 3, Size: 9, Partition: 2, DV: "tables/1/dv/3-0.dv", DeletedRows: 1, Sketches: edgeSketches()},
			{Path: "tables/1/data/7-p0-1.pcf"},
			{Path: "tables/1/data/7-p0-2.pcf", Rows: hi, DV: "x"},
		},
	}
}

// TestCodecRoundTripsEdgeCases: Decode(Encode(a)) is a, bit for bit, for
// actions and checkpoints built from every awkward value the codec carries.
func TestCodecRoundTripsEdgeCases(t *testing.T) {
	actions := edgeActions()
	got, err := Decode(Encode(actions))
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, actions) {
		t.Fatalf("actions round trip:\n got %+v\nwant %+v", got, actions)
	}
	cp := edgeCheckpoint()
	back, err := UnmarshalCheckpoint(cp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(back, cp) {
		t.Fatalf("checkpoint round trip:\n got %+v\nwant %+v", back, cp)
	}
	if sameBits(math.Copysign(0, -1), 0.0) || !sameBits(math.NaN(), math.NaN()) {
		t.Fatal("sameBits does not compare floats by their bits")
	}
}

// rejectCase is one damaged input and the error it must give: prefixed by
// the decoder's format and naming the defect.
type rejectCase struct {
	name string
	in   []byte
	want string
}

func checkRejects(t *testing.T, format string, decode func([]byte) error, cases []rejectCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decode(tc.in)
			if err == nil {
				t.Fatalf("%x decoded", tc.in)
			}
			if !strings.HasPrefix(err.Error(), format+": ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%x: %v; want %q naming %q", tc.in, err, format, tc.want)
			}
		})
	}
}

// TestDecodeRejectsInvalid: a manifest is bytes from storage, decoded through
// wire.Reader like colfile's formats, so the same damage is the same error —
// a truncated varint, a non-minimal one, a count the bytes left cannot back,
// a trailing byte. A block's own defects are rejected too: a bad header, a
// front-coded prefix longer than the string before it, strings that front
// coding would blow up, an action Validate refuses and a damaged sketch.
// (An op or kind outside add/remove and data/dv has no encoding.)
func TestDecodeRejectsInvalid(t *testing.T) {
	block := func(body string) []byte { return []byte(blockHeader + body) }
	// "aaaa…" then, 16k times over, its whole prefix and one byte more.
	blowUp := blockHeader + "\x80\x80\x01\x00\x00\xff\x01" + strings.Repeat("a", 255) + strings.Repeat("\x00\xff\x01\x01b", 1<<14-1)
	decode := func(b []byte) error { _, err := Decode(b); return err }
	// A block is [header][count][flags][prefix][suffix]…; flags 0x04 says
	// rows follow the path, 0x02 makes the action a DV's and 0x80 says
	// sketches follow.
	checkRejects(t, "manifest: decode", decode, []rejectCase{
		{"truncated varint", block("\x01\x04\x00\x01p\x80"), "truncated varint"},
		{"non-minimal varint", block("\x01\x00\x80\x00\x01p"), "non-minimal varint"},
		{"count past the bytes left", block("\x05\x00\x00\x01p"), "5 actions need more than"},
		// A byte after a block is the start of a truncated one.
		{"trailing byte", block("\x01\x00\x00\x01p\x00"), "4 block header bytes need more than"},
		{"bad header", []byte(`{"op":"add","kind":"dv","path":"d"}`), "bad block header"},
		{"prefix past its predecessor", block("\x01\x00\x02\x01p"), "paths shares 2 bytes with a 0-byte predecessor"},
		{"strings blown up", []byte(blowUp), "take more than 16 times"},
		{"empty path", block("\x01\x00\x00\x00"), "action 0: manifest: empty path"},
		{"dv without target", block("\x01\x02\x00\x01d"), "missing target"},
		// One sketch naming position 5 twice.
		{"duplicate sketch position", block("\x01\x80\x00\x01p\x01\x00\x00\x03\x05\x00"), "ndv bitmap: duplicate position"},
		// Flags 0x10 say a partition follows: zig-zag 3 is −2.
		{"partition below mixed cells", block("\x01\x10\x00\x01p\x03"), "partition -2 is below -1"},
	})
	for name, in := range map[string][]byte{
		"control":         block("\x01\x00\x00\x01p"),
		"repeated prefix": block("\x02\x00\x00\x04long\x00\x04\x00"),
	} {
		if err := decode(in); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestUnmarshalCheckpointRejectsCorrupt: a checkpoint blob is bytes from
// storage, so a damaged one must be an error at unmarshal time, never a state
// that panics its readers: the damage every wire.Reader format shares, and a
// checkpoint's own — a bad header, a file entry that is not an add of a data
// file or has no path, a damaged sketch.
func TestUnmarshalCheckpointRejectsCorrupt(t *testing.T) {
	// A checkpoint of table 1 at sequence 2; what follows is its file count.
	cp := func(body string) []byte { return []byte(checkpointHeader + "\x01\x02" + body) }
	decode := func(b []byte) error { _, err := UnmarshalCheckpoint(b); return err }
	// One file "a" with one sketch whose bitmap's wire form is raw.
	sketched := func(raw string) []byte {
		return cp("\x01\x80\x00\x01a\x01\x00\x00" + string(rune(len(raw)+1)) + raw)
	}
	checkRejects(t, "manifest: checkpoint", decode, []rejectCase{
		{"truncated varint", cp("\x80"), "truncated varint"},
		{"non-minimal varint", cp("\x80\x00\x00"), "non-minimal varint"},
		{"count past the bytes left", cp("\x09\x00"), "9 files need more than"},
		{"trailing byte", cp("\x00\x00"), "1 trailing bytes"},
		{"bad header", []byte(`{"files":[]}`), "bad header"},
		{"file that is a remove", cp("\x01\x01\x00\x01a"), "file 0 is not an add"},
		{"empty path", cp("\x01\x00\x00\x00"), "file 0 is not an add of a data file with a path"},
		// Sparse sketch bitmaps: a truncated varint (0x80) and position 2048
		// (uvarint 0x80 0x10).
		{"truncated ndv", sketched("\x80"), "ndv bitmap: truncated"},
		{"ndv past the bitmap", sketched("\x80\x10"), "ndv bitmap: position"},
		{"partition below mixed cells", cp("\x01\x10\x00\x01a\x03"), "partition -2 is below -1"},
	})
	for name, in := range map[string][]byte{
		"control":        cp("\x01\x00\x00\x01a"),
		"sketch control": sketched("\x05"),
		"no files":       cp("\x00"),
	} {
		if err := decode(in); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestMixedCellsPartitionCodec: MixedCells (−1) round-trips through the
// manifest block and the checkpoint in one byte, and no partition below it
// decodes.
func TestMixedCellsPartitionCodec(t *testing.T) {
	mixed := Action{Op: OpAdd, Kind: KindData, Path: "tables/1/data/7-m-1.pcf", Rows: 3, Partition: MixedCells}
	cell := mixed
	cell.Partition = 0
	if got, want := len(Encode([]Action{mixed})), len(Encode([]Action{cell}))+1; got != want {
		t.Errorf("a mixed Add action encodes to %d bytes, want %d: one more than a cell-0 one's", got, want)
	}
	actions, err := Decode(Encode([]Action{mixed}))
	if err != nil || len(actions) != 1 || actions[0].Partition != MixedCells {
		t.Fatalf("block round trip: %+v, %v", actions, err)
	}
	cp := &Checkpoint{TableID: 1, Seq: 2, Files: []*FileEntry{{Path: mixed.Path, Rows: 3, Partition: MixedCells}}}
	back, err := UnmarshalCheckpoint(cp.Marshal())
	if err != nil || !sameBits(back, cp) {
		t.Fatalf("checkpoint round trip: %+v, %v", back, err)
	}
	below := mixed
	below.Partition = MixedCells - 1
	if _, err := Decode(Encode([]Action{below})); err == nil || !strings.Contains(err.Error(), "partition -2 is below -1") {
		t.Fatalf("partition -2 in a block: %v", err)
	}
	cp.Files[0].Partition = MixedCells - 1
	if _, err := UnmarshalCheckpoint(cp.Marshal()); err == nil || !strings.Contains(err.Error(), "partition -2 is below -1") {
		t.Fatalf("partition -2 in a checkpoint: %v", err)
	}
}

// TestDecodeRemovalsSkipsSketches: the removals-only walk returns exactly
// the Remove actions Decode returns, and it decodes no sketch: over Add
// actions with four dense sketches each it allocates less than one bitmap's
// bytes per action, where Decode allocates four bitmaps.
func TestDecodeRemovalsSkipsSketches(t *testing.T) {
	var adds, removes []Action
	for i := 0; i < 200; i++ {
		a := addData(fmt.Sprintf("tables/1/data/%d-p0-1.pcf", i), 3)
		dense := edgeSketches()[0]
		a.Sketches = []colfile.ColSketch{dense, dense, dense, dense}
		adds = append(adds, a)
		removes = append(removes, removeData(fmt.Sprintf("tables/1/data/%d-p1-1.pcf", i)))
	}
	data := append(Encode(adds), Encode(removes)...)
	got, err := DecodeRemovals(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, removes) {
		t.Fatalf("DecodeRemovals returned %d actions, want the %d Removes", len(got), len(removes))
	}
	addBlock := Encode(adds)
	full := allocatedBy(func() { _, err = Decode(addBlock) })
	walk := allocatedBy(func() { got, err = DecodeRemovals(addBlock) })
	if err != nil || got != nil {
		t.Fatalf("DecodeRemovals of Add actions: %v, %v", got, err)
	}
	if per := walk / uint64(len(adds)); per >= 256 {
		t.Fatalf("DecodeRemovals allocated %d bytes per Add action (Decode %d): it decoded sketches", per, full/uint64(len(adds)))
	}
}
