package manifest

import (
	"bytes"
	"runtime"
	"testing"
)

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocLimit bounds what decoding n bytes may allocate. The most a few input
// bytes can ask for is a sketch: three bytes name an all-zero NDV bitmap,
// which decodes to 256 dense bytes and an 88-byte ColSketch. Front-coded
// strings are capped at maxStringExpansion times the input.
func allocLimit(n int) uint64 { return uint64(128*n + 64<<10) }

// FuzzManifestDecode: any bytes give actions or an error, never a panic and
// never an allocation the input cannot back. Every action passes Validate,
// and re-encoding is stable: the actions re-encode to a block that decodes to
// the same actions and encodes to the same bytes again.
func FuzzManifestDecode(f *testing.F) {
	block := Encode([]Action{addData("a", 10), addDV("dv", "a", 2), removeDV("dv", "a"), removeData("a")})
	edge := Encode(edgeActions())
	f.Add(block)
	f.Add(edge)
	f.Add(append(append([]byte{}, edge...), block...))
	f.Add(block[:len(block)-1])
	f.Add(append(append([]byte{}, block...), 0))
	f.Add([]byte(blockHeader + "\x00"))
	f.Add([]byte(`{"op":"add","kind":"data","path":"p"}`))
	// A path sharing its predecessor's whole prefix, twice over.
	f.Add([]byte(blockHeader + "\x02\x00\x00\x04long\x00\x04\x00"))
	// A sketched Add of mixed cells beside a deletion vector, which carries
	// no partition.
	mixed := addData("tables/1/data/7-m-1.pcf", 3)
	mixed.Partition, mixed.Sketches = MixedCells, edgeSketches()
	f.Add(Encode([]Action{mixed, addDV("tables/1/dv/8-0.dv", mixed.Path, 1), removeData("tables/1/data/6-m-1.pcf")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var actions []Action
		var err error
		if grew := allocatedBy(func() { actions, err = Decode(data) }); grew > allocLimit(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, allocLimit(len(data)))
		}
		// The removals-only walk fails exactly where Decode does, with the
		// same error, and otherwise returns Decode's Remove actions.
		removes, rerr := DecodeRemovals(data)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("Decode: %v; DecodeRemovals: %v", err, rerr)
		}
		if err != nil {
			if actions != nil {
				t.Fatalf("error %v returned with actions", err)
			}
			return
		}
		var want []Action
		for _, a := range actions {
			if a.Op == OpRemove {
				want = append(want, a)
			}
		}
		if !sameBits(removes, want) {
			t.Fatalf("DecodeRemovals returned %+v, want %+v", removes, want)
		}
		for i, a := range actions {
			if err := a.Validate(); err != nil {
				t.Fatalf("action %d of %x fails Validate: %v", i, data, err)
			}
		}
		enc := Encode(actions)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if !sameBits(back, actions) {
			t.Fatalf("%x re-decodes to %+v, want %+v", enc, back, actions)
		}
		if again := Encode(back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", enc, again)
		}
	})
}

// FuzzUnmarshalCheckpoint: any bytes give a checkpoint or an error, never a
// panic and never an allocation the input cannot back. A checkpoint's state
// names every file by a non-empty path, and re-encoding is stable.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	s := NewTableState()
	if err := s.Apply(1, []Action{addData("a", 10), addData("b", 20)}); err != nil {
		f.Fatal(err)
	}
	if err := s.Apply(2, []Action{addDV("dv", "a", 2), removeData("b")}); err != nil {
		f.Fatal(err)
	}
	good := BuildCheckpoint(42, s).Marshal()
	f.Add(good)
	f.Add(edgeCheckpoint().Marshal())
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte{}, good...), 0))
	f.Add([]byte(checkpointHeader + "\x00\x00\x00"))
	f.Add([]byte(`{"files":[]}`))
	f.Add([]byte(checkpointHeader + "\x01\x02\x01\x80\x00\x01a\x01\x00\x00\x02\x05"))
	// A sketched file of mixed cells carrying a deletion vector.
	mixedState := NewTableState()
	mixed := addData("tables/1/data/7-m-1.pcf", 3)
	mixed.Partition, mixed.Sketches = MixedCells, edgeSketches()
	if err := mixedState.Apply(1, []Action{mixed, addDV("tables/1/dv/8-0.dv", mixed.Path, 1)}); err != nil {
		f.Fatal(err)
	}
	f.Add(BuildCheckpoint(1, mixedState).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp *Checkpoint
		var err error
		if grew := allocatedBy(func() { cp, err = UnmarshalCheckpoint(data) }); grew > allocLimit(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, allocLimit(len(data)))
		}
		if err != nil {
			if cp != nil {
				t.Fatalf("error %v returned with a checkpoint", err)
			}
			return
		}
		for path, fe := range cp.State().Files {
			if fe == nil || fe.Path == "" || fe.Path != path {
				t.Fatalf("state of %x has file %q: %+v", data, path, fe)
			}
		}
		enc := cp.Marshal()
		back, err := UnmarshalCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if !sameBits(back, cp) {
			t.Fatalf("%x re-decodes to %+v, want %+v", enc, back, cp)
		}
		if again := back.Marshal(); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", enc, again)
		}
	})
}
