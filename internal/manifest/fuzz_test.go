package manifest

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"strings"
	"testing"

	"polaris/internal/colfile"
)

// gz compresses a checkpoint's JSON as Marshal stores it.
func gz(t testing.TB, js string) []byte {
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write([]byte(js)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestUnmarshalCheckpointRejectsCorrupt: a checkpoint blob is bytes from
// storage, so a damaged one must be an error at unmarshal time, never a state
// that panics its readers.
func TestUnmarshalCheckpointRejectsCorrupt(t *testing.T) {
	good := gz(t, `{"files":[]}`)
	for name, data := range map[string][]byte{
		"plain json":   []byte(`{"files":[]}`),
		"truncated":    good[:len(good)-5],
		"trailing":     append(append([]byte{}, good...), 0),
		"crc mismatch": append(append([]byte{}, good[:len(good)-8]...), 0, 0, 0, 0, 12, 0, 0, 0),
	} {
		if cp, err := UnmarshalCheckpoint(data); err == nil || !strings.Contains(err.Error(), "inflate checkpoint") {
			t.Fatalf("%s: UnmarshalCheckpoint = %v, %v; want an inflate error", name, cp, err)
		}
	}
	for _, tc := range []struct{ name, body, want string }{
		{"not json", `{"files":`, "parse checkpoint"},
		{"wrong type", `{"files":{}}`, "parse checkpoint"},
		{"null file", `{"files":[null]}`, "checkpoint file 0 has no path"},
		{"empty path", `{"seq":3,"files":[{"path":"a","rows":1},{"path":"","rows":1}]}`, "checkpoint file 1 has no path"},
		{"missing path", `{"files":[{"rows":1}]}`, "checkpoint file 0 has no path"},
		// Sparse sketch bitmaps: a truncated varint (0x80) and position 2048
		// (uvarint 0x80 0x10).
		{"truncated ndv", `{"files":[{"path":"a","sketches":[{"rows":1,"ndv":"gA=="}]}]}`, "ndv bitmap: truncated"},
		{"ndv past the bitmap", `{"files":[{"path":"a","sketches":[{"rows":1,"ndv":"gBA="}]}]}`, "ndv bitmap: position"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := UnmarshalCheckpoint(gz(t, tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("UnmarshalCheckpoint(%s) = %v, %v; want an error containing %q", tc.body, cp, err, tc.want)
			}
		})
	}
}

// sparseSketchCheckpoint is a checkpoint seed whose file carries sketches in
// both wire forms: a sparse bitmap of three positions, an all-NULL column's
// empty one and a saturated dense one.
func sparseSketchCheckpoint(f *testing.F) []byte {
	few, full := make(colfile.NDVBitmap, 256), make(colfile.NDVBitmap, 256)
	few[0], few[100], few[255] = 0x01, 0x10, 0x80
	for i := range full {
		full[i] = 0xFF
	}
	a := addData("a", 10)
	a.Sketches = []colfile.ColSketch{{Rows: 10, Bitmap: few}, {Rows: 10, Stats: colfile.ColStats{NullCount: 10}, Bitmap: make(colfile.NDVBitmap, 256)}, {Rows: 10, Bitmap: full}}
	s := NewTableState()
	if err := s.Apply(1, []Action{a}); err != nil {
		f.Fatal(err)
	}
	data, err := json.Marshal(BuildCheckpoint(7, s))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzUnmarshalCheckpoint fuzzes the JSON UnmarshalCheckpoint parses once it
// has inflated a blob; gzip's own checks guard the layer below.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	s := NewTableState()
	if err := s.Apply(1, []Action{addData("a", 10), addData("b", 20)}); err != nil {
		f.Fatal(err)
	}
	if err := s.Apply(2, []Action{addDV("dv", "a", 2), removeData("b")}); err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(BuildCheckpoint(42, s))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(sparseSketchCheckpoint(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"files":[null]}`))
	f.Add([]byte(`{"files":[{"path":""}]}`))
	f.Add([]byte(`{"files":[{"path":"a"},{"path":"a","dv":"x"}],"tombstones":[null]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := parseCheckpoint(data)
		if err != nil {
			return
		}
		for path, fe := range cp.State().Files {
			if fe == nil || fe.Path == "" || fe.Path != path {
				t.Fatalf("state of %q has file %q: %+v", data, path, fe)
			}
		}
	})
}

func FuzzManifestDecode(f *testing.F) {
	f.Add(Encode([]Action{addData("a", 10), addDV("dv", "a", 2), removeDV("dv", "a"), removeData("a")}))
	f.Add([]byte(`{"op":"add","kind":"data","path":"p","sketches":[{"rows":1,"stats":{"min_float":-0,"min_str":"` + "\xff" + `"},"ndv":""}]}`))
	f.Add([]byte(`{"op":"add","kind":"data","path":"p","sketches":[{"rows":2,"stats":{"null_count":0},"ndv":"AP8P"}]}`))
	f.Add([]byte(`{"op":"add","kind":"dv","path":"p"}`))
	f.Add([]byte("null\n{}"))
	f.Add([]byte(`{"op":"remove","kind":"data","path":"x"} {"op":"add"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		actions, err := Decode(data)
		if err != nil {
			return
		}
		for i, a := range actions {
			if err := a.Validate(); err != nil {
				t.Fatalf("action %d of %q fails Validate: %v", i, data, err)
			}
		}
		enc := Encode(actions)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of %q: %v", enc, err)
		}
		if again := Encode(back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", enc, again)
		}
	})
}
