package colfile

import (
	"strings"
	"testing"
)

// TestDecodersRejectMalformedInput: the four decoders of bytes from outside
// the process — a v2 file footer, an inflated column chunk, a batch frame and
// a sketch's sparse NDV bitmap — read through one wire.Reader, so the same
// damage is the same error in each: a truncated varint, a non-minimal one, a
// count the bytes left cannot back and a trailing byte are rejected with an
// error naming the format and the defect. The sparse bitmap has no counts or
// framing; its claim is a position, which must fall inside the bitmap, and
// the byte after a dense bitmap makes the form longer than dense.
func TestDecodersRejectMalformedInput(t *testing.T) {
	footerErr := func(b []byte) error { _, err := decodeFooterV2(b); return err }
	chunkErr := func(t DataType, n int) func([]byte) error {
		return func(b []byte) error { _, err := decodeChunkBody(b, t, n); return err }
	}
	frameErr := func(body []byte) error { _, err := UnmarshalBatch(sealFrame(body)); return err }
	sketchErr := func(raw []byte) error { _, err := readNDV(raw); return err }
	// A frame head: one int64 column "a"; what follows is its row count.
	head := func(typ DataType) []byte { return append([]byte(frameMagic), 1, byte(typ), 1, 'a') }
	dense := append(bitmapWith(3, 700), 0)

	for _, tc := range []struct {
		format, name string
		decode       func([]byte) error
		in           []byte
		want         string
	}{
		// A footer of no columns is [columns][sort column][rows][groups].
		{"footer", "truncated varint", footerErr, []byte{0, 0, 0x80}, "truncated varint"},
		{"footer", "non-minimal varint", footerErr, []byte{0, 0, 0x80, 0x00, 0}, "non-minimal varint"},
		{"footer", "count past the bytes left", footerErr, []byte{5, 0, 0}, "5 columns need more than"},
		{"footer", "trailing byte", footerErr, []byte{0, 0, 0, 0, 0}, "1 trailing bytes"},

		// A chunk is [encoding][null flag][payload].
		{"chunk", "truncated varint", chunkErr(Int64, 1), []byte{encPlain, 0, 0x80}, "truncated varint"},
		{"chunk", "non-minimal varint", chunkErr(Int64, 1), []byte{encPlain, 0, 0x80, 0x00}, "non-minimal varint"},
		{"chunk", "count past the bytes left", chunkErr(String, 0), []byte{encDict, 0, 5}, "5 dict entries need more than"},
		{"chunk", "trailing byte", chunkErr(Int64, 1), []byte{encPlain, 0, 0x02, 0x00}, "1 trailing bytes"},
		{"chunk", "bool byte 2", chunkErr(Bool, 2), []byte{encPlain, 0, 1, 2}, "bool value 1 is 2"},

		{"batch frame", "truncated varint", frameErr, append(head(Int64), 0x80), "truncated varint"},
		{"batch frame", "non-minimal varint", frameErr, append(head(Int64), 0x80, 0x00, 0), "non-minimal varint"},
		{"batch frame", "count past the bytes left", frameErr, append([]byte(frameMagic), 100, byte(Int64), 0), "100 columns need more than"},
		{"batch frame", "trailing byte", frameErr, append(head(Int64), 0, 0, 0xAA), "1 trailing bytes"},
		{"batch frame", "bool byte 2", frameErr, append(head(Bool), 1, 0, 2), "bool value 0 is 2"},

		{"ndv bitmap", "truncated varint", sketchErr, []byte{0x05, 0x80}, "truncated varint"},
		{"ndv bitmap", "non-minimal varint", sketchErr, []byte{0x85, 0x00}, "non-minimal varint"},
		{"ndv bitmap", "position past the bitmap", sketchErr, []byte{0x80, 0x10}, "beyond 2048 bits"},
		{"ndv bitmap", "longer than dense", sketchErr, dense, "longer than dense"},
	} {
		t.Run(tc.format+"/"+tc.name, func(t *testing.T) {
			err := tc.decode(tc.in)
			if err == nil {
				t.Fatalf("%x decoded", tc.in)
			}
			if prefix := "colfile: " + tc.format + ": "; !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%x: %v; want %q naming %q", tc.in, err, prefix, tc.want)
			}
		})
	}

	// The controls: each format's input above, undamaged, decodes.
	for name, err := range map[string]error{
		"footer":      footerErr([]byte{0, 0, 0, 0}),
		"chunk":       chunkErr(Int64, 1)([]byte{encPlain, 0, 0x02}),
		"batch frame": frameErr(append(head(Int64), 0, 0)),
		"ndv bitmap":  sketchErr(dense[:len(dense)-1]),
	} {
		if err != nil {
			t.Errorf("%s control: %v", name, err)
		}
	}
}
