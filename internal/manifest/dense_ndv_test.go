package manifest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"polaris/internal/colfile"
)

// The two fixtures under testdata/ hold sketches the engine wrote before
// sketch bitmaps had a sparse wire form, when every bitmap was stored dense
// in JSON. Table t is (k INT, s VARCHAR, n INT, w INT) over two
// distributions: one INSERT of 1,600 rows (k = i%10, s = "v"+i%5, n always
// NULL, w = i·7919 mod 100,000), one of 3 rows, a merge-on-read DELETE and a
// CHECKPOINT. dense_ndv.manifest is the first INSERT's manifest block and
// dense_ndv.checkpoint the checkpoint, re-encoded in the binary codec when
// the JSON path was removed, again when sketches stopped writing their row
// counts, and again when partitions became zig-zag varints (format
// version 3): the bitmaps are the engine's, and each is on the wire in the
// shorter of its two forms. The files pin the codec's bytes
// too, so they change only with the format.

// wantSketch is one column's bitmap (SHA-256 of its bytes) and NDV estimate,
// as the engine that wrote the fixtures decoded them, and whether the dense
// form is the shorter one on re-encoding.
type wantSketch struct {
	sha   string
	ndv   int64
	dense bool
}

const (
	emptySHA   = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" // nil bitmap
	allNullSHA = "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1" // 256 zero bytes
)

var denseFixtureFiles = map[string][]wantSketch{
	"tables/1/data/1001-p0-1.pcf": {
		{"d1296f1ca8dc870382da6f155a3c92c580505f5883986fd970099b162c1f4569", 5, false},
		{"bf152089ad48919b8256c6c9d48ca374648d298124d156713d119f8f434f4ac5", 5, false},
		{allNullSHA, 0, false},
		{"211015821b7ea0e2b162cab396f919c1abb829b3c2fe5b491993b89843aa2d41", 800, true},
	},
	"tables/1/data/1001-p1-3.pcf": {
		{"9cafe8ef5e6909834f23a38ef56e8e77626c4b1b5d11243032edc6d7a1fd75de", 5, false},
		{"bf152089ad48919b8256c6c9d48ca374648d298124d156713d119f8f434f4ac5", 5, false},
		{allNullSHA, 0, false},
		{"7f11f662696e0e5ec1558b0fdb404806455022a6d7c8c2fd8ddb2b5f61fe5328", 782, true},
	},
	"tables/1/data/1002-p0-1.pcf": {
		{"7b1df45f0397c352cc77924434869dba5be1586ae8c6f1decc15171358241d3c", 1, false},
		{"afadd1eeaf5506d46e60f60b826ab06a724b720029efb285c78896f138fa29c7", 1, false},
		{allNullSHA, 0, false},
		{"4b8dd8181d11a8dba25534d0fecb4aaf825005153bbb0167250f1efa0750ae9d", 1, false},
	},
	"tables/1/data/1002-p1-3.pcf": {
		{"80276d739368b5bf279c6a0a261dacc297c0c40b44f52e51323c1d36cdc895bb", 2, false},
		{"fc2a9dd0201c5033634b6b45bb8eeceb13277b0af5f847381af76c0808d91932", 2, false},
		{allNullSHA, 0, false},
		{"d8da03a3fb75d367437dd7e9670e251304a1ddb8ea9ac3f5d3018a76cc51318d", 2, false},
	},
}

// denseFixtureFold is TableState.Sketches(4) over the checkpoint's files.
var denseFixtureFold = []wantSketch{
	{"baeacc3e04f5095631e63bc2817a9e6c4accbcfa94661cadd063317939148040", 10, false},
	{"bf152089ad48919b8256c6c9d48ca374648d298124d156713d119f8f434f4ac5", 5, false},
	{emptySHA, 0, false},
	{"51a2bb646d0caac8d9d78496034a2e649ffe09fcb0fbf1f1eb59e919ba9b6a0a", 1543, false},
}

func checkSketches(t *testing.T, where string, got []colfile.ColSketch, want []wantSketch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sketches, want %d", where, len(got), len(want))
	}
	for i, sk := range got {
		sum := sha256.Sum256(sk.Bitmap)
		if h := hex.EncodeToString(sum[:]); h != want[i].sha || (len(sk.Bitmap) == 0) != (sk.Bitmap == nil) {
			t.Errorf("%s col %d: bitmap %s (nil %v), want %s", where, i, h, sk.Bitmap == nil, want[i].sha)
		}
		if ndv := sk.NDV(); ndv != want[i].ndv {
			t.Errorf("%s col %d: NDV %d, want %d", where, i, ndv, want[i].ndv)
		}
	}
}

// checkWireForms re-encodes sketches and requires the dense form on the
// wire exactly where it is the shorter: k, s and the all-NULL n hold a
// handful of values, while the first INSERT's w holds hundreds, so its dense
// 256 bytes beat about two bytes per set bit. A dense form is the bitmap
// itself, last in its sketch's encoding.
func checkWireForms(t *testing.T, where string, sketches []colfile.ColSketch, want []wantSketch) {
	t.Helper()
	for i, sk := range sketches {
		enc := colfile.AppendSketches(nil, []colfile.ColSketch{sk})
		if dense := bytes.HasSuffix(enc, sk.Bitmap) && len(sk.Bitmap) > 0; dense != want[i].dense {
			t.Errorf("%s col %d: %d bytes on the wire (dense %v), want dense %v", where, i, len(enc), dense, want[i].dense)
		}
	}
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDenseSketchesStayReadable decodes a manifest block and a checkpoint
// whose sketches the engine wrote: every file's bitmap and NDV, and the table
// fold, equal what the writing engine recorded, dense bitmaps are on the wire
// dense and sparse ones sparse, and re-encoding gives the fixtures' bytes.
func TestDenseSketchesStayReadable(t *testing.T) {
	mdata := readFixture(t, "dense_ndv.manifest")
	actions, err := Decode(mdata)
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, a := range actions {
		if a.Op != OpAdd || a.Kind != KindData {
			continue
		}
		adds++
		checkSketches(t, "manifest "+a.Path, a.Sketches, denseFixtureFiles[a.Path])
		checkWireForms(t, "manifest "+a.Path, a.Sketches, denseFixtureFiles[a.Path])
	}
	if adds != 2 {
		t.Fatalf("manifest adds %d data files, want 2", adds)
	}
	if enc := Encode(actions); !bytes.Equal(enc, mdata) {
		t.Fatalf("re-encoded manifest is %d bytes and differs from the %d-byte fixture", len(enc), len(mdata))
	}

	cdata := readFixture(t, "dense_ndv.checkpoint")
	cp, err := UnmarshalCheckpoint(cdata)
	if err != nil {
		t.Fatal(err)
	}
	files := cp.State().LiveFiles()
	if len(files) != len(denseFixtureFiles) {
		t.Fatalf("checkpoint holds %d files, want %d", len(files), len(denseFixtureFiles))
	}
	for _, f := range files {
		checkSketches(t, "checkpoint "+f.Path, f.Sketches, denseFixtureFiles[f.Path])
		checkWireForms(t, "checkpoint "+f.Path, f.Sketches, denseFixtureFiles[f.Path])
	}
	fold, ok := cp.State().Sketches(4)
	if !ok {
		t.Fatal("fold over the checkpoint failed")
	}
	checkSketches(t, "fold", fold, denseFixtureFold)
	if enc := cp.Marshal(); !bytes.Equal(enc, cdata) {
		t.Fatalf("re-encoded checkpoint is %d bytes and differs from the %d-byte fixture", len(enc), len(cdata))
	}
}
