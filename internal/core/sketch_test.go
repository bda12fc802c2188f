package core

import (
	"bytes"
	"fmt"
	"testing"

	"polaris/internal/catalog"
	"polaris/internal/colfile"
	"polaris/internal/manifest"
)

// TestSketchesRideTheManifest follows the per-column sketches the writer
// accumulates for one sealed file through the three places the planner's
// table stats can fold them from: INSERT's Add action, the FileEntry a
// snapshot reconstructs from it, and a checkpoint's round trip. The data
// file itself does not carry them. At each place every bitmap is byte-equal
// to the writer's: a and s hold a few distinct values (sparse on the wire),
// n only NULLs (a zero bitmap, not a nil one) and w 1,500 (dense on the wire).
func TestSketchesRideTheManifest(t *testing.T) {
	const rows = 1500
	e := testEngine(t)
	e.opts.Distributions = 1 // one file holds all the rows
	e.opts.RowsPerFile = rows
	schema := colfile.Schema{
		{Name: "a", Type: colfile.Int64}, {Name: "s", Type: colfile.String},
		{Name: "n", Type: colfile.Int64}, {Name: "w", Type: colfile.Int64},
	}
	b := colfile.NewBatch(schema)
	for i := 0; i < rows; i++ {
		b.Cols[0].AppendInt(int64(i % 10))
		b.Cols[1].AppendStr(fmt.Sprintf("v%d", i%5))
		b.Cols[2].AppendNull()
		b.Cols[3].AppendInt(int64(i))
	}
	w := colfile.NewWriter(schema)
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	want := w.Sketches()
	if enc := colfile.AppendSketches(nil, want[3:]); !bytes.HasSuffix(enc, want[3].Bitmap) {
		t.Fatalf("w's sketch encodes to %d bytes, not ending in its dense bitmap", len(enc))
	}
	var cpPath string
	if err := e.AutoCommit(func(tx *Txn) error {
		if _, err := tx.CreateTable("t", schema, "a", ""); err != nil {
			return err
		}
		_, err := tx.Insert("t", b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AutoCommit(func(tx *Txn) error {
		cp, err := tx.CheckpointTable("t")
		cpPath = cp.Path
		return err
	}); err != nil {
		t.Fatal(err)
	}

	check := func(where string, sk []colfile.ColSketch) {
		t.Helper()
		if len(sk) != len(want) {
			t.Fatalf("%s: %d sketches, want %d", where, len(sk), len(want))
		}
		for i := range sk {
			if sk[i].Rows != rows {
				t.Fatalf("%s: col %d sketch rows = %d, want %d", where, i, sk[i].Rows, rows)
			}
			if (sk[i].Bitmap == nil) != (want[i].Bitmap == nil) || !bytes.Equal(sk[i].Bitmap, want[i].Bitmap) {
				t.Fatalf("%s: col %d bitmap differs from the writer's", where, i)
			}
		}
		if ndv := sk[0].NDV(); ndv < 9 || ndv > 11 {
			t.Fatalf("%s: int col NDV = %d, want ≈10", where, ndv)
		}
		if ndv := sk[1].NDV(); ndv < 4 || ndv > 6 {
			t.Fatalf("%s: string col NDV = %d, want ≈5", where, ndv)
		}
		if ndv := sk[2].NDV(); ndv != 0 || sk[2].Bitmap == nil {
			t.Fatalf("%s: all-NULL col NDV = %d, nil bitmap %v; want 0 and a zero bitmap", where, ndv, sk[2].Bitmap == nil)
		}
		if ndv := sk[3].NDV(); ndv < 1000 {
			t.Fatalf("%s: wide col NDV = %d, want over 1,000", where, ndv)
		}
	}

	tx := e.Begin()
	defer tx.Rollback()
	state, meta, err := tx.Snapshot("t", -1)
	if err != nil {
		t.Fatal(err)
	}
	files := state.LiveFiles()
	if len(files) != 1 {
		t.Fatalf("%d live files, want 1", len(files))
	}
	mrows, err := catalog.ScanManifests(tx.catTx, meta.ID, -1)
	if err != nil || len(mrows) == 0 {
		t.Fatalf("manifests: %v, %v", mrows, err)
	}
	data, err := e.Store.Get(mrows[len(mrows)-1].ManifestFile)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := manifest.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var adds int
	for _, a := range actions {
		if a.Op == manifest.OpAdd && a.Kind == manifest.KindData {
			adds++
			check("INSERT's Add action", a.Sketches)
		}
	}
	if adds != 1 {
		t.Fatalf("INSERT wrote %d Add actions, want 1", adds)
	}
	check("reconstructed FileEntry", files[0].Sketches)

	data, err = e.Store.Get(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := manifest.UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Files) != 1 {
		t.Fatalf("checkpoint holds %d files, want 1", len(cp.Files))
	}
	check("checkpoint round trip", cp.State().LiveFiles()[0].Sketches)
}
