package core

import (
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
// file itself does not carry them.
func TestSketchesRideTheManifest(t *testing.T) {
	e := testEngine(t)
	e.opts.Distributions = 1 // one file holds all 100 rows
	schema := colfile.Schema{{Name: "a", Type: colfile.Int64}, {Name: "s", Type: colfile.String}}
	b := colfile.NewBatch(schema)
	for i := 0; i < 100; i++ {
		b.Cols[0].AppendInt(int64(i % 10))
		b.Cols[1].AppendStr(fmt.Sprintf("v%d", i%5))
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
	if err := e.AutoCommit(func(tx *Txn) (err error) {
		cpPath, err = tx.CheckpointTable("t")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	check := func(where string, sk []colfile.ColSketch) {
		t.Helper()
		if len(sk) != 2 {
			t.Fatalf("%s: %d sketches, want 2", where, len(sk))
		}
		if sk[0].Rows != 100 || sk[1].Rows != 100 {
			t.Fatalf("%s: sketch rows = %d/%d, want 100", where, sk[0].Rows, sk[1].Rows)
		}
		if ndv := sk[0].NDV(); ndv < 9 || ndv > 11 {
			t.Fatalf("%s: int col NDV = %d, want ≈10", where, ndv)
		}
		if ndv := sk[1].NDV(); ndv < 4 || ndv > 6 {
			t.Fatalf("%s: string col NDV = %d, want ≈5", where, ndv)
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
	rows, err := catalog.ScanManifests(tx.catTx, meta.ID, -1)
	if err != nil || len(rows) == 0 {
		t.Fatalf("manifests: %v, %v", rows, err)
	}
	data, err := e.Store.Get(rows[len(rows)-1].ManifestFile)
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
