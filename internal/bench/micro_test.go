package bench

import (
	"fmt"
	"slices"
	"testing"

	"polaris/internal/colfile"
)

// TestPipelinesAgreeAcrossDOP holds the operator pipelines the repo benchmark
// times to the executor's determinism contract: the same result, row order
// included, at DOP 1 and 4; the spilled join equal to the in-memory probe; and
// each the row count its dataset implies — every row for the full sort, the
// bound for the top-N.
func TestPipelinesAgreeAcrossDOP(t *testing.T) {
	files, rows, err := MicroFiles()
	if err != nil {
		t.Fatal(err)
	}
	table, err := ParallelJoinTable()
	if err != nil {
		t.Fatal(err)
	}
	// The join keeps the 67,328 rows with val = row % 997 below 64, each
	// matching the 4 build rows of its grp.
	const joinRows = 4 * 67_328
	pipelines := []struct {
		name     string
		run      func(dop int) (*colfile.Batch, error)
		wantRows int64
	}{
		{"scan_agg", func(dop int) (*colfile.Batch, error) { return ParallelScanAggregate(files, dop) }, 31}, // grp = row % 31
		{"join_probe", func(dop int) (*colfile.Batch, error) { return ParallelJoinProbe(files, table, dop) }, joinRows},
		{"sort", func(dop int) (*colfile.Batch, error) { return ParallelSort(files, dop) }, rows},
		{"topn", func(dop int) (*colfile.Batch, error) { return ParallelTopN(files, dop) }, ParallelTopNRows},
		{"join_spill", func(dop int) (*colfile.Batch, error) { return ParallelJoinSpill(files, dop) }, joinRows},
	}
	results := map[string]map[int]*colfile.Batch{}
	for _, p := range pipelines {
		results[p.name] = map[int]*colfile.Batch{}
		for _, dop := range []int{1, 4} {
			out, err := p.run(dop)
			if err != nil {
				t.Fatalf("%s at DOP %d: %v", p.name, dop, err)
			}
			if int64(out.NumRows()) != p.wantRows {
				t.Fatalf("%s at DOP %d: %d rows, want %d", p.name, dop, out.NumRows(), p.wantRows)
			}
			results[p.name][dop] = out
		}
		if err := sameBatch(results[p.name][4], results[p.name][1]); err != nil {
			t.Errorf("%s: DOP 4 differs from DOP 1: %v", p.name, err)
		}
	}
	for _, dop := range []int{1, 4} {
		if err := sameBatch(results["join_spill"][dop], results["join_probe"][dop]); err != nil {
			t.Errorf("DOP %d: spilled join differs from the in-memory probe: %v", dop, err)
		}
	}
}

// sameBatch compares two batches column by column on their typed slices.
func sameBatch(got, want *colfile.Batch) error {
	got, want = got.Materialize(), want.Materialize()
	if !got.Schema.Equal(want.Schema) {
		return fmt.Errorf("schema %v, want %v", got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for c, g := range got.Cols {
		w := want.Cols[c]
		same := slices.Equal(g.Ints, w.Ints) && slices.Equal(g.Floats, w.Floats) &&
			slices.Equal(g.Strs, w.Strs) && slices.Equal(g.Bools, w.Bools)
		for r := 0; same && r < g.Len(); r++ {
			same = g.IsNull(r) == w.IsNull(r)
		}
		if !same {
			return fmt.Errorf("column %q differs", got.Schema[c].Name)
		}
	}
	return nil
}
