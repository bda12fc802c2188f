package exec

import (
	"fmt"
	"testing"

	"polaris/internal/colfile"
)

// refCompare is an independent reference for the ORDER BY comparison: NULLs
// first ascending (last descending), values by type order. The encoded
// sort-key path must agree with it on every pair.
func refCompare(b *colfile.Batch, keys []SortKey, i, j int) int {
	for _, k := range keys {
		v := b.Cols[k.Col]
		var c int
		in, jn := v.IsNull(i), v.IsNull(j)
		switch {
		case in && jn:
			c = 0
		case in:
			c = -1
		case jn:
			c = 1
		default:
			switch v.Type {
			case colfile.Int64:
				c = cmpOrd(v.Ints[i], v.Ints[j])
			case colfile.Float64:
				c = cmpOrd(v.Floats[i], v.Floats[j])
			case colfile.String:
				switch {
				case v.Strs[i] < v.Strs[j]:
					c = -1
				case v.Strs[i] > v.Strs[j]:
					c = 1
				}
			case colfile.Bool:
				c = cmpOrd(b2i(v.Bools[i]), b2i(v.Bools[j]))
			}
		}
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// mixedBatch builds a batch exercising every sort hazard: NULLs in every
// column, duplicate keys, negative ints and floats, strings with embedded
// NUL bytes and prefix relationships.
func mixedBatch(t *testing.T) *colfile.Batch {
	t.Helper()
	schema := colfile.Schema{
		{Name: "id", Type: colfile.Int64},
		{Name: "i", Type: colfile.Int64},
		{Name: "f", Type: colfile.Float64},
		{Name: "s", Type: colfile.String},
		{Name: "b", Type: colfile.Bool},
	}
	b := colfile.NewBatch(schema)
	ints := []any{int64(3), nil, int64(-7), int64(3), int64(0), nil, int64(42), int64(-7), int64(3), int64(1 << 40)}
	floats := []any{1.5, -2.25, nil, 1.5, 0.0, 0.0, nil, 3.75, -1e300, 2.5}
	strs := []any{"b", "ab", "a\x00b", nil, "a", "", "a\x00", "ab", nil, "b"}
	bools := []any{true, false, nil, true, false, true, nil, false, true, false}
	for r := 0; r < len(ints); r++ {
		if err := b.AppendRow(int64(r), ints[r], floats[r], strs[r], bools[r]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func sortKeyVariants() [][]SortKey {
	return [][]SortKey{
		{{Col: 1}},
		{{Col: 1, Desc: true}},
		{{Col: 3}},
		{{Col: 3, Desc: true}},
		{{Col: 2}, {Col: 4, Desc: true}},
		{{Col: 1, Desc: true}, {Col: 3}, {Col: 2, Desc: true}},
		{{Col: 4}, {Col: 1}},
	}
}

func TestSortAgreesWithReferenceComparator(t *testing.T) {
	b := mixedBatch(t)
	for ki, keys := range sortKeyVariants() {
		// Every pair must order identically under encoded keys and reference.
		ek := encodeSortKeys(b, keys)
		for i := 0; i < b.NumRows(); i++ {
			for j := 0; j < b.NumRows(); j++ {
				want := refCompare(b, keys, i, j)
				got := bytesCompareSign(ek.key(i), ek.key(j))
				if got != want {
					t.Fatalf("keys %d: rows %d,%d: encoded cmp %d, reference %d (%v vs %v)",
						ki, i, j, got, want, b.Row(i), b.Row(j))
				}
			}
		}
		// And the sorted batch must be the stable reference order.
		out, err := Collect(&Sort{In: NewBatchSource(b), Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r < out.NumRows(); r++ {
			c := refCompare(out, keys, r-1, r)
			if c > 0 {
				t.Fatalf("keys %d: row %d out of order: %v after %v", ki, r, out.Row(r), out.Row(r-1))
			}
			if c == 0 && out.Cols[0].Ints[r-1] > out.Cols[0].Ints[r] {
				t.Fatalf("keys %d: tie not stable at row %d: id %d after %d",
					ki, r, out.Cols[0].Ints[r], out.Cols[0].Ints[r-1])
			}
		}
	}
}

func bytesCompareSign(a, b []byte) int {
	switch {
	case string(a) < string(b):
		return -1
	case string(a) > string(b):
		return 1
	default:
		return 0
	}
}

// runSplits partitions the batch's rows into consecutive runs, standing in
// for morsel decompositions of varying granularity.
func runSplits(b *colfile.Batch, parts int) []*colfile.Batch {
	n := b.NumRows()
	per := (n + parts - 1) / parts
	var runs []*colfile.Batch
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		runs = append(runs, sliceBatch(b, lo, hi))
	}
	return runs
}

func TestMergeRunsIdenticalToSerialSortAcrossSplits(t *testing.T) {
	b := mixedBatch(t)
	for ki, keys := range sortKeyVariants() {
		serial, err := Collect(&Sort{In: NewBatchSource(b), Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		want := renderBatch(t, serial)
		for _, parts := range []int{1, 2, 3, 5, 10, 25} {
			var runs []*colfile.Batch
			for _, piece := range runSplits(b, parts) {
				run, err := Collect(&Sort{In: NewBatchSource(piece), Keys: keys})
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, run)
			}
			merged, err := Collect(NewMergeRuns(b.Schema, runs, keys, -1))
			if err != nil {
				t.Fatal(err)
			}
			if got := renderBatch(t, merged); got != want {
				t.Fatalf("keys %d, %d runs: merged differs from serial sort:\ngot:\n%s\nwant:\n%s",
					ki, parts, got, want)
			}
		}
	}
}

// TestMergeRunsAllEqualKeysKeepsMorselOrder pins the tie rule: with every
// sort key equal, the merged output must be the runs' concatenation in run
// (= morsel) order — the same order a serial stable sort would keep.
func TestMergeRunsAllEqualKeysKeepsMorselOrder(t *testing.T) {
	schema := colfile.Schema{
		{Name: "id", Type: colfile.Int64},
		{Name: "k", Type: colfile.Int64},
	}
	b := colfile.NewBatch(schema)
	for r := 0; r < 97; r++ {
		_ = b.AppendRow(int64(r), int64(7))
	}
	keys := []SortKey{{Col: 1}, {Col: 1, Desc: true}}
	for _, parts := range []int{1, 4, 13} {
		var runs []*colfile.Batch
		for _, piece := range runSplits(b, parts) {
			run, err := Collect(&Sort{In: NewBatchSource(piece), Keys: keys})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}
		merged, err := Collect(NewMergeRuns(schema, runs, keys, -1))
		if err != nil {
			t.Fatal(err)
		}
		if merged.NumRows() != 97 {
			t.Fatalf("parts=%d: rows = %d", parts, merged.NumRows())
		}
		for r := 0; r < merged.NumRows(); r++ {
			if merged.Cols[0].Ints[r] != int64(r) {
				t.Fatalf("parts=%d: row %d has id %d; tie order broken", parts, r, merged.Cols[0].Ints[r])
			}
		}
	}
}

func TestTopNMatchesSortPrefix(t *testing.T) {
	b := mixedBatch(t)
	rows := int64(b.NumRows())
	for ki, keys := range sortKeyVariants() {
		serial, err := Collect(&Sort{In: NewBatchSource(b), Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int64{0, 1, 3, rows - 1, rows, rows + 10} {
			top, err := Collect(&TopN{In: NewBatchSource(b), Keys: keys, N: n})
			if err != nil {
				t.Fatal(err)
			}
			wantRows := n
			if wantRows > rows {
				wantRows = rows
			}
			if int64(top.NumRows()) != wantRows {
				t.Fatalf("keys %d, N=%d: rows = %d, want %d", ki, n, top.NumRows(), wantRows)
			}
			want := renderBatch(t, sliceBatch(serial, 0, int(wantRows)))
			if got := renderBatch(t, top); got != want {
				t.Fatalf("keys %d, N=%d: top-N differs from sort prefix:\ngot:\n%s\nwant:\n%s",
					ki, n, got, want)
			}
		}
	}
}

// TestTopNBoundedStoreCompaction pushes far more rows than the compaction
// threshold through a tiny TopN in adversarial (descending) order, so nearly
// every row is admitted then evicted — exercising the store rebuild.
func TestTopNBoundedStoreCompaction(t *testing.T) {
	schema := colfile.Schema{{Name: "v", Type: colfile.Int64}, {Name: "id", Type: colfile.Int64}}
	const rows = 3*DefaultBatchSize + 100
	src := colfile.NewBatch(schema)
	for r := 0; r < rows; r++ {
		_ = src.AppendRow(int64(rows-r), int64(r))
	}
	top, err := Collect(&TopN{In: NewBatchSource(src), Keys: []SortKey{{Col: 0}}, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if top.NumRows() != 5 {
		t.Fatalf("rows = %d", top.NumRows())
	}
	for r := 0; r < 5; r++ {
		if top.Cols[0].Ints[r] != int64(r+1) {
			t.Fatalf("row %d: v = %d, want %d", r, top.Cols[0].Ints[r], r+1)
		}
	}
}

func TestMergeRunsEarlyCutoff(t *testing.T) {
	b := mixedBatch(t)
	keys := []SortKey{{Col: 1}, {Col: 3, Desc: true}}
	serial, err := Collect(&Sort{In: NewBatchSource(b), Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	var runs []*colfile.Batch
	for _, piece := range runSplits(b, 4) {
		run, err := Collect(&Sort{In: NewBatchSource(piece), Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	for _, limit := range []int64{0, 1, 4, int64(b.NumRows()), int64(b.NumRows()) + 5} {
		merged, err := Collect(NewMergeRuns(b.Schema, runs, keys, limit))
		if err != nil {
			t.Fatal(err)
		}
		wantRows := limit
		if wantRows > int64(b.NumRows()) {
			wantRows = int64(b.NumRows())
		}
		if int64(merged.NumRows()) != wantRows {
			t.Fatalf("limit=%d: rows = %d, want %d", limit, merged.NumRows(), wantRows)
		}
		want := renderBatch(t, sliceBatch(serial, 0, int(wantRows)))
		if got := renderBatch(t, merged); got != want {
			t.Fatalf("limit=%d: cutoff prefix differs:\ngot:\n%s\nwant:\n%s", limit, got, want)
		}
	}
}

func TestSortFamilyEmptyInput(t *testing.T) {
	schema := colfile.Schema{{Name: "v", Type: colfile.Int64}}
	keys := []SortKey{{Col: 0}}
	empty := colfile.NewBatch(schema)

	for name, op := range map[string]Operator{
		"Sort": &Sort{In: NewBatchSource(empty), Keys: keys},
		"TopN": &TopN{In: NewBatchSource(empty), Keys: keys, N: 10},
	} {
		out, err := Collect(op)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.NumRows() != 0 {
			t.Fatalf("%s: rows = %d", name, out.NumRows())
		}
	}
	// MergeRuns over no runs (all morsels empty), nil entries included.
	out, err := Collect(NewMergeRuns(schema, []*colfile.Batch{nil, empty, nil}, keys, -1))
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("MergeRuns: rows = %d", out.NumRows())
	}
	if !out.Schema.Equal(schema) {
		t.Fatalf("MergeRuns empty schema = %v", out.Schema)
	}
}

// TestMergeRunsSingleAndManyRuns covers the loser-tree degenerate shapes:
// one run (k=1), two runs, and more runs than distinct keys.
func TestMergeRunsSingleAndManyRuns(t *testing.T) {
	schema := colfile.Schema{{Name: "v", Type: colfile.Int64}}
	keys := []SortKey{{Col: 0}}
	mk := func(vals ...int64) *colfile.Batch {
		b := colfile.NewBatch(schema)
		for _, v := range vals {
			_ = b.AppendRow(v)
		}
		return b
	}
	cases := []struct {
		runs []*colfile.Batch
		want []int64
	}{
		{[]*colfile.Batch{mk(1, 2, 3)}, []int64{1, 2, 3}},
		{[]*colfile.Batch{mk(2, 4), mk(1, 3, 5)}, []int64{1, 2, 3, 4, 5}},
		{[]*colfile.Batch{mk(1), mk(1), mk(1), mk(0), mk(2), mk(1), mk(1)}, []int64{0, 1, 1, 1, 1, 1, 2}},
	}
	for ci, c := range cases {
		out, err := Collect(NewMergeRuns(schema, c.runs, keys, -1))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%v", out.Cols[0].Ints)
		if want := fmt.Sprintf("%v", c.want); got != want {
			t.Fatalf("case %d: merged %s, want %s", ci, got, want)
		}
	}
}

// TestParallelSortViaMorselsMatchesSerial runs the full parallel ORDER BY
// pipeline — morsel scan → sorted runs → k-way merge — against the serial
// Sort at several DOPs, full-sort and top-N, including a LIMIT exactly on a
// morsel boundary.
func TestParallelSortViaMorselsMatchesSerial(t *testing.T) {
	files := groupedFiles(t, 4, 200, 32)
	keys := []SortKey{{Col: 2, Desc: true}, {Col: 0}} // val DESC (ties), id ASC

	serialScan, err := NewScan(files, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Collect(&Sort{In: serialScan, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}

	// 200-row files with 32-row groups: morsel boundaries fall at multiples
	// of 32 and at 200; limits probe below, on, and beyond boundaries.
	for _, limit := range []int64{-1, 0, 31, 32, 200, 799, 800, 900} {
		want := serial
		if limit >= 0 {
			n := limit
			if n > int64(serial.NumRows()) {
				n = int64(serial.NumRows())
			}
			want = sliceBatch(serial, 0, int(n))
		}
		wantStr := renderBatch(t, want)
		for _, dop := range []int{1, 2, 4, 8} {
			morsels := SplitMorsels(files, dop*4)
			batches, err := RunMorsels(morsels, dop, func(m Morsel) (Operator, error) {
				s, err := NewMorselScan(m, nil, nil, nil)
				if err != nil {
					return nil, err
				}
				if limit >= 0 {
					return &TopN{In: s, Keys: keys, N: limit}, nil
				}
				return &Sort{In: s, Keys: keys}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			merged, err := Collect(NewMergeRuns(files[0].R.Schema(), batches, keys, limit))
			if err != nil {
				t.Fatal(err)
			}
			if got := renderBatch(t, merged); got != wantStr {
				t.Fatalf("dop=%d limit=%d: parallel sort differs from serial:\ngot:\n%s\nwant:\n%s",
					dop, limit, got, wantStr)
			}
		}
	}
}
