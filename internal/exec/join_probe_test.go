package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"polaris/internal/colfile"
)

// legacyFmtKey replicates the pre-typed-key encoding ("%v\x00" separators)
// so regression tests can demonstrate the collision it allowed.
func legacyFmtKey(b *colfile.Batch, keys []int, i int) (string, bool) {
	var sb strings.Builder
	for _, c := range keys {
		v := b.Cols[c]
		if v.IsNull(i) {
			return "", false
		}
		fmt.Fprintf(&sb, "%v\x00", v.Value(i))
	}
	return sb.String(), true
}

// TestTypedKeysFixSeparatorCollision is the regression test for the latent
// key-collision bug: with "%v\x00" separators the composite keys of
// ("a\x00", "b") and ("a", "\x00b") render to identical bytes, silently
// merging distinct groups and join keys. The length-prefixed typed encoding
// keeps them distinct. The legacy assertion documents that this test fails
// against the old encoding.
func TestTypedKeysFixSeparatorCollision(t *testing.T) {
	schema := colfile.Schema{
		{Name: "c1", Type: colfile.String},
		{Name: "c2", Type: colfile.String},
	}
	b := colfile.NewBatch(schema)
	if err := b.AppendRow("a\x00", "b"); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow("a", "\x00b"); err != nil {
		t.Fatal(err)
	}

	// The old encoding collides — this is the bug.
	k0, _ := legacyFmtKey(b, []int{0, 1}, 0)
	k1, _ := legacyFmtKey(b, []int{0, 1}, 1)
	if k0 != k1 {
		t.Fatal("legacy fmt keys unexpectedly distinct; collision repro is broken")
	}

	// The typed encoding keeps the rows distinct.
	n0 := appendGroupKey(nil, b.Cols, 0)
	n1 := appendGroupKey(nil, b.Cols, 1)
	if string(n0) == string(n1) {
		t.Fatalf("typed keys collide: %q", n0)
	}

	// End to end: GROUP BY (c1, c2) must produce two groups, not one.
	agg := &HashAgg{
		In:      NewBatchSource(b),
		GroupBy: progs(t, b.Schema, ColRef{Idx: 0, Name: "c1"}, ColRef{Idx: 1, Name: "c2"}),
		Aggs:    []AggSpec{{Kind: AggCountStar, Name: "n"}},
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("GROUP BY merged colliding keys: %d groups, want 2", out.NumRows())
	}

	// And a join on both columns must not cross-match the two rows.
	j := &HashJoin{
		Left: NewBatchSource(b), Right: NewBatchSource(b),
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1}, Type: InnerJoin,
	}
	jout, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if jout.NumRows() != 2 {
		t.Fatalf("join cross-matched colliding keys: %d rows, want 2 (self-matches only)", jout.NumRows())
	}
}

// nullableBatch builds a (k INT, v INT) batch; a nil key means NULL.
func nullableBatch(t *testing.T, rows ...[2]any) *colfile.Batch {
	t.Helper()
	b := colfile.NewBatch(intSchema("k", "v"))
	for _, r := range rows {
		if err := b.AppendRow(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestJoinNullKeySemantics locks in "NULL never matches" across the join-type
// × NULL-placement matrix before (and after) the probe is parallelized:
// a NULL join key on either side matches nothing, two NULLs do not match
// each other, and LEFT OUTER still emits the unmatched probe row NULL-padded.
func TestJoinNullKeySemantics(t *testing.T) {
	probeRows := func(withNull bool) *colfile.Batch {
		if withNull {
			return nullableBatch(t, [2]any{int64(1), int64(10)}, [2]any{nil, int64(11)})
		}
		return nullableBatch(t, [2]any{int64(1), int64(10)}, [2]any{int64(2), int64(11)})
	}
	buildRows := func(withNull bool) *colfile.Batch {
		if withNull {
			return nullableBatch(t, [2]any{int64(1), int64(100)}, [2]any{nil, int64(101)})
		}
		return nullableBatch(t, [2]any{int64(1), int64(100)}, [2]any{int64(3), int64(101)})
	}

	cases := []struct {
		name                 string
		typ                  JoinType
		probeNull, buildNull bool
		wantRows             int
		wantNullPad          int // LEFT OUTER rows with NULL right side
	}{
		{"inner/null-probe", InnerJoin, true, false, 1, 0},
		{"inner/null-build", InnerJoin, false, true, 1, 0},
		{"inner/null-both", InnerJoin, true, true, 1, 0},
		{"left/null-probe", LeftOuterJoin, true, false, 2, 1},
		{"left/null-build", LeftOuterJoin, false, true, 2, 1},
		{"left/null-both", LeftOuterJoin, true, true, 2, 1},
		{"semi/null-probe", SemiJoin, true, false, 1, 0},
		{"semi/null-build", SemiJoin, false, true, 1, 0},
		{"semi/null-both", SemiJoin, true, true, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := &HashJoin{
				Left:     NewBatchSource(probeRows(tc.probeNull)),
				Right:    NewBatchSource(buildRows(tc.buildNull)),
				LeftKeys: []int{0}, RightKeys: []int{0}, Type: tc.typ,
			}
			out, err := Collect(j)
			if err != nil {
				t.Fatal(err)
			}
			if out.NumRows() != tc.wantRows {
				t.Fatalf("rows = %d, want %d:\n%s", out.NumRows(), tc.wantRows, renderBatch(t, out))
			}
			// Key 1 always matches: first output row is (1, 10, 1, 100)-ish.
			if out.Cols[0].IsNull(0) || out.Cols[0].Ints[0] != 1 {
				t.Fatalf("first row key = %v, want 1", out.Cols[0].Value(0))
			}
			if tc.typ != SemiJoin && len(out.Cols) != 4 {
				t.Fatalf("output cols = %d, want 4", len(out.Cols))
			}
			if tc.typ == SemiJoin && len(out.Cols) != 2 {
				t.Fatalf("semi output cols = %d, want 2 (left schema only)", len(out.Cols))
			}
			nullPad := 0
			for i := 0; i < out.NumRows(); i++ {
				if tc.typ == LeftOuterJoin && out.Cols[2].IsNull(i) && out.Cols[3].IsNull(i) {
					nullPad++
				}
			}
			if nullPad != tc.wantNullPad {
				t.Fatalf("NULL-padded rows = %d, want %d:\n%s", nullPad, tc.wantNullPad, renderBatch(t, out))
			}
		})
	}
}

// TestParallelProbeIdenticalAcrossDOP fans the probe side of a join out over
// RunMorsels at several degrees of parallelism; a shared JoinTable plus
// morsel-ordered BatchList merge must yield byte-identical results at every
// DOP, including outer-join NULL padding and duplicate build matches.
func TestParallelProbeIdenticalAcrossDOP(t *testing.T) {
	probeFiles := groupedFiles(t, 4, 200, 32) // id, grp, val, price

	// Build side: two matches for half the grp values, none for grp >= 4.
	build := colfile.NewBatch(intSchema("g", "tag"))
	for g := 0; g < 4; g++ {
		_ = build.AppendRow(int64(g), int64(g*100))
		_ = build.AppendRow(int64(g), int64(g*100+1))
	}

	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin} {
		run := func(dop int) string {
			table, err := BuildHashJoin(NewBatchSource(build), []int{0}, typ, dop, nil)
			if err != nil {
				t.Fatal(err)
			}
			morsels := SplitMorsels(probeFiles, dop*4)
			batches, err := RunMorsels(morsels, dop, func(m Morsel) (Operator, error) {
				s, err := NewMorselScan(m, nil, nil, nil)
				if err != nil {
					return nil, err
				}
				return &Probe{In: s, Table: table, LeftKeys: []int{1}}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			proto := &Probe{In: NewBatchSource(colfile.NewBatch(probeFiles[0].R.Schema())), Table: table, LeftKeys: []int{1}}
			out, err := Collect(NewBatchList(proto.Schema(), batches))
			if err != nil {
				t.Fatal(err)
			}
			return renderBatch(t, out)
		}
		want := run(1)
		if want == "" || len(strings.Split(want, "\n")) < 10 {
			t.Fatalf("type %v: probe produced almost nothing; dataset broken", typ)
		}
		for _, dop := range []int{2, 4, 8} {
			if got := run(dop); got != want {
				t.Fatalf("type %v dop=%d probe output differs from dop=1", typ, dop)
			}
		}
	}
}

// TestMergeFreeConcatMatchesMergingPath runs the same partial batches through
// MergeAgg with and without MergeFree. When each group appears in exactly one
// partial input (the distribution-aware case), both paths must agree bytewise.
func TestMergeFreeConcatMatchesMergingPath(t *testing.T) {
	schema := intSchema("g", "v")
	// Two "cells": disjoint group keys, as d(r)-aligned morsels guarantee.
	cellA := colfile.NewBatch(schema)
	cellB := colfile.NewBatch(schema)
	for i := 0; i < 100; i++ {
		_ = cellA.AppendRow(int64(i%3), int64(i))       // groups 0..2
		_ = cellB.AppendRow(int64(3+(i%4)), int64(i*2)) // groups 3..6
	}
	groupBy := progs(t, schema, ColRef{Idx: 0, Name: "g"})
	v := prog(t, schema, ColRef{Idx: 1})
	aggs := []AggSpec{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggSum, Arg: v, Name: "s"},
		{Kind: AggAvg, Arg: v, Name: "a"},
		{Kind: AggMin, Arg: v, Name: "mn"},
		{Kind: AggMax, Arg: v, Name: "mx"},
	}
	partials := func() []*colfile.Batch {
		var out []*colfile.Batch
		for _, cell := range []*colfile.Batch{cellA, cellB} {
			p, err := Collect(&HashAgg{In: NewBatchSource(cell), GroupBy: groupBy, Aggs: aggs, Partial: true})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		return out
	}
	run := func(mergeFree bool) string {
		proto := &HashAgg{In: NewBatchSource(colfile.NewBatch(schema)), GroupBy: groupBy, Aggs: aggs, Partial: true}
		m := &MergeAgg{In: NewBatchList(proto.Schema(), partials()), Groups: 1, Aggs: aggs, MergeFree: mergeFree}
		out, err := Collect(m)
		if err != nil {
			t.Fatal(err)
		}
		return renderBatch(t, out)
	}
	want := run(false)
	if got := run(true); got != want {
		t.Fatalf("merge-free output differs from merging path:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestProbeRejectsMixedKeyTypes: keys match by their typed encoding, so an
// Int64 probe key against a Float64 build key is an error, never a match
// between an integer and a float with the same bits.
func TestProbeRejectsMixedKeyTypes(t *testing.T) {
	build := colfile.NewBatch(colfile.Schema{{Name: "f", Type: colfile.Float64}})
	build.Cols[0].AppendFloat(1.0)
	probe := colfile.NewBatch(colfile.Schema{{Name: "k", Type: colfile.Int64}})
	probe.Cols[0].AppendInt(int64(math.Float64bits(1.0)))
	jt, err := BuildHashJoin(NewBatchSource(build), []int{0}, InnerJoin, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Collect(&Probe{In: NewBatchSource(probe), Table: jt, LeftKeys: []int{0}})
	if want := "exec: join key 0 compares int64 with float64"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}
