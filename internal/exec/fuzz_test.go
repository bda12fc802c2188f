package exec

// FuzzKernelEquivalence drives the vectorized kernel pipeline against the
// scalar reference (Expr.Eval) with fuzzer-chosen data: random typed columns,
// random NULL masks, a random expression from the kernel catalog, and a
// random selection-vector shape. Any divergence in values, NULL positions,
// result type, or error string is a bug in one of the two evaluators. The
// seed corpus runs in every plain `go test`; CI runs a bounded `-fuzztime`
// exploration via `make fuzz-smoke`.

import (
	"math"
	"slices"
	"strings"
	"testing"

	"polaris/internal/colfile"
)

// fuzzExprs is the catalog sampled by the fuzzer: its three groups, appended
// in order. Each seed loop ranges over its own group, so an entry added to
// one group moves no other group's seeds. Columns: 0=i (Int64), 1=j (Int64),
// 2=f (Float64), 3=s (String), 4=b (Bool).
var fuzzExprs = slices.Concat(kernelExprs, rangedExprs, illTypedExprs)

// kernelExprs: every kernel family, including the faulting ones (div/mod by
// fuzzer-chosen values).
var kernelExprs = []Expr{
	Bin{Kind: OpEq, L: ColRef{Idx: 0}, R: ColRef{Idx: 1}},
	Bin{Kind: OpLt, L: ColRef{Idx: 0}, R: ColRef{Idx: 2}}, // mixed int/float
	Bin{Kind: OpGe, L: ColRef{Idx: 2}, R: ColRef{Idx: 2}},
	Bin{Kind: OpNe, L: ColRef{Idx: 3}, R: Const{Val: "q"}},
	Bin{Kind: OpLe, L: ColRef{Idx: 4}, R: Const{Val: true}},
	Bin{Kind: OpAdd, L: ColRef{Idx: 0}, R: ColRef{Idx: 1}},
	Bin{Kind: OpMul, L: ColRef{Idx: 2}, R: ColRef{Idx: 2}},
	Bin{Kind: OpSub, L: ColRef{Idx: 0}, R: ColRef{Idx: 2}},
	Bin{Kind: OpDiv, L: ColRef{Idx: 0}, R: ColRef{Idx: 1}}, // may hit /0
	Bin{Kind: OpMod, L: ColRef{Idx: 0}, R: ColRef{Idx: 1}}, // may hit %0
	Bin{Kind: OpDiv, L: ColRef{Idx: 2}, R: ColRef{Idx: 2}}, // float /0
	Bin{Kind: OpAdd, L: ColRef{Idx: 3}, R: ColRef{Idx: 3}}, // concat
	Bin{Kind: OpAnd, L: ColRef{Idx: 4}, R: Bin{Kind: OpGt, L: ColRef{Idx: 0}, R: Const{Val: 0}}},
	Bin{Kind: OpOr, L: ColRef{Idx: 4}, R: IsNull{E: ColRef{Idx: 3}}},
	Not{E: ColRef{Idx: 4}},
	IsNull{E: ColRef{Idx: 2}, Negate: true},
	InList{E: ColRef{Idx: 0}, Vals: []any{int64(0), int64(1), int64(-1)}},
	InList{E: ColRef{Idx: 3}, Vals: []any{"a", ""}, Negate: true},
	Bin{Kind: OpLt, L: ColRef{Idx: 3}, R: ColRef{Idx: 0}},               // lazy type error
	InList{E: ColRef{Idx: 0}, Vals: []any{1.0, int64(-1), 2.5}},         // a float literal against ints
	InList{E: ColRef{Idx: 2}, Vals: []any{int64(0), 1.5}, Negate: true}, // an int literal against floats
	InList{E: ColRef{Idx: 0}, Vals: []any{int64(1), nil}},               // TRUE on 1, else NULL
	InList{E: ColRef{Idx: 0}, Vals: []any{int64(1), nil}, Negate: true}, // FALSE on 1, else NULL
}

// nullInLists is how many IN lists with a NULL end kernelExprs.
const nullInLists = 2

// rangedExprs: conjunctions of Int64 comparisons whose zone-map ranges the
// fuzzer checks (Prog.Ranges).
var rangedExprs = []Expr{
	Bin{Kind: OpAnd, L: Bin{Kind: OpGe, L: ColRef{Idx: 0}, R: Const{Val: int64(-5)}}, R: Bin{Kind: OpLt, L: ColRef{Idx: 1}, R: Const{Val: int64(3)}}},
	Bin{Kind: OpAnd, L: Bin{Kind: OpGt, L: ColRef{Idx: 0}, R: Const{Val: int64(math.MinInt64)}}, R: Bin{Kind: OpLe, L: ColRef{Idx: 0}, R: Const{Val: int64(math.MaxInt64 - 1)}}},
	Bin{Kind: OpAnd, L: Bin{Kind: OpEq, L: ColRef{Idx: 1}, R: Const{Val: int64(math.MaxInt64)}}, R: Bin{Kind: OpGe, L: ColRef{Idx: 0}, R: Const{Val: int64(math.MinInt64)}}},
	Bin{Kind: OpAnd, L: Bin{Kind: OpGt, L: ColRef{Idx: 0}, R: Const{Val: int64(math.MaxInt64)}}, R: Bin{Kind: OpLt, L: ColRef{Idx: 1}, R: Const{Val: int64(math.MinInt64)}}},
	Bin{Kind: OpAnd, L: Bin{Kind: OpAnd, L: Bin{Kind: OpGt, L: ColRef{Idx: 0}, R: Const{Val: -1}}, R: Bin{Kind: OpLt, L: ColRef{Idx: 0}, R: Const{Val: 9}}},
		R: Bin{Kind: OpOr, L: Bin{Kind: OpEq, L: ColRef{Idx: 0}, R: Const{Val: int64(1)}}, R: Bin{Kind: OpNe, L: ColRef{Idx: 1}, R: Const{Val: int64(0)}}}},
	Bin{Kind: OpAnd, L: Not{E: Bin{Kind: OpLt, L: ColRef{Idx: 0}, R: Const{Val: int64(3)}}}, R: Bin{Kind: OpGe, L: ColRef{Idx: 1}, R: Const{Val: int64(-2)}}},
	// A range on i, a range on j and a residual that may divide by zero.
	Bin{Kind: OpAnd, L: Bin{Kind: OpAnd, L: Bin{Kind: OpGe, L: ColRef{Idx: 0}, R: Const{Val: int64(-6)}}, R: Bin{Kind: OpLe, L: ColRef{Idx: 1}, R: Const{Val: int64(1)}}},
		R: Bin{Kind: OpEq, L: Bin{Kind: OpMod, L: ColRef{Idx: 0}, R: ColRef{Idx: 1}}, R: Const{Val: int64(0)}}},
}

// illTypedExprs: statically ill-typed trees. Compile's error must equal the
// reference's, and must win over any data-dependent error below it.
var illTypedExprs = []Expr{
	Not{E: ColRef{Idx: 0}},
	Bin{Kind: OpAnd, L: ColRef{Idx: 0}, R: ColRef{Idx: 4}},
	Bin{Kind: OpOr, L: ColRef{Idx: 4}, R: ColRef{Idx: 3}},
	Like{E: ColRef{Idx: 2}, Pattern: "%"},
	Bin{Kind: OpSub, L: ColRef{Idx: 3}, R: ColRef{Idx: 3}},
	Bin{Kind: OpAdd, L: ColRef{Idx: 0}, R: ColRef{Idx: 3}},
	IsNull{E: Not{E: ColRef{Idx: 3}}},
	InList{E: Bin{Kind: OpAnd, L: ColRef{Idx: 4}, R: ColRef{Idx: 1}}, Vals: []any{true}},
	Not{E: Bin{Kind: OpDiv, L: ColRef{Idx: 0}, R: ColRef{Idx: 1}}}, // NOT of int64, even when a lane divides by zero
	ColRef{Idx: 9},
}

var fuzzSchema = colfile.Schema{
	{Name: "i", Type: colfile.Int64},
	{Name: "j", Type: colfile.Int64},
	{Name: "f", Type: colfile.Float64},
	{Name: "s", Type: colfile.String},
	{Name: "b", Type: colfile.Bool},
}

func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(3), int64(0), 1.5, "al%pha", true, uint8(0b10101), uint8(8), uint8(2), 5)
	f.Add(int64(-7), int64(2), -0.0, "", false, uint8(0), uint8(9), uint8(0), 1)
	f.Add(int64(42), int64(-1), 1e18, "a_b", true, uint8(0xff), uint8(18), uint8(3), 9)
	for pick := len(kernelExprs) - nullInLists; pick < len(kernelExprs); pick++ { // i = 0, 1, 2, …, NULL on even rows: NULL, TRUE (or FALSE), NULL, …
		f.Add(int64(0), int64(1), 0.0, "n", true, uint8(0b00001), uint8(pick), uint8(0), 6)
	}
	ranged := len(kernelExprs)
	for pick := ranged; pick < ranged+len(rangedExprs); pick++ { // every ranged conjunction, over the int64 extremes
		f.Add(int64(math.MinInt64), int64(math.MaxInt64), 0.5, "r", false, uint8(0b00010), uint8(pick), uint8(0), 7)
		f.Add(int64(-6), int64(1), 0.5, "r", true, uint8(0), uint8(pick), uint8(0), 12)
		f.Add(int64(-6), int64(1), 0.5, "r", true, uint8(0b00010), uint8(pick), uint8(2), 16)
	}
	for pick := ranged + len(rangedExprs); pick < len(fuzzExprs); pick++ { // every ill-typed tree, over zero divisors
		f.Add(int64(1), int64(0), 0.0, "s", true, uint8(0), uint8(pick), uint8(pick), 4)
	}
	f.Fuzz(func(t *testing.T, i, j int64, fv float64, s string, bv bool,
		nulls uint8, exprPick uint8, selPick uint8, n int) {
		if n < 1 || n > 64 {
			return
		}
		// Build n rows by permuting the seed values so lanes differ; bit k of
		// nulls NULLs column k on rows where the row index shares its parity.
		b := colfile.NewBatch(fuzzSchema)
		for r := 0; r < n; r++ {
			row := []any{
				any(i + int64(r)*j),
				any(j - int64(r%3)),
				any(fv * float64(r%5)),
				any(s + strings.Repeat("x", r%3)),
				any(bv != (r%2 == 0)),
			}
			for c := 0; c < 5; c++ {
				if nulls&(1<<c) != 0 && r%2 == c%2 {
					row[c] = nil
				}
			}
			if err := b.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		switch selPick % 4 {
		case 1:
			b.Sel = []int{}
		case 2:
			for r := 0; r < n; r += 2 {
				b.Sel = append(b.Sel, r)
			}
		case 3:
			b.Sel = []int{n - 1}
		}
		e := fuzzExprs[int(exprPick)%len(fuzzExprs)]

		want, wantErr := evalScalar(e, b)
		got, gotErr := evalVector(e, b)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: vectorized %v, scalar reference %v", e, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error string: vectorized %q, scalar reference %q", e, gotErr, wantErr)
			}
			return
		}
		if got.Type != want.Type {
			t.Fatalf("%s: type %s, scalar reference %s", e, got.Type, want.Type)
		}
		for r := 0; r < b.NumRows(); r++ {
			if gv, wv := got.Value(r), want.Value(r); gv != wv {
				t.Fatalf("%s: row %d = %#v, scalar reference %#v", e, r, gv, wv)
			}
		}
		// Every row the reference maps to TRUE lies inside every range the
		// program records, or a zone map could skip it.
		prog, err := Compile(e, b.Schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, rg := range prog.Ranges() {
			col := b.Cols[rg.Col]
			for r := 0; r < b.NumRows(); r++ {
				if want.Value(r) != true {
					continue
				}
				if p := b.RowIdx(r); col.IsNull(p) || col.Ints[p] < rg.Lo || col.Ints[p] > rg.Hi {
					t.Fatalf("%s: row %d is TRUE with column %d = %v, outside its range [%d, %d]", e, r, rg.Col, col.Value(p), rg.Lo, rg.Hi)
				}
			}
		}
	})
}

// FuzzAggEquivalence drives HashAgg — alone, and as partial aggregates under a
// MergeAgg — against the scalar reference aggregator (refAggregate) with
// fuzzer-chosen data, grouping columns, NULL rate, batch splits, morsel count
// and selection shape — and the same rows again with their strings
// dictionary-coded by a join build and NaNs among the floats
// (checkCodedAggAgainstReference). Any difference in groups, their order,
// values, NULLs or float bits is a bug in the operators or the key table
// under them.
func FuzzAggEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(9), uint8(20), uint8(0b00001), uint8(4), uint8(0), false)
	f.Add(int64(2), uint16(700), uint8(5), uint8(0), uint8(0b01100), uint8(7), uint8(3), true)
	f.Add(int64(3), uint16(0), uint8(2), uint8(50), uint8(0), uint8(1), uint8(1), false)
	f.Add(int64(4), uint16(40), uint8(200), uint8(90), uint8(0b10111), uint8(9), uint8(9), true)
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, domain, nullPct, groupMask, splits, morsels uint8, selected bool) {
		if rows > 2000 {
			return
		}
		c := aggCase{
			seed: seed, rows: int(rows), domain: 2 + int(domain), nullPct: int(nullPct) % 101,
			splits: 1 + int(splits)%12, morsels: int(morsels) % 12, selected: selected,
		}
		for col := 0; col < 5; col++ { // the five key columns of diffSchema
			if groupMask&(1<<col) != 0 {
				c.groupCols = append(c.groupCols, col)
			}
		}
		checkAggAgainstReference(t, c)
		checkCodedAggAgainstReference(t, c)
	})
}

// fuzzJoinKeys are the key shapes FuzzJoinEquivalence draws from, as (probe,
// build) columns of diffSchema: one Int64 column (the word path, also across
// two different columns), composite keys, and keys of every other type (the
// encoded-byte path).
var fuzzJoinKeys = [][2][]int{
	{{0}, {0}}, {{0}, {5}}, {{0, 2}, {5, 3}}, {{2}, {3}}, {{2, 3}, {2, 3}}, {{1}, {1}}, {{4}, {4}}, {{0, 4}, {0, 4}},
}

// FuzzJoinEquivalence drives the join — the in-memory probe without and with
// its bloom filter, and the grace join spilled under a one-byte budget — over
// fuzzer-chosen keys, NULL rate, sizes, join type, batch splits, selection and
// build parallelism, against the nested-loop reference join (refJoin) byte
// for byte. A match the key table, the hash, the filter or the spill
// partitioner loses or invents shows up as a difference.
func FuzzJoinEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(200), uint16(150), uint8(9), uint8(15), uint8(0), uint8(0), uint8(3), false, uint8(1))
	f.Add(int64(2), uint16(90), uint16(400), uint8(40), uint8(30), uint8(2), uint8(1), uint8(1), true, uint8(4))
	f.Add(int64(3), uint16(300), uint16(1), uint8(3), uint8(0), uint8(3), uint8(2), uint8(5), false, uint8(3))
	f.Add(int64(4), uint16(0), uint16(60), uint8(200), uint8(90), uint8(7), uint8(0), uint8(2), true, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, probeRows, buildRows uint16, domain, nullPct, keyPick, typ, splits uint8, selected bool, par uint8) {
		if probeRows > 500 || buildRows < 1 || buildRows > 500 {
			return
		}
		ks := fuzzJoinKeys[int(keyPick)%len(fuzzJoinKeys)]
		checkJoinAgainstReference(t, joinCase{
			seed: seed, probeRows: int(probeRows), build: int(buildRows), domain: 2 + int(domain), nullPct: int(nullPct) % 101,
			probeKeys: ks[0], bldKeys: ks[1], typ: []JoinType{InnerJoin, LeftOuterJoin, SemiJoin}[int(typ)%3],
			splits: 1 + int(splits)%8, selected: selected, parallelism: 1 + int(par)%4, bloom: true,
		})
	})
}
