package exec

// Golden equivalence suite for the vectorized expression pipeline: every
// compiled kernel program must be observationally identical to the scalar
// reference (Expr.Eval) — same values, same NULLs, same error strings —
// across the NULL/type matrix and across selection-vector shapes (dense,
// empty, all-selected, single row, sparse). docs/VECTORIZATION.md makes this
// contract normative; this file pins it.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"polaris/internal/colfile"
)

// goldenSchema is the type matrix the suite evaluates over.
var goldenSchema = colfile.Schema{
	{Name: "i1", Type: colfile.Int64},   // no NULLs
	{Name: "i2", Type: colfile.Int64},   // NULLs + zeros (divisor torture)
	{Name: "f1", Type: colfile.Float64}, // NULLs
	{Name: "f2", Type: colfile.Float64}, // no NULLs, never zero
	{Name: "s1", Type: colfile.String},  // NULLs
	{Name: "s2", Type: colfile.String},  // no NULLs
	{Name: "b1", Type: colfile.Bool},    // NULLs
	{Name: "i3", Type: colfile.Int64},   // no NULLs, never zero
}

// goldenBatch builds n rows of deterministic, NULL-seeded data.
func goldenBatch(n int) *colfile.Batch {
	b := colfile.NewBatch(goldenSchema)
	words := []string{"alpha", "beta", "a%b_c", "", "Alpha", "beta beta", "zz"}
	for i := 0; i < n; i++ {
		row := []any{
			any(int64(i%17 - 8)),
			any(int64(i % 5)),
			any(float64(i%13) - 6.5),
			any(float64(i%7) + 0.5),
			any(words[i%len(words)]),
			any(words[(i*3+1)%len(words)]),
			any(i%3 == 0),
			any(int64(i%9 + 1)),
		}
		if i%4 == 1 {
			row[1] = nil
		}
		if i%5 == 2 {
			row[2] = nil
		}
		if i%6 == 3 {
			row[4] = nil
		}
		if i%7 == 4 {
			row[6] = nil
		}
		if err := b.AppendRow(row...); err != nil {
			panic(err)
		}
	}
	return b
}

func col(name string) ColRef {
	return ColRef{Idx: goldenSchema.ColIndex(name), Name: name}
}

// goldenExprs is the kernel catalog coverage: one entry per (operator, type)
// shape, including NULL propagation, mixed int/float coercion, faulting
// kernels with NULL divisor lanes, string kernels, and deferred type errors.
func goldenExprs() map[string]Expr {
	m := map[string]Expr{}
	for k, name := range map[BinKind]string{
		OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	} {
		m["int_"+name] = Bin{Kind: k, L: col("i1"), R: col("i2")}
		m["float_"+name] = Bin{Kind: k, L: col("f1"), R: col("f2")}
		m["str_"+name] = Bin{Kind: k, L: col("s1"), R: col("s2")}
		m["bool_"+name] = Bin{Kind: k, L: col("b1"), R: Const{Val: true}}
		m["mixed_"+name] = Bin{Kind: k, L: col("i1"), R: col("f1")}
	}
	m["int_add"] = Bin{Kind: OpAdd, L: col("i1"), R: col("i2")}
	m["int_sub"] = Bin{Kind: OpSub, L: col("i1"), R: col("i2")}
	m["int_mul"] = Bin{Kind: OpMul, L: col("i1"), R: col("i2")}
	m["int_div"] = Bin{Kind: OpDiv, L: col("i1"), R: col("i3")}
	m["int_mod"] = Bin{Kind: OpMod, L: col("i1"), R: col("i3")}
	m["int_div_null_divisor"] = Bin{Kind: OpDiv, L: col("i1"), R: Bin{Kind: OpAdd, L: col("i2"), R: Const{Val: nil}}}
	m["float_add"] = Bin{Kind: OpAdd, L: col("f1"), R: col("f2")}
	m["float_sub"] = Bin{Kind: OpSub, L: col("f1"), R: col("f2")}
	m["float_mul"] = Bin{Kind: OpMul, L: col("f1"), R: col("f2")}
	m["float_div"] = Bin{Kind: OpDiv, L: col("f1"), R: col("f2")}
	m["mixed_add"] = Bin{Kind: OpAdd, L: col("i1"), R: col("f2")}
	m["mixed_div"] = Bin{Kind: OpDiv, L: col("i1"), R: col("f2")}
	m["str_concat"] = Bin{Kind: OpAdd, L: col("s1"), R: col("s2")}
	m["and"] = Bin{Kind: OpAnd, L: Bin{Kind: OpLt, L: col("i1"), R: col("i2")}, R: col("b1")}
	m["or"] = Bin{Kind: OpOr, L: col("b1"), R: Bin{Kind: OpGt, L: col("f1"), R: Const{Val: 0.0}}}
	m["not"] = Not{E: Bin{Kind: OpLe, L: col("i1"), R: Const{Val: 3}}}
	m["is_null"] = IsNull{E: col("i2")}
	m["is_not_null"] = IsNull{E: col("s1"), Negate: true}
	m["is_null_of_expr"] = IsNull{E: Bin{Kind: OpAdd, L: col("i1"), R: col("i2")}}
	m["like_prefix"] = Like{E: col("s1"), Pattern: "al%"}
	m["like_underscore"] = Like{E: col("s1"), Pattern: "_eta"}
	m["like_multi"] = Like{E: col("s1"), Pattern: "%a%b%"}
	m["like_empty_pat"] = Like{E: col("s1"), Pattern: ""}
	m["in_int"] = InList{E: col("i1"), Vals: []any{int64(0), int64(3), int64(-4), "nope"}}
	m["not_in_int"] = InList{E: col("i2"), Vals: []any{int64(1), int64(2)}, Negate: true}
	m["in_str"] = InList{E: col("s1"), Vals: []any{"alpha", "", int64(7)}}
	m["in_float"] = InList{E: col("f2"), Vals: []any{0.5, 3.5}}
	m["in_bool"] = InList{E: col("b1"), Vals: []any{true}}
	m["in_null"] = InList{E: col("i1"), Vals: []any{int64(3), nil}}
	m["not_in_null"] = InList{E: col("s1"), Vals: []any{"alpha", nil}, Negate: true}
	m["const_int"] = Const{Val: 42}
	m["const_null"] = Const{Val: nil}
	m["const_cmp"] = Bin{Kind: OpGe, L: col("i1"), R: Const{Val: 0}}
	m["null_cmp"] = Bin{Kind: OpEq, L: col("i1"), R: Const{Val: nil}}
	// faulting / deferred-error parity
	m["err_int_div_zero"] = Bin{Kind: OpDiv, L: col("i1"), R: col("i2")} // i2 hits 0
	m["err_int_mod_zero"] = Bin{Kind: OpMod, L: col("i1"), R: col("i2")}
	m["err_float_div_zero"] = Bin{Kind: OpDiv, L: col("f1"), R: Const{Val: 0.0}}
	m["err_cmp_mismatch"] = Bin{Kind: OpLt, L: col("s1"), R: col("i1")}
	m["err_float_mod"] = Bin{Kind: OpMod, L: col("f1"), R: col("f2")}
	return m
}

// selections returns the selection-vector edge cases over n physical rows.
func selections(n int) map[string][]int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var sparse []int
	for i := 0; i < n; i += 3 {
		sparse = append(sparse, i)
	}
	m := map[string][]int{
		"dense":        nil,
		"empty":        {},
		"all_selected": all,
		"sparse":       sparse,
	}
	if n > 1 {
		m["single_row"] = []int{n / 2}
	}
	return m
}

// evalScalar runs the scalar reference over the batch's logical rows.
func evalScalar(e Expr, b *colfile.Batch) (*colfile.Vec, error) {
	return refEval(e, b.Materialize())
}

// evalVector compiles and runs the kernel program, then gathers the selected
// lanes densely so both paths are compared in logical-row space.
func evalVector(e Expr, b *colfile.Batch) (*colfile.Vec, error) {
	prog, err := Compile(e, b.Schema)
	if err != nil {
		return nil, err
	}
	v, err := prog.Run(prog.NewCtx(), b)
	if err != nil {
		return nil, err
	}
	if b.Sel != nil {
		return v.Take(b.Sel), nil
	}
	if v.Len() > b.PhysRows() { // broadcast constants may overshoot
		return v.Slice(0, b.PhysRows()), nil
	}
	return v, nil
}

func assertVecsEqual(t *testing.T, name string, got, want *colfile.Vec, n int) {
	t.Helper()
	if got.Type != want.Type {
		t.Fatalf("%s: type %s, scalar reference %s", name, got.Type, want.Type)
	}
	for i := 0; i < n; i++ {
		gv, wv := got.Value(i), want.Value(i)
		if gv != wv {
			t.Fatalf("%s: row %d = %#v, scalar reference %#v", name, i, gv, wv)
		}
	}
}

func TestVectorizedEquivalenceGolden(t *testing.T) {
	const rows = 257 // not a multiple of anything interesting
	base := goldenBatch(rows)
	for selName, sel := range selections(rows) {
		b := &colfile.Batch{Schema: base.Schema, Cols: base.Cols, Sel: sel}
		if selName == "dense" {
			b = base
		}
		for exprName, e := range goldenExprs() {
			t.Run(selName+"/"+exprName, func(t *testing.T) {
				want, wantErr := evalScalar(e, b)
				got, gotErr := evalVector(e, b)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("error mismatch: vectorized %v, scalar reference %v", gotErr, wantErr)
				}
				if wantErr != nil {
					if gotErr.Error() != wantErr.Error() {
						t.Fatalf("error string: vectorized %q, scalar reference %q", gotErr, wantErr)
					}
					return
				}
				assertVecsEqual(t, exprName, got, want, b.NumRows())
			})
		}
	}
}

// TestVectorizedFilterSelectionComposition pins Filter's selection-vector
// output against the pre-refactor materializing semantics, including a
// second Filter stacked on a selected batch (sel∘sel composition).
func TestVectorizedFilterSelectionComposition(t *testing.T) {
	base := goldenBatch(300)
	pred1 := Bin{Kind: OpGt, L: col("i1"), R: Const{Val: -2}}
	pred2 := Bin{Kind: OpLt, L: col("f2"), R: Const{Val: 5.0}}

	f := &Filter{In: NewBatchSource(base), Pred: prog(t, goldenSchema, pred1)}
	f2 := &Filter{In: f, Pred: prog(t, goldenSchema, pred2)}
	got, err := Collect(f2)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: row-at-a-time over the same predicates.
	want := colfile.NewBatch(goldenSchema)
	for i := 0; i < base.NumRows(); i++ {
		keep := true
		for _, pred := range []Expr{Expr(pred1), Expr(pred2)} {
			pv, err := refEval(pred, base)
			if err != nil {
				t.Fatal(err)
			}
			if pv.IsNull(i) || !pv.Bools[i] {
				keep = false
			}
		}
		if keep {
			want.AppendBatch(&colfile.Batch{Schema: base.Schema, Cols: base.Cols, Sel: []int{i}})
		}
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		if fmt.Sprint(got.Row(i)) != fmt.Sprint(want.Row(i)) {
			t.Fatalf("row %d = %v, want %v", i, got.Row(i), want.Row(i))
		}
	}
}

// TestVectorizedAggOverSelection pins HashAgg (typed min/max state, compiled
// args) over a selected batch against the scalar reference path over the
// materialized equivalent.
func TestVectorizedAggOverSelection(t *testing.T) {
	base := goldenBatch(400)
	pred := Bin{Kind: OpNe, L: col("i2"), R: Const{Val: 0}}
	arg := func(name string) *Prog { return prog(t, goldenSchema, col(name)) }
	groupBy := progs(t, goldenSchema, col("i2"))
	aggs := []AggSpec{
		{Kind: AggCountStar, Name: "n"},
		{Kind: AggSum, Arg: arg("i1"), Name: "s"},
		{Kind: AggMin, Arg: arg("f1"), Name: "mnf"},
		{Kind: AggMax, Arg: arg("s1"), Name: "mxs"},
		{Kind: AggMin, Arg: arg("b1"), Name: "mnb"},
		{Kind: AggAvg, Arg: arg("i3"), Name: "av"},
	}
	run := func(in Operator) *colfile.Batch {
		h := &HashAgg{In: in, GroupBy: groupBy, Aggs: aggs}
		out, err := Collect(h)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got := run(&Filter{In: NewBatchSource(base), Pred: prog(t, goldenSchema, pred)})
	// Reference input: a dense Take of the same rows.
	pv, err := pred.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	var kept []int
	for i := 0; i < base.NumRows(); i++ {
		if !pv.IsNull(i) && pv.Bools[i] {
			kept = append(kept, i)
		}
	}
	want := run(NewBatchSource(base.Take(kept)))
	if got.NumRows() != want.NumRows() {
		t.Fatalf("groups = %d, want %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		if fmt.Sprint(got.Row(i)) != fmt.Sprint(want.Row(i)) {
			t.Fatalf("group row %d = %v, want %v", i, got.Row(i), want.Row(i))
		}
	}
}

// TestLikeMatchersAgree pins the kernel-side greedy LIKE matcher against the
// scalar reference's memoized matcher on targeted wildcard torture cases
// (FuzzKernelEquivalence covers the random space).
func TestLikeMatchersAgree(t *testing.T) {
	cases := []struct{ s, pat string }{
		{"", ""}, {"", "%"}, {"", "_"}, {"a", ""}, {"abc", "abc"},
		{"abc", "a%"}, {"abc", "%c"}, {"abc", "%b%"}, {"abc", "a_c"},
		{"abc", "____"}, {"abc", "___"}, {"aaa", "%aa"}, {"aaab", "%ab%"},
		{"mississippi", "%iss%ppi"}, {"mississippi", "m%i%s%p_"},
		{"ab", "%%%b"}, {"ab", "a%%"}, {"x", "%%_%%"}, {"", "%%"},
		{"a%b", "a%b"}, {"a_b", "a_b"}, {"aXb", "a%b%"}, {"ba", "%a%b"},
	}
	for _, c := range cases {
		if got, want := likeMatchIter(c.s, c.pat), likeMatch(c.s, c.pat); got != want {
			t.Errorf("likeMatchIter(%q, %q) = %v, reference %v", c.s, c.pat, got, want)
		}
	}
}

// TestProgSharedAcrossWorkers exercises the Prog-shared / EvalCtx-per-worker
// contract under the race detector: one compiled program, many goroutines.
func TestProgSharedAcrossWorkers(t *testing.T) {
	base := goldenBatch(128)
	e := Bin{Kind: OpAnd,
		L: Bin{Kind: OpLt, L: col("i1"), R: col("f2")},
		R: Not{E: IsNull{E: col("s1")}}}
	prog, err := Compile(e, goldenSchema)
	if err != nil {
		t.Fatal(err)
	}
	want, err := evalScalar(e, base)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			ctx := prog.NewCtx()
			for iter := 0; iter < 50; iter++ {
				v, err := prog.Run(ctx, base)
				if err != nil {
					done <- err
					return
				}
				for i := 0; i < base.NumRows(); i++ {
					if v.Value(i) != want.Value(i) {
						done <- fmt.Errorf("worker saw %#v at row %d, want %#v", v.Value(i), i, want.Value(i))
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompileErrorsMatchScalarTypeErrors pins compile-time error strings to
// the messages the scalar reference produces for the same trees.
func TestCompileErrorsMatchScalarTypeErrors(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Bin{Kind: OpSub, L: col("s1"), R: col("s2")}, "exec: cannot apply - to string and string"},
		{Not{E: col("i1")}, "exec: NOT of int64"},
		{Like{E: col("i1"), Pattern: "%"}, "exec: LIKE over int64"},
		{ColRef{Idx: 99}, "exec: column 99 out of range"},
		{Bin{Kind: OpAnd, L: col("i1"), R: col("b1")}, "exec: cannot apply AND to int64 and bool"},
		{Bin{Kind: OpOr, L: col("b1"), R: col("s1")}, "exec: cannot apply OR to bool and string"},
	}
	base := goldenBatch(8)
	for _, c := range cases {
		_, err := Compile(c.e, goldenSchema)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%s) error = %v, want %q", c.e, err, c.want)
		}
		if _, refErr := evalScalar(c.e, base); refErr == nil || err == nil || refErr.Error() != err.Error() {
			t.Errorf("reference(%s) error = %v, Compile error = %v", c.e, refErr, err)
		}
	}
}

// TestProgRanges pins the zone-map ranges Compile records, written out by
// hand: only top-level AND conjuncts of the form Int64 column op int literal
// give one, and a column's conjuncts intersect. Narrow re-addresses them.
func TestProgRanges(t *testing.T) {
	col := func(i int) Expr { return ColRef{Idx: i} }
	cmp := func(k BinKind, c int, v any) Expr { return Bin{Kind: k, L: col(c), R: Const{Val: v}} }
	and := func(l, r Expr) Expr { return Bin{Kind: OpAnd, L: l, R: r} }
	const lo, hi = math.MinInt64, math.MaxInt64
	for _, c := range []struct {
		e    Expr
		want []Range
	}{
		{cmp(OpEq, 1, int64(4)), []Range{{1, 4, 4}}},
		{and(cmp(OpGe, 0, int64(-3)), cmp(OpLe, 0, int64(8))), []Range{{0, -3, 8}}}, // BETWEEN
		{cmp(OpGe, 0, 5), []Range{{0, 5, hi}}},
		{cmp(OpGt, 0, int64(5)), []Range{{0, 6, hi}}},
		{cmp(OpLe, 1, int64(5)), []Range{{1, lo, 5}}},
		{cmp(OpLt, 1, int64(5)), []Range{{1, lo, 4}}},
		{cmp(OpGt, 0, int64(hi)), []Range{{0, hi, hi}}}, // TRUE on no row
		{cmp(OpLt, 0, int64(lo)), []Range{{0, lo, lo}}},
		{and(and(cmp(OpGt, 0, int64(1)), cmp(OpLe, 1, int64(7))), and(cmp(OpLt, 0, int64(10)), cmp(OpEq, 4, true))),
			[]Range{{0, 2, 9}, {1, lo, 7}}},
		{and(cmp(OpGe, 0, int64(5)), cmp(OpLe, 0, int64(1))), []Range{{0, 5, 1}}}, // empty
		{Bin{Kind: OpOr, L: cmp(OpEq, 0, int64(1)), R: cmp(OpEq, 0, int64(2))}, nil},
		{and(Bin{Kind: OpOr, L: cmp(OpGe, 0, int64(1)), R: cmp(OpEq, 1, int64(2))}, cmp(OpLe, 1, int64(3))), []Range{{1, lo, 3}}},
		{Not{E: cmp(OpLt, 0, int64(3))}, nil},
		{InList{E: col(0), Vals: []any{int64(1), int64(2)}}, nil},
		{cmp(OpEq, 0, nil), nil},
		{cmp(OpGe, 0, 2.5), nil},
		{cmp(OpNe, 0, int64(3)), nil},
		{IsNull{E: col(0), Negate: true}, nil},
		{cmp(OpEq, 3, "x"), nil},
		{Bin{Kind: OpLt, L: Const{Val: int64(3)}, R: col(0)}, nil}, // literal op column is not read
	} {
		p, err := Compile(c.e, fuzzSchema)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if got := p.Ranges(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: ranges %v, want %v", c.e, got, c.want)
		}
	}

	// Narrow: j is column 1 of the schema and column 0 of the narrowed
	// program, which reads j and s.
	p, err := Compile(and(cmp(OpNe, 3, "x"), cmp(OpLe, 1, int64(7))), fuzzSchema)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Narrow().Ranges(), []Range{{0, lo, 7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("narrowed ranges %v, want %v", got, want)
	}
	if got, want := p.Ranges(), []Range{{1, lo, 7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Narrow changed the original's ranges to %v, want %v", got, want)
	}
}

// TestRangeInstruction states by hand what the range instruction computes at
// the int64 extremes, over NULL lanes, on two columns and beside a residual
// conjunct, and checks the compiled program, the scalar reference and the
// pruning ranges against it. The lane test is exact where the pruning range
// only has to be sound: x > MaxInt64 prunes with [MaxInt64, MaxInt64] but is
// FALSE on a MaxInt64 lane.
func TestRangeInstruction(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	i, j := ColRef{Idx: 0, Name: "i"}, ColRef{Idx: 1, Name: "j"}
	cmp := func(k BinKind, c ColRef, v int64) Expr { return Bin{Kind: k, L: c, R: Const{Val: v}} }
	and := func(l, r Expr) Expr { return Bin{Kind: OpAnd, L: l, R: r} }
	residual := Bin{Kind: OpGt, L: Bin{Kind: OpDiv, L: Const{Val: int64(10)}, R: j}, R: Const{Val: int64(0)}}
	// (i, j) per row; nil is NULL.
	rows := [][2]any{{int64(lo), int64(0)}, {int64(-1), int64(5)}, {int64(0), nil}, {int64(5), int64(1)}, {nil, int64(2)}, {int64(hi), int64(3)}, {int64(1), int64(-7)}}
	b := colfile.NewBatch(fuzzSchema)
	for _, r := range rows {
		if err := b.AppendRow(r[0], r[1], 0.0, "", false); err != nil {
			t.Fatal(err)
		}
	}
	const T, F, N = "T", "F", "N"
	for _, c := range []struct {
		e      Expr
		sel    []int
		want   []string // per logical row
		ranges []Range
		err    string
	}{
		{e: cmp(OpEq, i, lo), want: []string{T, F, F, F, N, F, F}, ranges: []Range{{0, lo, lo}}},
		{e: cmp(OpLe, i, lo), want: []string{T, F, F, F, N, F, F}, ranges: []Range{{0, lo, lo}}},
		{e: cmp(OpEq, i, hi), want: []string{F, F, F, F, N, T, F}, ranges: []Range{{0, hi, hi}}},
		{e: cmp(OpGe, i, hi), want: []string{F, F, F, F, N, T, F}, ranges: []Range{{0, hi, hi}}},
		{e: cmp(OpGt, i, hi), want: []string{F, F, F, F, N, F, F}, ranges: []Range{{0, hi, hi}}},
		{e: cmp(OpLt, i, lo), want: []string{F, F, F, F, N, F, F}, ranges: []Range{{0, lo, lo}}},
		{e: and(cmp(OpGe, i, 5), cmp(OpLe, i, 1)), want: []string{F, F, F, F, N, F, F}, ranges: []Range{{0, 5, 1}}},
		{e: and(cmp(OpGt, i, lo), cmp(OpLt, i, hi)), want: []string{F, T, T, T, N, F, T}, ranges: []Range{{0, lo + 1, hi - 1}}},
		{e: and(cmp(OpGe, i, 0), cmp(OpLt, j, 3)), want: []string{F, F, N, T, N, F, T}, ranges: []Range{{0, 0, hi}, {1, lo, 2}}},
		// NULL AND FALSE is FALSE (row 4), TRUE AND NULL is NULL (row 2),
		// whichever column comes first.
		{e: and(cmp(OpGe, i, 0), cmp(OpGt, j, 2)), want: []string{F, F, N, F, F, T, F}, ranges: []Range{{0, 0, hi}, {1, 3, hi}}},
		{e: and(cmp(OpGt, j, 2), cmp(OpGe, i, 0)), want: []string{F, F, N, F, F, T, F}, ranges: []Range{{1, 3, hi}, {0, 0, hi}}},
		// Under a selection only its lanes are read.
		{e: cmp(OpGt, i, hi), sel: []int{4, 5}, want: []string{N, F}, ranges: []Range{{0, hi, hi}}},
		{e: and(cmp(OpGe, i, 0), cmp(OpGt, j, 2)), sel: []int{1, 2, 5}, want: []string{F, N, T}, ranges: []Range{{0, 0, hi}, {1, 3, hi}}},
		// The residual divides by j = 0 on row 0, which the range excludes:
		// the error stands, as in the tree, whose every conjunct is evaluated.
		{e: and(and(cmp(OpGe, i, 1), residual), cmp(OpLe, i, 9)), err: "exec: integer division by zero", ranges: []Range{{0, 1, 9}}},
		{e: and(and(cmp(OpGe, i, 1), residual), cmp(OpLe, i, 9)), sel: []int{1, 2, 3, 4, 5, 6},
			want: []string{F, F, T, N, F, F}, ranges: []Range{{0, 1, 9}}},
	} {
		p, err := Compile(c.e, fuzzSchema)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if got := p.Ranges(); !reflect.DeepEqual(got, c.ranges) {
			t.Errorf("%s: ranges %v, want %v", c.e, got, c.ranges)
		}
		in := *b
		in.Sel = c.sel
		got, gotErr := evalVector(c.e, &in)
		ref, refErr := evalScalar(c.e, &in)
		if c.err != "" {
			if gotErr == nil || gotErr.Error() != c.err || refErr == nil || refErr.Error() != c.err {
				t.Errorf("%s: errors %v (compiled) and %v (reference), want %q", c.e, gotErr, refErr, c.err)
			}
			continue
		}
		if gotErr != nil || refErr != nil {
			t.Fatalf("%s: errors %v (compiled) and %v (reference)", c.e, gotErr, refErr)
		}
		for r, w := range c.want {
			for name, v := range map[string]*colfile.Vec{"compiled": got, "reference": ref} {
				s := N
				if !v.IsNull(r) {
					s = map[bool]string{true: T, false: F}[v.Bools[r]]
				}
				if s != w {
					t.Errorf("%s: %s row %d is %s, want %s", c.e, name, r, s, w)
				}
			}
		}
	}
}

// TestBetweenIsOneInstruction: an int BETWEEN compiles to one range
// instruction over its column, with no broadcast constant, and a residual
// conjunct adds its own instructions and one AND.
func TestBetweenIsOneInstruction(t *testing.T) {
	a := ColRef{Idx: 0, Name: "i"}
	between := Bin{Kind: OpAnd,
		L: Bin{Kind: OpGe, L: a, R: Const{Val: int64(1)}},
		R: Bin{Kind: OpLe, L: a, R: Const{Val: int64(9)}}}
	p, err := Compile(between, fuzzSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.instrs) != 1 || p.consts != nil || slices.ContainsFunc(p.slots, func(s progSlot) bool { return s.kind == slotConst }) {
		t.Fatalf("i BETWEEN 1 AND 9: %d instructions, constants %v, slots %+v; want one instruction and no constant", len(p.instrs), p.consts != nil, p.slots)
	}
	withResidual := Bin{Kind: OpAnd, L: between, R: Not{E: ColRef{Idx: 4, Name: "b"}}}
	if p, err = Compile(withResidual, fuzzSchema); err != nil {
		t.Fatal(err)
	}
	if len(p.instrs) != 3 {
		t.Fatalf("%s: %d instructions, want 3 (range, NOT, AND)", withResidual, len(p.instrs))
	}
}
