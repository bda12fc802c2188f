package exec

// Golden equivalence suite for the vectorized expression pipeline: every
// compiled kernel program must be observationally identical to the scalar
// reference (Expr.Eval) — same values, same NULLs, same error strings —
// across the NULL/type matrix and across selection-vector shapes (dense,
// empty, all-selected, single row, sparse). docs/VECTORIZATION.md makes this
// contract normative; this file pins it.

import (
	"fmt"
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
	// Reference input: materialized dense filter of the same rows.
	pv, err := pred.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	keep := make([]bool, base.NumRows())
	for i := range keep {
		keep[i] = !pv.IsNull(i) && pv.Bools[i]
	}
	want := run(NewBatchSource(base.Filter(keep)))
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
