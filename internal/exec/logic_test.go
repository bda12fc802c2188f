package exec

import (
	"testing"

	"polaris/internal/colfile"
)

// logicRows is SQL's three-valued AND/OR truth table, written out by hand
// (nil is NULL): a FALSE decides AND and a TRUE decides OR even beside a NULL.
var logicRows = []struct{ l, r, and, or any }{
	{true, true, true, true},
	{true, false, false, true},
	{true, nil, nil, true},
	{false, true, false, true},
	{false, false, false, false},
	{false, nil, false, nil},
	{nil, true, nil, true},
	{nil, false, false, nil},
	{nil, nil, nil, nil},
}

var logicSchema = colfile.Schema{{Name: "l", Type: colfile.Bool}, {Name: "r", Type: colfile.Bool}}

// TestLogicalTruthTable checks the kernel program and the scalar reference
// against the hand-written table, densely and under selection vectors, and
// on the rows without a NULL, where the inputs carry no bitmap (the kernel's
// two-valued fast path).
func TestLogicalTruthTable(t *testing.T) {
	all := colfile.NewBatch(logicSchema)
	noNull := colfile.NewBatch(logicSchema)
	var allRows, noNullRows []int
	for i, row := range logicRows {
		if err := all.AppendRow(row.l, row.r); err != nil {
			t.Fatal(err)
		}
		allRows = append(allRows, i)
		if row.l != nil && row.r != nil {
			if err := noNull.AppendRow(row.l, row.r); err != nil {
				t.Fatal(err)
			}
			noNullRows = append(noNullRows, i)
		}
	}
	if noNull.Cols[0].HasNulls() || noNull.Cols[1].HasNulls() {
		t.Fatal("the NULL-free batch carries a bitmap; it would not take the fast path")
	}

	type input struct {
		name string
		b    *colfile.Batch
		rows []int // logicRows index of each logical row
	}
	inputs := []input{{"dense", all, allRows}, {"no-nulls", noNull, noNullRows}}
	for _, sel := range [][]int{{0, 2, 4, 6, 8}, {1, 3, 5, 7}, {}} {
		rows := make([]int, len(sel))
		for k, i := range sel {
			rows[k] = allRows[i]
		}
		inputs = append(inputs, input{"sel", &colfile.Batch{Schema: all.Schema, Cols: all.Cols, Sel: sel}, rows})
	}

	l, r := ColRef{Idx: 0, Name: "l"}, ColRef{Idx: 1, Name: "r"}
	evals := map[string]func(Expr, *colfile.Batch) (*colfile.Vec, error){"kernel": evalVector, "reference": evalScalar}
	for _, in := range inputs {
		for _, kind := range []BinKind{OpAnd, OpOr} {
			for name, eval := range evals {
				got, err := eval(Bin{Kind: kind, L: l, R: r}, in.b)
				if err != nil {
					t.Fatalf("%s %s %s: %v", in.name, name, binNames[kind], err)
				}
				for k, i := range in.rows {
					want := logicRows[i].and
					if kind == OpOr {
						want = logicRows[i].or
					}
					if g := got.Value(k); g != want {
						t.Errorf("%s %s: %v %s %v = %v, want %v", in.name, name,
							logicRows[i].l, binNames[kind], logicRows[i].r, g, want)
					}
				}
			}
		}
	}
}

// TestLogicalKeepsOperandErrors pins the error rule: both operands of AND
// and OR are evaluated in full, so a lane's runtime error is raised even
// where the other operand decides the result (TRUE OR 1/0 = 1).
func TestLogicalKeepsOperandErrors(t *testing.T) {
	schema := colfile.Schema{{Name: "l", Type: colfile.Bool}, {Name: "z", Type: colfile.Int64}}
	b := colfile.NewBatch(schema)
	if err := b.AppendRow(true, int64(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow(false, int64(0)); err != nil {
		t.Fatal(err)
	}
	l, z := ColRef{Idx: 0, Name: "l"}, ColRef{Idx: 1, Name: "z"}
	faulting := Bin{Kind: OpEq, L: Bin{Kind: OpDiv, L: Const{Val: int64(1)}, R: z}, R: Const{Val: int64(1)}}
	for _, e := range []Expr{
		Bin{Kind: OpOr, L: l, R: faulting},
		Bin{Kind: OpAnd, L: l, R: faulting},
		Bin{Kind: OpOr, L: faulting, R: l},
	} {
		for name, eval := range map[string]func(Expr, *colfile.Batch) (*colfile.Vec, error){"kernel": evalVector, "reference": evalScalar} {
			if _, err := eval(e, b); err == nil || err.Error() != errDivZero.Error() {
				t.Errorf("%s %s: err = %v, want %q", name, e, err, errDivZero)
			}
		}
	}
}

// TestInListPromotesNumbers is IN's truth table over an INT column i and a
// FLOAT column f, written out by hand (nil is NULL): a literal of the other
// numeric type compares as = compares it, so f IN (1) holds where f = 1 does
// and i IN (1.5) holds nowhere. Strings never match a number.
func TestInListPromotesNumbers(t *testing.T) {
	schema := colfile.Schema{{Name: "i", Type: colfile.Int64}, {Name: "f", Type: colfile.Float64}}
	b := colfile.NewBatch(schema)
	for _, row := range [][2]any{{int64(1), 1.0}, {int64(2), 2.5}, {int64(-3), -0.0}, {nil, nil}} {
		if err := b.AppendRow(row[0], row[1]); err != nil {
			t.Fatal(err)
		}
	}
	i, f := ColRef{Idx: 0, Name: "i"}, ColRef{Idx: 1, Name: "f"}
	for _, c := range []struct {
		e    Expr
		want []any // per row
	}{
		{InList{E: f, Vals: []any{int64(1)}}, []any{true, false, false, nil}},
		{InList{E: i, Vals: []any{1.0}}, []any{true, false, false, nil}},
		{InList{E: i, Vals: []any{1.5}}, []any{false, false, false, nil}},
		{InList{E: i, Vals: []any{2.5, int64(-3)}}, []any{false, false, true, nil}},
		{InList{E: i, Vals: []any{1.0, int64(2)}, Negate: true}, []any{false, false, true, nil}},
		{InList{E: f, Vals: []any{int64(0), 2.5}}, []any{false, true, true, nil}}, // -0 = 0
		{InList{E: f, Vals: []any{int64(1), nil}, Negate: true}, []any{false, nil, nil, nil}},
		{InList{E: i, Vals: []any{"1", 1.5}}, []any{false, false, false, nil}},
	} {
		for name, eval := range map[string]func(Expr, *colfile.Batch) (*colfile.Vec, error){"kernel": evalVector, "reference": evalScalar} {
			got, err := eval(c.e, b)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.e, err)
			}
			for r, w := range c.want {
				if g := got.Value(r); g != w {
					t.Errorf("%s %s: row %d = %v, want %v", name, c.e, r, g, w)
				}
			}
		}
	}
}
