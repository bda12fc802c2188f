package exec

// The scalar references. First the evaluator: a row-at-a-time Type/Eval pair
// per Expr node that the golden equivalence suite (vector_test.go) and
// FuzzKernelEquivalence compare compiled programs against — same values, same
// NULLs, same error strings. It is test-only: production code makes an Expr
// executable through Compile and nothing else. The reference is total: a tree
// Compile rejects is rejected here with the same message, never a panic. Then,
// at the end of the file, the reference aggregator and nested-loop join the
// operators are compared against.

import (
	"fmt"
	"math"
	"strings"

	"polaris/internal/colfile"
)

// refExpr is what every Expr node implements in the test build.
type refExpr interface {
	// Type reports the result type given the input schema, with Compile's
	// static errors in Compile's order (operands left to right, then the
	// node itself).
	Type(schema colfile.Schema) (colfile.DataType, error)
	// Eval computes the expression for every row of a dense batch.
	Eval(b *colfile.Batch) (*colfile.Vec, error)
}

func refType(e Expr, schema colfile.Schema) (colfile.DataType, error) {
	return e.(refExpr).Type(schema)
}

func refEval(e Expr, b *colfile.Batch) (*colfile.Vec, error) {
	return e.(refExpr).Eval(b)
}

// Type implements refExpr.
func (c ColRef) Type(schema colfile.Schema) (colfile.DataType, error) {
	if c.Idx < 0 || c.Idx >= len(schema) {
		return 0, fmt.Errorf("exec: column %d out of range", c.Idx)
	}
	return schema[c.Idx].Type, nil
}

// Eval implements refExpr.
func (c ColRef) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	if c.Idx < 0 || c.Idx >= len(b.Cols) {
		return nil, fmt.Errorf("exec: column %d out of range", c.Idx)
	}
	return b.Cols[c.Idx], nil
}

// Type implements refExpr.
func (c Const) Type(colfile.Schema) (colfile.DataType, error) { return constType(c.Val) }

// Eval implements refExpr.
func (c Const) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	n := b.NumRows()
	t, err := c.Type(nil)
	if err != nil {
		return nil, err
	}
	v := colfile.NewVec(t)
	for i := 0; i < n; i++ {
		if err := v.AppendValue(normalize(c.Val)); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Type implements refExpr.
func (e Bin) Type(schema colfile.Schema) (colfile.DataType, error) {
	lt, err := refType(e.L, schema)
	if err != nil {
		return 0, err
	}
	rt, err := refType(e.R, schema)
	if err != nil {
		return 0, err
	}
	switch {
	case e.Kind.IsComparison():
		return colfile.Bool, nil
	case e.Kind.IsLogical():
		if lt == colfile.Bool && rt == colfile.Bool {
			return colfile.Bool, nil
		}
	case lt == colfile.Float64 || rt == colfile.Float64:
		return colfile.Float64, nil // arithmetic: float wins over int
	case lt == colfile.Int64 && rt == colfile.Int64:
		return colfile.Int64, nil
	case lt == colfile.String && rt == colfile.String && e.Kind == OpAdd:
		return colfile.String, nil // concatenation
	}
	return 0, fmt.Errorf("exec: cannot apply %s to %s and %s", binNames[e.Kind], lt, rt)
}

// Eval implements refExpr. The static check runs first, so a type error
// anywhere below wins over a data-dependent error, as it does in Compile.
func (e Bin) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	outType, err := e.Type(b.Schema)
	if err != nil {
		return nil, err
	}
	lv, err := refEval(e.L, b)
	if err != nil {
		return nil, err
	}
	rv, err := refEval(e.R, b)
	if err != nil {
		return nil, err
	}
	n := b.NumRows()
	out := colfile.NewVec(outType)
	for i := 0; i < n; i++ {
		if lv.IsNull(i) || rv.IsNull(i) {
			out.AppendNull() // SQL three-valued logic collapses to NULL
			continue
		}
		switch {
		case e.Kind.IsLogical():
			out.AppendBool(evalLogical(e.Kind, lv.Bools[i], rv.Bools[i]))
		case e.Kind.IsComparison():
			cmp, err := compareAt(lv, rv, i)
			if err != nil {
				return nil, err
			}
			out.AppendBool(cmpToBool(e.Kind, cmp))
		default:
			if err := evalArith(e.Kind, lv, rv, i, out); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func evalLogical(k BinKind, l, r bool) bool {
	if k == OpAnd {
		return l && r
	}
	return l || r
}

// compareAt compares position i of two vectors, coercing int/float.
func compareAt(l, r *colfile.Vec, i int) (int, error) {
	if l.Type == r.Type {
		switch l.Type {
		case colfile.Int64:
			return cmpOrd(l.Ints[i], r.Ints[i]), nil
		case colfile.Float64:
			return cmpOrd(l.Floats[i], r.Floats[i]), nil
		case colfile.String:
			return strings.Compare(l.Strs[i], r.Strs[i]), nil
		case colfile.Bool:
			return cmpOrd(b2i(l.Bools[i]), b2i(r.Bools[i])), nil
		}
	}
	lf, lok := numAt(l, i)
	rf, rok := numAt(r, i)
	if lok && rok {
		return cmpOrd(lf, rf), nil
	}
	return 0, fmt.Errorf("exec: cannot compare %s and %s", l.Type, r.Type)
}

func numAt(v *colfile.Vec, i int) (float64, bool) {
	switch v.Type {
	case colfile.Int64:
		return float64(v.Ints[i]), true
	case colfile.Float64:
		return v.Floats[i], true
	}
	return 0, false
}

func evalArith(k BinKind, l, r *colfile.Vec, i int, out *colfile.Vec) error {
	if out.Type == colfile.String {
		out.AppendStr(l.Strs[i] + r.Strs[i])
		return nil
	}
	if out.Type == colfile.Int64 {
		a, b := l.Ints[i], r.Ints[i]
		switch k {
		case OpAdd:
			out.AppendInt(a + b)
		case OpSub:
			out.AppendInt(a - b)
		case OpMul:
			out.AppendInt(a * b)
		case OpDiv:
			if b == 0 {
				return fmt.Errorf("exec: integer division by zero")
			}
			out.AppendInt(a / b)
		case OpMod:
			if b == 0 {
				return fmt.Errorf("exec: modulo by zero")
			}
			out.AppendInt(a % b)
		default:
			return fmt.Errorf("exec: bad int arith %s", binNames[k])
		}
		return nil
	}
	a, _ := numAt(l, i)
	b, _ := numAt(r, i)
	switch k {
	case OpAdd:
		out.AppendFloat(a + b)
	case OpSub:
		out.AppendFloat(a - b)
	case OpMul:
		out.AppendFloat(a * b)
	case OpDiv:
		if b == 0 {
			return fmt.Errorf("exec: division by zero")
		}
		out.AppendFloat(a / b)
	default:
		return fmt.Errorf("exec: bad float arith %s", binNames[k])
	}
	return nil
}

// Type implements refExpr.
func (n Not) Type(schema colfile.Schema) (colfile.DataType, error) {
	t, err := refType(n.E, schema)
	if err != nil {
		return 0, err
	}
	if t != colfile.Bool {
		return 0, fmt.Errorf("exec: NOT of %s", t)
	}
	return colfile.Bool, nil
}

// Eval implements refExpr.
func (n Not) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	if _, err := n.Type(b.Schema); err != nil {
		return nil, err
	}
	v, err := refEval(n.E, b)
	if err != nil {
		return nil, err
	}
	out := colfile.NewVec(colfile.Bool)
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			out.AppendNull()
		} else {
			out.AppendBool(!v.Bools[i])
		}
	}
	return out, nil
}

// Type implements refExpr.
func (e IsNull) Type(schema colfile.Schema) (colfile.DataType, error) {
	if _, err := refType(e.E, schema); err != nil {
		return 0, err
	}
	return colfile.Bool, nil
}

// Eval implements refExpr.
func (e IsNull) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	if _, err := e.Type(b.Schema); err != nil {
		return nil, err
	}
	v, err := refEval(e.E, b)
	if err != nil {
		return nil, err
	}
	out := colfile.NewVec(colfile.Bool)
	for i := 0; i < v.Len(); i++ {
		out.AppendBool(v.IsNull(i) != e.Negate)
	}
	return out, nil
}

// Type implements refExpr.
func (e Like) Type(schema colfile.Schema) (colfile.DataType, error) {
	t, err := refType(e.E, schema)
	if err != nil {
		return 0, err
	}
	if t != colfile.String {
		return 0, fmt.Errorf("exec: LIKE over %s", t)
	}
	return colfile.Bool, nil
}

// Eval implements refExpr.
func (e Like) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	if _, err := e.Type(b.Schema); err != nil {
		return nil, err
	}
	v, err := refEval(e.E, b)
	if err != nil {
		return nil, err
	}
	out := colfile.NewVec(colfile.Bool)
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			out.AppendNull()
			continue
		}
		out.AppendBool(likeMatch(v.Strs[i], e.Pattern))
	}
	return out, nil
}

// likeMatch supports % (any run) and _ (any single char).
func likeMatch(s, pat string) bool {
	// dynamic programming over pattern segments
	var match func(si, pi int) bool
	memo := make(map[[2]int]bool)
	match = func(si, pi int) bool {
		key := [2]int{si, pi}
		if v, ok := memo[key]; ok {
			return v
		}
		var res bool
		switch {
		case pi == len(pat):
			res = si == len(s)
		case pat[pi] == '%':
			res = match(si, pi+1) || (si < len(s) && match(si+1, pi))
		case si < len(s) && (pat[pi] == '_' || pat[pi] == s[si]):
			res = match(si+1, pi+1)
		}
		memo[key] = res
		return res
	}
	return match(0, 0)
}

// Type implements refExpr.
func (e InList) Type(schema colfile.Schema) (colfile.DataType, error) {
	if _, err := refType(e.E, schema); err != nil {
		return 0, err
	}
	return colfile.Bool, nil
}

// Eval implements refExpr.
func (e InList) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	if _, err := e.Type(b.Schema); err != nil {
		return nil, err
	}
	v, err := refEval(e.E, b)
	if err != nil {
		return nil, err
	}
	set := make(map[any]bool, len(e.Vals))
	for _, x := range e.Vals {
		set[normalize(x)] = true
	}
	out := colfile.NewVec(colfile.Bool)
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			out.AppendNull()
			continue
		}
		out.AppendBool(set[v.Value(i)] != e.Negate)
	}
	return out, nil
}

// The scalar reference operators: a row-at-a-time aggregator and a
// nested-loop join over boxed values, sharing nothing with HashAgg, MergeAgg,
// JoinTable or the key encoding — groups and join matches are found by
// comparing values, never bytes. The differential test and FuzzAggEquivalence
// (agg_join_test.go, fuzz_test.go) hold the operators to them.

// refAgg is one aggregate of the reference: kind over input column col
// (ignored for COUNT(*)).
type refAgg struct {
	kind AggKind
	col  int
}

// refSame is group and join-key equality: NULL equals NULL here (the join
// excludes NULL keys before asking), and floats are the same value only when
// they are the same bits, as the key encoding has it (-0 and +0 are two
// groups).
func refSame(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		return math.Float64bits(af) == math.Float64bits(bf)
	}
	return a == b
}

// refLess orders two non-NULL values of one type the way MIN and MAX do.
func refLess(a, b any) bool {
	switch x := a.(type) {
	case int64:
		return x < b.(int64)
	case float64:
		return x < b.(float64)
	case string:
		return x < b.(string)
	case bool:
		return !x && b.(bool)
	}
	return false
}

// refAggregate groups rows by the values of groupCols and computes aggs one
// row at a time. It returns one row per group, [group values..., aggregate
// values...], groups in first-seen order.
func refAggregate(rows [][]any, groupCols []int, aggs []refAgg) [][]any {
	type state struct {
		count int64
		sumI  int64
		sumF  float64
		float bool
		mm    any
	}
	var keys [][]any
	var states [][]state
	for _, row := range rows {
		g := -1
		for i, k := range keys {
			same := true
			for j, c := range groupCols {
				same = same && refSame(k[j], row[c])
			}
			if same {
				g = i
				break
			}
		}
		if g < 0 {
			k := make([]any, len(groupCols))
			for j, c := range groupCols {
				k[j] = row[c]
			}
			keys, states = append(keys, k), append(states, make([]state, len(aggs)))
			g = len(keys) - 1
		}
		for i, a := range aggs {
			st := &states[g][i]
			if a.kind == AggCountStar {
				st.count++
				continue
			}
			v := row[a.col]
			if v == nil {
				continue
			}
			st.count++
			switch a.kind {
			case AggSum, AggAvg:
				switch x := v.(type) {
				case int64:
					st.sumI += x
					st.sumF += float64(x)
				case float64:
					st.float = true
					st.sumF += x
				}
			case AggMin:
				if st.mm == nil || refLess(v, st.mm) {
					st.mm = v
				}
			case AggMax:
				if st.mm == nil || refLess(st.mm, v) {
					st.mm = v
				}
			}
		}
	}
	if len(groupCols) == 0 && len(keys) == 0 {
		keys, states = append(keys, nil), append(states, make([]state, len(aggs)))
	}
	out := make([][]any, len(keys))
	for g, k := range keys {
		row := append([]any(nil), k...)
		for i, a := range aggs {
			st := states[g][i]
			switch {
			case a.kind == AggCount || a.kind == AggCountStar:
				row = append(row, st.count)
			case a.kind == AggMin || a.kind == AggMax:
				row = append(row, st.mm)
			case st.count == 0:
				row = append(row, nil)
			case a.kind == AggAvg:
				row = append(row, st.sumF/float64(st.count))
			case st.float:
				row = append(row, st.sumF)
			default:
				row = append(row, st.sumI)
			}
		}
		out[g] = row
	}
	return out
}

// refJoin is the nested-loop equi-join: probe rows in order, each against the
// build rows in order; a NULL on either side of any key column never matches.
func refJoin(probe, build [][]any, probeKeys, buildKeys []int, typ JoinType, buildWidth int) [][]any {
	var out [][]any
	for _, l := range probe {
		matched := false
		for _, r := range build {
			match := true
			for i := range probeKeys {
				lv, rv := l[probeKeys[i]], r[buildKeys[i]]
				match = match && lv != nil && rv != nil && refSame(lv, rv)
			}
			if !match {
				continue
			}
			matched = true
			if typ == SemiJoin {
				break
			}
			out = append(out, append(append([]any(nil), l...), r...))
		}
		switch {
		case typ == SemiJoin && matched:
			out = append(out, append([]any(nil), l...))
		case typ == LeftOuterJoin && !matched:
			out = append(out, append(append([]any(nil), l...), make([]any, buildWidth)...))
		}
	}
	return out
}
