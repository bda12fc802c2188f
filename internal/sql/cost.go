package sql

// Selectivity estimation: the planner's cost model reduces every predicate
// to a fraction of a table's rows. Estimates only steer plan choice (join
// order, build side, pushdown) — never results — so classic System R style
// magic numbers are an acceptable fallback when the sketches can't resolve a
// predicate.

const (
	// selEqDefault applies to equality predicates on columns with unknown NDV.
	selEqDefault = 0.10
	// selRangeDefault applies to inequalities without usable min/max bounds.
	selRangeDefault = 0.30
	// selLikeDefault applies to LIKE patterns (never estimated from sketches).
	selLikeDefault = 0.25
	// selDefault applies to predicates the model doesn't understand.
	selDefault = 0.33
)

// estimateRows returns the estimated visible-row output of scanning a table
// with the given predicate conjuncts applied (independence assumed).
func estimateRows(ts *tableStats, conjuncts []Expr) float64 {
	rows := float64(ts.rows)
	if rows <= 0 {
		return 0
	}
	sel := 1.0
	for _, c := range conjuncts {
		sel *= selectivity(c, ts)
	}
	est := rows * sel
	if est < 1 {
		est = 1
	}
	return est
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// selectivity estimates the fraction of rows a predicate keeps, using the
// table's merged column sketches where they apply.
func selectivity(e Expr, ts *tableStats) float64 {
	switch x := e.(type) {
	case BinExpr:
		switch x.Op {
		case "AND":
			return clampSel(selectivity(x.L, ts) * selectivity(x.R, ts))
		case "OR":
			a, b := selectivity(x.L, ts), selectivity(x.R, ts)
			return clampSel(a + b - a*b)
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			return cmpSelectivity(x, ts)
		}
		return selDefault
	case NotExpr:
		return clampSel(1 - selectivity(x.E, ts))
	case IsNullExpr:
		if c, ok := x.E.(ColName); ok {
			if sk, ok := ts.colSketch(c.Name); ok && sk.Rows > 0 {
				frac := float64(sk.Stats.NullCount) / float64(sk.Rows)
				if x.Negate {
					frac = 1 - frac
				}
				return clampSel(frac)
			}
		}
		if x.Negate {
			return 0.9
		}
		return 0.1
	case LikeExpr:
		if x.Negate {
			return 1 - selLikeDefault
		}
		return selLikeDefault
	case InExpr:
		s := float64(len(x.Vals)) * eqSelectivity(x.E, ts)
		if x.Negate {
			s = 1 - s
		}
		return clampSel(s)
	case BetweenExpr:
		// Lowered at bind time to (>= lo AND <= hi); estimate the same shape.
		a := cmpSelectivity(BinExpr{Op: ">=", L: x.E, R: x.Lo}, ts)
		b := cmpSelectivity(BinExpr{Op: "<=", L: x.E, R: x.Hi}, ts)
		s := a + b - 1 // conjunction of overlapping ranges, not independence
		if s <= 0 {
			s = a * b
		}
		return clampSel(s)
	case Lit:
		if b, ok := x.Val.(bool); ok && !b {
			return 0
		}
		if _, ok := x.Val.(bool); ok {
			return 1
		}
		return selDefault
	case ColName:
		return 0.5 // bare boolean column
	}
	return selDefault
}

// eqSelectivity is the per-value hit fraction of a column: 1/NDV when the
// sketch knows the column, selEqDefault otherwise.
func eqSelectivity(e Expr, ts *tableStats) float64 {
	c, ok := e.(ColName)
	if !ok {
		return selEqDefault
	}
	sk, ok := ts.colSketch(c.Name)
	if !ok || sk.Bitmap == nil || sk.Rows == 0 {
		return selEqDefault
	}
	ndv := sk.NDV()
	if ndv <= 0 {
		return selEqDefault
	}
	return clampSel(1 / float64(ndv))
}

// cmpSelectivity estimates a comparison. Only the col-vs-literal shape (in
// either operand order) is resolved from statistics.
func cmpSelectivity(x BinExpr, ts *tableStats) float64 {
	col, lit, op, ok := normalizeCmp(x)
	if !ok {
		if x.Op == "=" {
			return selEqDefault
		}
		return selRangeDefault
	}
	switch op {
	case "=":
		return eqSelectivity(col, ts)
	case "<>", "!=":
		return clampSel(1 - eqSelectivity(col, ts))
	}
	sk, okSk := ts.colSketch(col.Name)
	if !okSk {
		return selRangeDefault
	}
	if v, isInt := lit.Val.(int64); isInt && sk.Stats.MinInt != nil && sk.Stats.MaxInt != nil {
		return intRangeSel(op, v, *sk.Stats.MinInt, *sk.Stats.MaxInt)
	}
	if v, isF := toF(lit.Val); isF && sk.Stats.MinFloat != nil && sk.Stats.MaxFloat != nil {
		return floatRangeSel(op, v, *sk.Stats.MinFloat, *sk.Stats.MaxFloat)
	}
	return selRangeDefault
}

// normalizeCmp rewrites a comparison so the column is on the left, flipping
// the operator when the literal was.
func normalizeCmp(x BinExpr) (ColName, Lit, string, bool) {
	if c, ok := x.L.(ColName); ok {
		if l, ok := x.R.(Lit); ok {
			return c, l, x.Op, true
		}
	}
	if l, ok := x.L.(Lit); ok {
		if c, ok := x.R.(ColName); ok {
			flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>", "!=": "!="}
			return c, l, flip[x.Op], true
		}
	}
	return ColName{}, Lit{}, "", false
}

// intRangeSel interpolates an inequality over the column's [lo, hi] integer
// value range, assuming a uniform distribution.
func intRangeSel(op string, v, lo, hi int64) float64 {
	width := float64(hi-lo) + 1
	if width <= 0 {
		return selRangeDefault
	}
	switch op {
	case "<":
		return clampSel(float64(v-lo) / width)
	case "<=":
		return clampSel(float64(v-lo+1) / width)
	case ">":
		return clampSel(float64(hi-v) / width)
	case ">=":
		return clampSel(float64(hi-v+1) / width)
	}
	return selRangeDefault
}

func floatRangeSel(op string, v, lo, hi float64) float64 {
	width := hi - lo
	if width <= 0 {
		return selRangeDefault
	}
	switch op {
	case "<", "<=":
		return clampSel((v - lo) / width)
	case ">", ">=":
		return clampSel((hi - v) / width)
	}
	return selRangeDefault
}

// exprCanError reports whether evaluating the expression can raise a runtime
// error (division or modulo by zero). Only error-free predicates may be
// pushed into a scan: a pushed predicate runs over rows a residual Filter
// would never have seen, so an error there would surface spuriously.
func exprCanError(e Expr) bool {
	switch x := e.(type) {
	case BinExpr:
		if x.Op == "/" || x.Op == "%" {
			return true
		}
		return exprCanError(x.L) || exprCanError(x.R)
	case NotExpr:
		return exprCanError(x.E)
	case IsNullExpr:
		return exprCanError(x.E)
	case LikeExpr:
		return exprCanError(x.E)
	case InExpr:
		return exprCanError(x.E)
	case BetweenExpr:
		return exprCanError(x.E) || exprCanError(x.Lo) || exprCanError(x.Hi)
	case FuncExpr:
		return x.Arg != nil && exprCanError(x.Arg)
	}
	return false
}
