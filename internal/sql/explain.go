package sql

// EXPLAIN: the renderer of a selectPlan. It reads the plan value planSelect
// returned — never the statement — so the text it prints describes exactly
// what runSelect would open and run.

import (
	"fmt"
	"strconv"
	"strings"

	"polaris/internal/colfile"
	"polaris/internal/core"
	"polaris/internal/exec"
)

// runExplain plans a SELECT without executing it and renders the plan — the
// value runSelect would open and run — as a one-column batch, one operator per
// row in execution order: the base scan first, then each join build, then the
// residual filter and the statement tail. A statement that cannot be planned
// returns the error executing it would. The text is deterministic for a fixed
// snapshot (estimates come from the merged sketches), so golden tests can pin
// it.
func runExplain(tx *core.Txn, st *SelectStmt) (*Result, error) {
	p, err := planSelect(tx, st)
	if err != nil {
		return nil, err
	}
	schema := colfile.Schema{{Name: "plan", Type: colfile.String}}
	b := colfile.NewBatch(schema)
	for _, line := range p.describe() {
		if err := b.AppendRow(line); err != nil {
			return nil, err
		}
	}
	return &Result{Batch: b}, nil
}

// describe renders the plan, one line per operator.
func (p *selectPlan) describe() []string {
	var lines []string

	// The probe-base scan: projected columns, pushed predicates, the
	// estimated output cardinality, and the stage runner.
	line := "scan " + p.base.describe() + " [est=" + p.base.estString() + "]"
	if p.dag {
		line += " [dag]"
	}
	lines = append(lines, line)
	// One line per join build: the build relation, the key condition, the
	// join type, whether a bloom runtime filter prunes the probe side, and
	// whether cost-based reordering moved this build relative to the
	// syntactic statement.
	for _, j := range p.joins {
		line := "join build " + j.build.describe() + " [on=" + exprString(j.on) + "]"
		if j.typ == exec.LeftOuterJoin {
			line += " [left outer]"
		} else {
			line += " [inner, bloom]"
		}
		line += " [est=" + j.build.estString() + "]"
		if j.reordered {
			line += " [reordered]"
		}
		lines = append(lines, line)
	}
	if p.where != nil {
		lines = append(lines, "filter "+exprString(p.where))
	}
	if p.tail.agg != nil {
		var groups []string
		for _, g := range p.groupBy {
			groups = append(groups, exprString(g))
		}
		line := "aggregate"
		if len(groups) > 0 {
			line += " [groups=" + strings.Join(groups, ", ") + "]"
		}
		if p.having != nil {
			line += " [having=" + exprString(p.having) + "]"
		}
		lines = append(lines, line)
	}
	if len(p.orderBy) > 0 {
		var keys []string
		for _, o := range p.orderBy {
			k := exprString(o.Expr)
			if o.Desc {
				k += " DESC"
			}
			keys = append(keys, k)
		}
		lines = append(lines, "sort ["+strings.Join(keys, ", ")+"]")
	}
	if p.limit >= 0 {
		line := "limit " + strconv.FormatInt(p.limit, 10)
		if p.offset > 0 {
			line += " offset " + strconv.FormatInt(p.offset, 10)
		}
		lines = append(lines, line)
	}
	var names []string
	for _, it := range p.items {
		if it.Star {
			names = append(names, "*")
			continue
		}
		if n := itemName(it); n != "" {
			names = append(names, n)
		} else {
			names = append(names, exprString(it.Expr))
		}
	}
	lines = append(lines, "project ["+strings.Join(names, ", ")+"]")
	return lines
}

// describe renders a relation's scan: the table, its projected columns and
// the conjunction pushed into it.
func (r *relation) describe() string {
	s := refString(r.ref)
	if r.cols != nil {
		s += " [cols=" + strings.Join(r.cols, ", ") + "]"
	}
	if r.pushed != nil {
		s += " [pushed=" + exprString(r.pushed) + "]"
	}
	return s
}

// estString formats a relation's estimated post-filter cardinality.
func (r *relation) estString() string {
	return strconv.FormatInt(int64(r.est+0.5), 10) + " rows"
}

func refString(ref TableRef) string {
	if ref.Alias != "" && !strings.EqualFold(ref.Alias, ref.Name) {
		return ref.Name + " AS " + ref.Alias
	}
	return ref.Name
}

// exprString renders an AST expression for plan output. Binary operations
// are parenthesized, which keeps the rendering unambiguous and stable.
func exprString(e Expr) string {
	switch x := e.(type) {
	case ColName:
		return displayName(x)
	case Lit:
		return litString(x.Val)
	case BinExpr:
		return "(" + exprString(x.L) + " " + x.Op + " " + exprString(x.R) + ")"
	case NotExpr:
		return "NOT " + exprString(x.E)
	case IsNullExpr:
		if x.Negate {
			return exprString(x.E) + " IS NOT NULL"
		}
		return exprString(x.E) + " IS NULL"
	case LikeExpr:
		op := " LIKE "
		if x.Negate {
			op = " NOT LIKE "
		}
		return exprString(x.E) + op + litString(x.Pattern)
	case InExpr:
		var vals []string
		for _, v := range x.Vals {
			vals = append(vals, litString(v))
		}
		op := " IN ("
		if x.Negate {
			op = " NOT IN ("
		}
		return exprString(x.E) + op + strings.Join(vals, ", ") + ")"
	case BetweenExpr:
		return exprString(x.E) + " BETWEEN " + exprString(x.Lo) + " AND " + exprString(x.Hi)
	case FuncExpr:
		if x.Star {
			return x.Name + "(*)"
		}
		return x.Name + "(" + exprString(x.Arg) + ")"
	}
	return fmt.Sprintf("%v", e)
}

func litString(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return "'" + x + "'"
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprintf("%v", v)
}
