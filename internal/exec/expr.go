// Package exec implements the vectorized query execution operators the SQL
// Server BE contributes in the paper's architecture (Sections 2.3, 3.3):
// columnar scans over immutable data files with deletion-vector filtering and
// zone-map pruning, plus filter, project, hash join, hash aggregation, sort
// and limit operators working batch-at-a-time over colfile vectors.
//
// Expressions have exactly one executable form: Compile lowers an Expr tree
// to a kernel program (Prog, immutable and shared across workers, with
// per-worker EvalCtx scratch) or fails with the statement's type error.
// Filter, Project and HashAgg are configured with Progs only; filters pass
// selection vectors (colfile.Batch.Sel) instead of materialized copies. The
// normative kernel contract — catalog, selection and NULL semantics, aliasing
// rules, and observational equivalence with the test-only reference
// evaluator (reference_test.go) — is docs/VECTORIZATION.md.
package exec

import (
	"fmt"

	"polaris/internal/colfile"
)

// Expr is an unevaluated expression tree over a batch's columns. A tree is
// made executable by Compile and in no other way; the node types are the ones
// declared in this file.
type Expr interface {
	// String renders the expression for plan display and default output
	// column names.
	String() string
}

// ColRef references an input column by index.
type ColRef struct {
	Idx  int
	Name string // display only
}

// String implements Expr.
func (c ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal value.
type Const struct {
	Val any // int64, float64, string, bool, or nil
}

// constType reports a literal's vector type (a typed NULL defaults to int).
func constType(val any) (colfile.DataType, error) {
	switch val.(type) {
	case int64, int:
		return colfile.Int64, nil
	case float64:
		return colfile.Float64, nil
	case string:
		return colfile.String, nil
	case bool:
		return colfile.Bool, nil
	case nil:
		return colfile.Int64, nil
	default:
		return 0, fmt.Errorf("exec: unsupported literal %T", val)
	}
}

func normalize(x any) any {
	if i, ok := x.(int); ok {
		return int64(i)
	}
	return x
}

// String implements Expr.
func (c Const) String() string {
	if s, ok := c.Val.(string); ok {
		return "'" + s + "'"
	}
	return fmt.Sprintf("%v", c.Val)
}

// BinKind is a binary operator kind.
type BinKind int

// Binary operators.
const (
	OpAdd BinKind = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binNames = map[BinKind]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// Bin is a binary expression.
type Bin struct {
	Kind BinKind
	L, R Expr
}

// IsComparison reports whether the operator yields a boolean.
func (k BinKind) IsComparison() bool { return k >= OpEq && k <= OpGe }

// IsLogical reports whether the operator combines booleans.
func (k BinKind) IsLogical() bool { return k == OpAnd || k == OpOr }

// String implements Expr.
func (e Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, binNames[e.Kind], e.R)
}

func cmpOrd[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpToBool(k BinKind, cmp int) bool {
	switch k {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("NOT %s", n.E) }

// IsNull tests for NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// String implements Expr.
func (e IsNull) String() string {
	if e.Negate {
		return fmt.Sprintf("%s IS NOT NULL", e.E)
	}
	return fmt.Sprintf("%s IS NULL", e.E)
}

// Like implements a simple SQL LIKE with % wildcards.
type Like struct {
	E       Expr
	Pattern string
}

// String implements Expr.
func (e Like) String() string { return fmt.Sprintf("%s LIKE '%s'", e.E, e.Pattern) }

// InList tests membership in a literal list.
type InList struct {
	E      Expr
	Vals   []any
	Negate bool
}

// String implements Expr.
func (e InList) String() string {
	op := "IN"
	if e.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%d values)", e.E, op, len(e.Vals))
}
