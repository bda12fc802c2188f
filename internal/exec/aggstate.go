package exec

import (
	"cmp"
	"fmt"
	"strings"

	"polaris/internal/colfile"
)

// aggCol is the state of one aggregate over every group of an aggregation:
// slices indexed by group id (docs/VECTORIZATION.md, "Aggregation and join
// tables"). Which slices exist is fixed by the aggregate and the static type
// of what it folds — COUNT a count; SUM a count and an int or a float sum;
// AVG a count and a float sum; MIN/MAX a seen flag and one typed value — so
// the fold loops branch on nothing per row but the NULL bitmap. A batch is
// folded one aggregate at a time, each in row order, so every group's float
// additions happen in the order its rows arrive.
type aggCol struct {
	kind  AggKind
	typ   colfile.DataType // of the folded value: the argument, or the partial value column
	count []int64
	sumI  []int64
	sumF  []float64
	seen  []bool
	mmI   []int64
	mmF   []float64
	mmS   []string
	mmB   []bool
}

// OutType is the aggregate's result type, and the one place an aggregate is
// type-checked: SUM and AVG take a numeric argument, every aggregate but
// COUNT(*) takes one. The SQL planner calls it as it builds each AggSpec, so
// an ill-typed aggregate is the statement's plan-time error; HashAgg calls it
// before it pulls its first batch.
func (a AggSpec) OutType() (colfile.DataType, error) {
	if a.Kind == AggCountStar {
		return colfile.Int64, nil
	}
	if a.Arg == nil {
		return 0, fmt.Errorf("exec: %s without an argument", strings.ToUpper(aggNames[a.Kind]))
	}
	t := a.Arg.OutType()
	switch a.Kind {
	case AggSum, AggAvg:
		if !isNumeric(t) {
			return 0, fmt.Errorf("exec: %s over %s", strings.ToUpper(aggNames[a.Kind]), t)
		}
		if a.Kind == AggAvg {
			return colfile.Float64, nil
		}
		return t, nil
	case AggMin, AggMax:
		return t, nil
	}
	return colfile.Int64, nil // COUNT(arg)
}

// grow extends the state to n groups; new groups start empty.
func (c *aggCol) grow(n int) {
	switch c.kind {
	case AggCount, AggCountStar:
		c.count = growTo(c.count, n)
	case AggSum:
		c.count = growTo(c.count, n)
		if c.typ == colfile.Float64 {
			c.sumF = growTo(c.sumF, n)
		} else {
			c.sumI = growTo(c.sumI, n)
		}
	case AggAvg:
		c.count = growTo(c.count, n)
		c.sumF = growTo(c.sumF, n)
	case AggMin, AggMax:
		c.seen = growTo(c.seen, n)
		switch c.typ {
		case colfile.Int64:
			c.mmI = growTo(c.mmI, n)
		case colfile.Float64:
			c.mmF = growTo(c.mmF, n)
		case colfile.String:
			c.mmS = growTo(c.mmS, n)
		case colfile.Bool:
			c.mmB = growTo(c.mmB, n)
		}
	}
}

// growTo returns s extended with zero values to length n, doubling capacity
// when it has to move.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		grown := make([]T, len(s), max(n, 2*cap(s)))
		copy(grown, s)
		s = grown
	}
	old := len(s)
	s = s[:n]
	clear(s[old:])
	return s
}

// fold accumulates one batch of raw argument values: logical row r (physical
// lane sel[r], or r when sel is nil) belongs to group ids[r]. NULL arguments
// are skipped; COUNT(*) has no argument and counts every row.
//
//polaris:kernel lanes are addressed through sel (or dense [0,n)), the translation the caller's batch carries
func (c *aggCol) fold(v *colfile.Vec, sel []int, ids []int32) {
	switch c.kind {
	case AggCountStar:
		for _, g := range ids {
			c.count[g]++
		}
	case AggCount:
		if v.Nulls == nil {
			for _, g := range ids {
				c.count[g]++
			}
			return
		}
		for r, g := range ids {
			if !v.Nulls[lane(sel, r)] {
				c.count[g]++
			}
		}
	case AggSum:
		if c.typ == colfile.Float64 {
			foldSum(c.sumF, c.count, v.Floats, v.Nulls, sel, ids)
		} else {
			foldSum(c.sumI, c.count, v.Ints, v.Nulls, sel, ids)
		}
	case AggAvg:
		// AVG over integers adds each value as a float, not the integer sum
		// converted once: the additions and their order are the contract.
		if c.typ == colfile.Float64 {
			foldSum(c.sumF, c.count, v.Floats, v.Nulls, sel, ids)
		} else {
			foldSum(c.sumF, c.count, v.Ints, v.Nulls, sel, ids)
		}
	case AggMin, AggMax:
		c.foldMinMax(v, sel, ids)
	}
}

// merge accumulates one batch of partial states (HashAgg{Partial: true}
// output): val is the aggregate's value column and cnt, for SUM and AVG, the
// non-NULL count column beside it. A partial sum whose count is zero carries
// no value and adds nothing.
//
//polaris:kernel lanes are addressed through sel (or dense [0,n)), the translation the caller's batch carries
func (c *aggCol) merge(val, cnt *colfile.Vec, sel []int, ids []int32) {
	switch c.kind {
	case AggCount, AggCountStar:
		for r, g := range ids {
			c.count[g] += val.Ints[lane(sel, r)]
		}
	case AggSum, AggAvg:
		for r, g := range ids {
			p := lane(sel, r)
			n := cnt.Ints[p]
			c.count[g] += n
			if n == 0 {
				continue
			}
			if c.typ == colfile.Float64 {
				c.sumF[g] += val.Floats[p]
			} else {
				c.sumI[g] += val.Ints[p]
			}
		}
	case AggMin, AggMax:
		c.foldMinMax(val, sel, ids) // a NULL partial saw no value for the group
	}
}

// lane maps logical row r to its physical position.
func lane(sel []int, r int) int {
	if sel != nil {
		return sel[r]
	}
	return r
}

// foldSum adds every non-NULL lane to its group's sum and bumps the group's
// non-NULL count.
func foldSum[S, T int64 | float64](sum []S, count []int64, vals []T, nulls []bool, sel []int, ids []int32) {
	for r, g := range ids {
		p := lane(sel, r)
		if nulls != nil && nulls[p] {
			continue
		}
		count[g]++
		sum[g] += S(vals[p])
	}
}

//polaris:kernel lanes are addressed through sel (or dense [0,n)), the translation the caller's batch carries
func (c *aggCol) foldMinMax(v *colfile.Vec, sel []int, ids []int32) {
	isMax := c.kind == AggMax
	switch c.typ {
	case colfile.Int64:
		foldOrdered(c.mmI, c.seen, v.Ints, v.Nulls, sel, ids, isMax)
	case colfile.Float64:
		foldOrdered(c.mmF, c.seen, v.Floats, v.Nulls, sel, ids, isMax)
	case colfile.String:
		foldOrdered(c.mmS, c.seen, v.Strs, v.Nulls, sel, ids, isMax)
	case colfile.Bool:
		for r, g := range ids {
			p := lane(sel, r)
			if v.Nulls != nil && v.Nulls[p] {
				continue
			}
			// false < true: MIN keeps a false, MAX a true.
			if x := v.Bools[p]; !c.seen[g] || (x == isMax && c.mmB[g] != isMax) {
				c.seen[g], c.mmB[g] = true, x
			}
		}
	}
}

// foldOrdered keeps, per group, the smallest (or with isMax the largest)
// non-NULL lane; the first value seen stays on a tie.
func foldOrdered[T cmp.Ordered](mm []T, seen []bool, vals []T, nulls []bool, sel []int, ids []int32, isMax bool) {
	for r, g := range ids {
		p := lane(sel, r)
		if nulls != nil && nulls[p] {
			continue
		}
		x := vals[p]
		if !seen[g] || (isMax && x > mm[g]) || (!isMax && x < mm[g]) {
			seen[g], mm[g] = true, x
		}
	}
}

// partialCols renders the mergeable state as dense columns, one row per group
// id: the running value, plus the non-NULL count for SUM and AVG (so the merge
// can tell "all NULL" from zero). The columns alias the state.
func (c *aggCol) partialCols() []*colfile.Vec {
	switch c.kind {
	case AggSum:
		return []*colfile.Vec{c.sumCol(), {Type: colfile.Int64, Ints: c.count}}
	case AggAvg:
		return []*colfile.Vec{{Type: colfile.Float64, Floats: c.sumF}, {Type: colfile.Int64, Ints: c.count}}
	}
	return []*colfile.Vec{c.finalCol()}
}

// finalCol renders the aggregate's result column, one row per group id. The
// column aliases — and for AVG overwrites — the state, which is finished.
func (c *aggCol) finalCol() *colfile.Vec {
	switch c.kind {
	case AggSum:
		return c.sumCol()
	case AggAvg:
		for g, n := range c.count {
			if n > 0 {
				c.sumF[g] /= float64(n)
			}
		}
		return &colfile.Vec{Type: colfile.Float64, Floats: c.sumF, Nulls: nullsWhere(c.count, 0)}
	case AggMin, AggMax:
		out := &colfile.Vec{Type: c.typ, Ints: c.mmI, Floats: c.mmF, Strs: c.mmS, Bools: c.mmB}
		out.Nulls = nullsWhere(c.seen, false)
		return out
	}
	return &colfile.Vec{Type: colfile.Int64, Ints: c.count}
}

// sumCol is SUM's value column: NULL for a group that saw no value.
func (c *aggCol) sumCol() *colfile.Vec {
	return &colfile.Vec{Type: c.typ, Ints: c.sumI, Floats: c.sumF, Nulls: nullsWhere(c.count, 0)}
}

// nullsWhere returns a NULL bitmap marking the entries equal to null, or nil
// — "provably no NULLs" — when there is none.
func nullsWhere[T comparable](s []T, null T) []bool {
	for i, x := range s {
		if x == null {
			nulls := make([]bool, len(s))
			for j := i; j < len(s); j++ {
				nulls[j] = s[j] == null
			}
			return nulls
		}
	}
	return nil
}
