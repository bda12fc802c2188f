// Typed vectorized kernels: the batch-at-a-time execution layer compiled
// expression programs (prog.go) are assembled from. One kernel per
// (operator, type) pair, each operating directly on colfile.Vec payload
// slices with no per-value boxing or appends.
//
// The kernel contract is normative in docs/VECTORIZATION.md; the short form:
//
//   - A kernel computes out[i] for every lane i in the selection (sel, a
//     strictly ascending list of physical positions; nil means all lanes
//     [0, n)). Lanes outside the selection are unspecified and must never be
//     read downstream.
//   - Inputs and output are position-aligned: out has the same physical
//     length n as the inputs (the runner pre-sizes it with Vec.ResetLen, so
//     kernels never append or allocate in steady state).
//   - NULLs: unless documented otherwise a kernel is NULL-propagating — an
//     output lane is NULL iff any input lane it read is NULL (the engine's
//     collapsed three-valued logic, identical to the test-only scalar
//     reference in reference_test.go). Value slots of NULL lanes hold unspecified values that
//     faulting kernels (division) must not trap on.
//   - Faulting kernels (integer/float division, modulo) check selected,
//     non-NULL lanes only, and return the same error strings the scalar
//     reference produces.
//   - out never aliases an input vector; l and r may alias each other.
package exec

//polaris:kernelfile the kernel layer itself: every loop here runs behind the sel-translation boundary the contract above defines

import (
	"cmp"

	"polaris/internal/colfile"
)

// kernelFn is one compiled kernel: evaluate l (and r, nil for unary kernels)
// into out at the selected lanes.
type kernelFn func(l, r, out *colfile.Vec, sel []int) error

// binOp is the zero-size operator plugged into generic kernels; generics
// monomorphize over the concrete struct so apply inlines into the lane loop.
type binOp[T, R any] interface{ apply(a, b T) R }

type (
	opEq[T comparable]  struct{}
	opNe[T comparable]  struct{}
	opLt[T cmp.Ordered] struct{}
	opLe[T cmp.Ordered] struct{}
	opGt[T cmp.Ordered] struct{}
	opGe[T cmp.Ordered] struct{}
)

func (opEq[T]) apply(a, b T) bool { return a == b }
func (opNe[T]) apply(a, b T) bool { return a != b }
func (opLt[T]) apply(a, b T) bool { return a < b }
func (opLe[T]) apply(a, b T) bool { return a <= b }
func (opGt[T]) apply(a, b T) bool { return a > b }
func (opGe[T]) apply(a, b T) bool { return a >= b }

type (
	opAdd[T int64 | float64 | string] struct{}
	opSub[T int64 | float64]          struct{}
	opMul[T int64 | float64]          struct{}
)

func (opAdd[T]) apply(a, b T) T { return a + b }
func (opSub[T]) apply(a, b T) T { return a - b }
func (opMul[T]) apply(a, b T) T { return a * b }

// unionNulls installs out's NULL bitmap as the lane-wise union of l's and
// r's (r may be nil). When neither input carries a bitmap, out keeps none —
// the fast path.
func unionNulls(l, r, out *colfile.Vec, sel []int, n int) {
	rHas := r != nil && r.HasNulls()
	if !l.HasNulls() && !rHas {
		return // ResetLen already cleared out.Nulls
	}
	mask := out.NullScratch(n)
	if sel == nil {
		for i := 0; i < n; i++ {
			mask[i] = l.IsNull(i) || (rHas && r.Nulls[i])
		}
		return
	}
	for _, i := range sel {
		mask[i] = l.IsNull(i) || (rHas && r.Nulls[i])
	}
}

// cmpKernel builds a comparison kernel over payload accessor vals and
// operator O: Bool output, NULL-propagating.
func cmpKernel[T any, O binOp[T, bool]](vals func(*colfile.Vec) []T) kernelFn {
	var op O
	return func(l, r, out *colfile.Vec, sel []int) error {
		n := len(out.Bools)
		ls, rs, ob := vals(l), vals(r), out.Bools
		if sel == nil {
			for i := 0; i < n; i++ {
				ob[i] = op.apply(ls[i], rs[i])
			}
		} else {
			for _, i := range sel {
				ob[i] = op.apply(ls[i], rs[i])
			}
		}
		unionNulls(l, r, out, sel, n)
		return nil
	}
}

// arithKernel builds a non-faulting arithmetic kernel (add/sub/mul, string
// concatenation): same-type output, NULL-propagating. NULL lanes hold the
// zero value on both sides, so computing them is safe and branch-free.
func arithKernel[T any, O binOp[T, T]](vals func(*colfile.Vec) []T) kernelFn {
	var op O
	return func(l, r, out *colfile.Vec, sel []int) error {
		os := vals(out)
		n := len(os)
		ls, rs := vals(l), vals(r)
		if sel == nil {
			for i := 0; i < n; i++ {
				os[i] = op.apply(ls[i], rs[i])
			}
		} else {
			for _, i := range sel {
				os[i] = op.apply(ls[i], rs[i])
			}
		}
		unionNulls(l, r, out, sel, n)
		return nil
	}
}

func intVals(v *colfile.Vec) []int64     { return v.Ints }
func floatVals(v *colfile.Vec) []float64 { return v.Floats }
func strVals(v *colfile.Vec) []string    { return v.Strs }
func boolVals(v *colfile.Vec) []bool     { return v.Bools }

// boolCmpKernel compares Bool lanes with the scalar reference's ordering
// (false < true, via b2i).
func boolCmpKernel(kind BinKind) kernelFn {
	return func(l, r, out *colfile.Vec, sel []int) error {
		n := len(out.Bools)
		ls, rs, ob := l.Bools, r.Bools, out.Bools
		body := func(i int) {
			ob[i] = cmpToBool(kind, cmpOrd(b2i(ls[i]), b2i(rs[i])))
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				body(i)
			}
		} else {
			for _, i := range sel {
				body(i)
			}
		}
		unionNulls(l, r, out, sel, n)
		return nil
	}
}

// divModKernel is the faulting integer division/modulo kernel: it skips NULL
// lanes (a NULL divisor must not trap) and errors on a zero divisor with the
// scalar reference's message.
func divModKernel(mod bool) kernelFn {
	return func(l, r, out *colfile.Vec, sel []int) error {
		os := out.Ints
		n := len(os)
		ls, rs := l.Ints, r.Ints
		unionNulls(l, r, out, sel, n)
		body := func(i int) error {
			if out.IsNull(i) {
				return nil
			}
			if rs[i] == 0 {
				if mod {
					return errModZero
				}
				return errDivZero
			}
			if mod {
				os[i] = ls[i] % rs[i]
			} else {
				os[i] = ls[i] / rs[i]
			}
			return nil
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				if err := body(i); err != nil {
					return err
				}
			}
			return nil
		}
		for _, i := range sel {
			if err := body(i); err != nil {
				return err
			}
		}
		return nil
	}
}

// floatDivKernel is the faulting float division kernel — the scalar
// reference errors on a zero divisor rather than producing ±Inf, and the
// kernel preserves that.
func floatDivKernel() kernelFn {
	return func(l, r, out *colfile.Vec, sel []int) error {
		os := out.Floats
		n := len(os)
		ls, rs := l.Floats, r.Floats
		unionNulls(l, r, out, sel, n)
		body := func(i int) error {
			if out.IsNull(i) {
				return nil
			}
			if rs[i] == 0 {
				return errFloatDivZero
			}
			os[i] = ls[i] / rs[i]
			return nil
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				if err := body(i); err != nil {
					return err
				}
			}
			return nil
		}
		for _, i := range sel {
			if err := body(i); err != nil {
				return err
			}
		}
		return nil
	}
}

// logicalKernel is AND/OR under the engine's collapsed NULL rule: any NULL
// input lane yields NULL (identical to the scalar reference — no
// three-valued short-circuit).
func logicalKernel(kind BinKind) kernelFn {
	and := kind == OpAnd
	return func(l, r, out *colfile.Vec, sel []int) error {
		n := len(out.Bools)
		ls, rs, ob := l.Bools, r.Bools, out.Bools
		if sel == nil {
			for i := 0; i < n; i++ {
				if and {
					ob[i] = ls[i] && rs[i]
				} else {
					ob[i] = ls[i] || rs[i]
				}
			}
		} else {
			for _, i := range sel {
				if and {
					ob[i] = ls[i] && rs[i]
				} else {
					ob[i] = ls[i] || rs[i]
				}
			}
		}
		unionNulls(l, r, out, sel, n)
		return nil
	}
}

// notKernel negates Bool lanes, NULL-propagating.
func notKernel(l, _, out *colfile.Vec, sel []int) error {
	n := len(out.Bools)
	ls, ob := l.Bools, out.Bools
	if sel == nil {
		for i := 0; i < n; i++ {
			ob[i] = !ls[i]
		}
	} else {
		for _, i := range sel {
			ob[i] = !ls[i]
		}
	}
	unionNulls(l, nil, out, sel, n)
	return nil
}

// isNullKernel tests lanes for NULL; its output is never NULL itself.
func isNullKernel(negate bool) kernelFn {
	return func(l, _, out *colfile.Vec, sel []int) error {
		n := len(out.Bools)
		ob := out.Bools
		if sel == nil {
			for i := 0; i < n; i++ {
				ob[i] = l.IsNull(i) != negate
			}
		} else {
			for _, i := range sel {
				ob[i] = l.IsNull(i) != negate
			}
		}
		return nil
	}
}

// castFloatKernel coerces a lane to float64 with the scalar reference's numAt
// semantics: Int64 converts by value, Float64 passes through, any other type
// coerces to 0 (numAt's ok flag is ignored by the scalar arithmetic path, so
// the kernel reproduces that too). NULL-propagating.
func castFloatKernel(from colfile.DataType) kernelFn {
	return func(l, _, out *colfile.Vec, sel []int) error {
		os := out.Floats
		n := len(os)
		body := func(i int) {
			switch from {
			case colfile.Int64:
				os[i] = float64(l.Ints[i])
			case colfile.Float64:
				os[i] = l.Floats[i]
			default:
				os[i] = 0
			}
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				body(i)
			}
		} else {
			for _, i := range sel {
				body(i)
			}
		}
		unionNulls(l, nil, out, sel, n)
		return nil
	}
}

// likeKernel matches String lanes against a % / _ pattern with the
// allocation-free greedy matcher (equivalent to the scalar reference's
// memoized matcher — pinned by tests and FuzzKernelEquivalence).
// NULL-propagating.
func likeKernel(pattern string) kernelFn {
	return func(l, _, out *colfile.Vec, sel []int) error {
		n := len(out.Bools)
		ls, ob := l.Strs, out.Bools
		if sel == nil {
			for i := 0; i < n; i++ {
				ob[i] = likeMatchIter(ls[i], pattern)
			}
		} else {
			for _, i := range sel {
				ob[i] = likeMatchIter(ls[i], pattern)
			}
		}
		unionNulls(l, nil, out, sel, n)
		return nil
	}
}

// likeMatchIter is the kernel-side LIKE matcher: the classic two-pointer
// greedy wildcard walk — % backtracks by advancing the last star's match
// start — with no memo map, so matching allocates nothing per lane.
func likeMatchIter(s, pat string) bool {
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// inListKernel builds the typed membership kernel: the literal list is
// hashed into a typed set at compile time (values whose type cannot occur in
// the column are dropped — they could never compare equal, matching the
// scalar reference's boxed-map miss). NULL-propagating; negate flips the
// result for non-NULL lanes.
func inListKernel[T comparable](vals func(*colfile.Vec) []T, set map[T]struct{}, negate bool) kernelFn {
	return func(l, _, out *colfile.Vec, sel []int) error {
		n := len(out.Bools)
		ls, ob := vals(l), out.Bools
		body := func(i int) {
			_, ok := set[ls[i]]
			ob[i] = ok != negate
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				body(i)
			}
		} else {
			for _, i := range sel {
				body(i)
			}
		}
		unionNulls(l, nil, out, sel, n)
		return nil
	}
}

// cmpKernelFor returns the comparison kernel for one (operator, type) pair;
// both operands must already share the type (the compiler inserts float casts
// for mixed numeric comparisons).
func cmpKernelFor(kind BinKind, t colfile.DataType) kernelFn {
	switch t {
	case colfile.Int64:
		return orderedCmp[int64](kind, intVals)
	case colfile.Float64:
		return orderedCmp[float64](kind, floatVals)
	case colfile.String:
		return orderedCmp[string](kind, strVals)
	case colfile.Bool:
		return boolCmpKernel(kind)
	}
	return nil
}

func orderedCmp[T cmp.Ordered](kind BinKind, vals func(*colfile.Vec) []T) kernelFn {
	switch kind {
	case OpEq:
		return cmpKernel[T, opEq[T]](vals)
	case OpNe:
		return cmpKernel[T, opNe[T]](vals)
	case OpLt:
		return cmpKernel[T, opLt[T]](vals)
	case OpLe:
		return cmpKernel[T, opLe[T]](vals)
	case OpGt:
		return cmpKernel[T, opGt[T]](vals)
	case OpGe:
		return cmpKernel[T, opGe[T]](vals)
	}
	return nil
}

// arithKernelFor returns the arithmetic kernel for one (operator, output
// type) pair, or nil when the pair has no kernel (the compiler turns that
// into the scalar reference's error).
func arithKernelFor(kind BinKind, t colfile.DataType) kernelFn {
	switch t {
	case colfile.Int64:
		switch kind {
		case OpAdd:
			return arithKernel[int64, opAdd[int64]](intVals)
		case OpSub:
			return arithKernel[int64, opSub[int64]](intVals)
		case OpMul:
			return arithKernel[int64, opMul[int64]](intVals)
		case OpDiv:
			return divModKernel(false)
		case OpMod:
			return divModKernel(true)
		}
	case colfile.Float64:
		switch kind {
		case OpAdd:
			return arithKernel[float64, opAdd[float64]](floatVals)
		case OpSub:
			return arithKernel[float64, opSub[float64]](floatVals)
		case OpMul:
			return arithKernel[float64, opMul[float64]](floatVals)
		case OpDiv:
			return floatDivKernel()
		}
	case colfile.String:
		if kind == OpAdd {
			return arithKernel[string, opAdd[string]](strVals)
		}
	}
	return nil
}
