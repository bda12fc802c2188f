// Expression compilation: an Expr tree is compiled once per plan into a Prog,
// a flat sequence of typed kernel instructions over value slots, and executed
// batch-at-a-time with per-worker scratch (EvalCtx). Compile is the only way
// an Expr becomes executable: its error is the statement's type error, and
// there is no second evaluator to fall back to. The row-at-a-time reference
// in reference_test.go is the test oracle; Prog.Run must be observationally
// identical to it (same values, same NULLs, same error strings) — pinned by
// the golden equivalence suite and FuzzKernelEquivalence. The contract is
// documented in docs/VECTORIZATION.md.
package exec

//polaris:kernelfile compiled kernel programs copy lanes position-aligned under the kernel contract; sel translation happens at program boundaries

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"

	"polaris/internal/colfile"
)

// Error sentinels shared by the faulting kernels; the strings match the
// scalar reference's fmt.Errorf messages exactly.
var (
	errDivZero      = errors.New("exec: integer division by zero")
	errModZero      = errors.New("exec: modulo by zero")
	errFloatDivZero = errors.New("exec: division by zero")
)

type slotKind uint8

const (
	slotCol     slotKind = iota // aliases an input column of the batch
	slotConst                   // broadcast literal, shared by every ctx (Prog.constants)
	slotScratch                 // kernel output, ctx-owned and reused
)

// progSlot describes one value slot of a compiled program.
type progSlot struct {
	kind slotKind
	col  int              // slotCol: input column index
	cval any              // slotConst: normalized literal (nil = typed NULL)
	typ  colfile.DataType // static type of the slot
}

// progInstr is one kernel invocation: out[dst] = fn(slot[l], slot[r]).
// r is -1 for unary kernels.
type progInstr struct {
	fn   kernelFn
	l, r int
	dst  int
}

// Prog is a compiled expression: immutable after Compile and safe to share
// across goroutines — all mutable state lives in the per-operator EvalCtx,
// except the broadcast constants, which every ctx shares read-only.
type Prog struct {
	slots  []progSlot
	instrs []progInstr
	out    int
	src    Expr        // the expression compiled, rendered only by String
	consts *constCache // nil when the program has no constant slot
	ranges []Range     // see Ranges
}

// Range is a closed interval [Lo, Hi] an Int64 input column must lie in.
type Range struct {
	Col    int
	Lo, Hi int64
}

// constCache holds a program's broadcast constants. A published constSet is
// never written: a batch longer than the current set replaces it with a
// longer one, so any number of contexts read the constants concurrently and
// each literal is broadcast once per program, not once per context.
type constCache struct{ cur atomic.Pointer[constSet] }

// constSet is one generation of a program's constants: vecs[si] is constant
// slot si broadcast to n lanes (other slots stay zero).
type constSet struct {
	n    int
	vecs []colfile.Vec
}

// constants returns a constant set of at least n lanes, building (and
// publishing) a longer one when the current set is too short. Growth at least
// doubles, so a program broadcasts its constants a handful of times however
// its batch sizes vary; racing callers each publish a set at least as long
// as the one they saw, and any of them serves.
func (p *Prog) constants(n int) *constSet {
	cur := p.consts.cur.Load()
	for cur == nil || cur.n < n {
		size := n
		if cur != nil {
			size = max(n, 2*cur.n)
		}
		next := &constSet{n: size, vecs: make([]colfile.Vec, len(p.slots))}
		for si, s := range p.slots {
			if s.kind == slotConst {
				fillConst(&next.vecs[si], s.typ, s.cval, size)
			}
		}
		if p.consts.cur.CompareAndSwap(cur, next) {
			return next
		}
		cur = p.consts.cur.Load()
	}
	return cur
}

// OutType reports the static result type of the program.
func (p *Prog) OutType() colfile.DataType { return p.slots[p.out].typ }

// String renders the expression the program was compiled from; operators use
// it as the default output column name. Compile renders nothing, so a
// statement pays to render only the programs it names.
func (p *Prog) String() string { return p.src.String() }

// Cols returns the distinct input column indexes the program reads, in
// ascending order. The scan uses it to decode only the predicate's columns
// before deciding whether a row group has any qualifying rows at all.
func (p *Prog) Cols() []int {
	var out []int
	for _, s := range p.slots {
		if s.kind == slotCol {
			out = append(out, s.col)
		}
	}
	sort.Ints(out)
	n := 0
	for i, c := range out {
		if i == 0 || c != out[n-1] {
			out[n] = c
			n++
		}
	}
	return out[:n]
}

// Narrow returns the program re-addressed to a batch that holds only the
// columns it reads, in Cols() order: input column Cols()[i] becomes column i.
// A scan projected to exactly a predicate's columns pushes the narrowed
// program. Kernels and constants are shared with p; only the slot table is
// copied.
func (p *Prog) Narrow() *Prog {
	pos := make(map[int]int)
	for i, c := range p.Cols() {
		pos[c] = i
	}
	q := *p
	q.slots = append([]progSlot(nil), p.slots...)
	for i := range q.slots {
		if q.slots[i].kind == slotCol {
			q.slots[i].col = pos[q.slots[i].col]
		}
	}
	q.ranges = append([]Range(nil), p.ranges...)
	for i := range q.ranges {
		q.ranges[i].Col = pos[q.ranges[i].Col]
	}
	return &q
}

// Ranges returns, per Int64 input column, the closed range every row the
// program maps to TRUE lies in: the intersection of the top-level AND
// conjuncts of the form column op int-literal (op one of = < <= > >=). A
// scan skips a row group whose zone map lies outside one of them. Under
// Kleene AND a row is TRUE only when every conjunct is, and a comparison is
// TRUE only on a non-NULL value that satisfies it; OR, NOT, IN, IS NULL,
// <>, a NULL or non-integer literal and anything under them record nothing,
// so the ranges never exclude a TRUE row. The slice is shared; do not
// modify it.
func (p *Prog) Ranges() []Range { return p.ranges }

// ColRef reports whether the program is a bare column reference, and which
// input column it reads. Callers use it to alias the input vector directly
// instead of copying.
func (p *Prog) ColRef() (int, bool) {
	s := p.slots[p.out]
	if s.kind == slotCol {
		return s.col, true
	}
	return -1, false
}

// EvalCtx holds one operator instance's mutable evaluation state: resolved
// slot pointers and owned scratch vectors for kernel outputs. A constant
// slot's entry in own is only a capped view ([:n:n]) of the program's shared
// broadcast, so nothing written through the ctx can reach the shared array.
// An EvalCtx must not be shared across goroutines; the vector returned by Run
// is valid until the next Run on the same ctx. A context may move to another
// program once release has cut it loose from the one it ran (a scan's
// pooled predicate context does): its scratch vectors are kept for reuse.
type EvalCtx struct {
	ptrs []*colfile.Vec
	own  []colfile.Vec
}

// release drops what ties the context to p: its views of p's broadcast
// constants and its pointers into the last batch. A later program whose slot
// i is scratch would otherwise ResetLen the view of p's constant i, whose
// capacity is the published array's, and write its kernel output there.
func (ctx *EvalCtx) release(p *Prog) {
	for si := range p.slots {
		if p.slots[si].kind == slotConst && si < len(ctx.own) {
			ctx.own[si] = colfile.Vec{}
		}
	}
	clear(ctx.ptrs)
}

// NewCtx returns a fresh evaluation context for the program.
func (p *Prog) NewCtx() *EvalCtx { return &EvalCtx{} }

// Run evaluates the program over the batch's physical lanes at the selected
// positions (b.Sel, or all lanes when dense). The result vector is
// position-aligned with the batch's columns (length PhysRows); lanes outside
// the selection are unspecified. The result aliases either an input column or
// ctx-owned scratch — read it before the next Run on the same ctx and never
// mutate it.
func (p *Prog) Run(ctx *EvalCtx, b *colfile.Batch) (*colfile.Vec, error) {
	if len(ctx.ptrs) != len(p.slots) {
		// A fresh context, or one another program released: every slot's
		// pointer is set below, and own keeps the scratch it has.
		ctx.ptrs = slices.Grow(ctx.ptrs[:0], len(p.slots))[:len(p.slots)]
		if n := len(p.slots) - len(ctx.own); n > 0 {
			ctx.own = append(ctx.own, make([]colfile.Vec, n)...)
		}
	}
	n := b.PhysRows()
	sel := b.Sel
	var consts *constSet
	if p.consts != nil {
		consts = p.constants(n)
	}
	for si := range p.slots {
		s := &p.slots[si]
		switch s.kind {
		case slotCol:
			if s.col >= len(b.Cols) {
				return nil, fmt.Errorf("exec: column %d out of range", s.col)
			}
			ctx.ptrs[si] = b.Cols[s.col]
		case slotConst:
			ctx.own[si] = capped(&consts.vecs[si], n)
			ctx.ptrs[si] = &ctx.own[si]
		case slotScratch:
			ctx.ptrs[si] = &ctx.own[si]
		}
	}
	for _, in := range p.instrs {
		dst := ctx.ptrs[in.dst]
		dst.ResetLen(p.slots[in.dst].typ, n)
		var r *colfile.Vec
		if in.r >= 0 {
			r = ctx.ptrs[in.r]
		}
		if err := in.fn(ctx.ptrs[in.l], r, dst, sel); err != nil {
			return nil, err
		}
	}
	return ctx.ptrs[p.out], nil
}

// CheckConstants reports an error when a broadcast constant of the program
// no longer holds its literal on every lane: the shared vectors are never
// written, and this is how tests check that whatever ran the program kept to
// it.
func (p *Prog) CheckConstants() error {
	if p.consts == nil {
		return nil
	}
	cs := p.consts.cur.Load()
	if cs == nil {
		return nil
	}
	for si, s := range p.slots {
		if s.kind != slotConst {
			continue
		}
		var want colfile.Vec
		fillConst(&want, s.typ, s.cval, cs.n)
		if v := &cs.vecs[si]; !reflect.DeepEqual(*v, want) {
			return fmt.Errorf("exec: broadcast constant %v of %q was written", s.cval, p.String())
		}
	}
	return nil
}

// capped returns a view of v's first n lanes whose capacity is n too, so an
// append through the view allocates instead of writing v's backing array.
func capped(v *colfile.Vec, n int) colfile.Vec {
	out := colfile.Vec{Type: v.Type}
	switch v.Type {
	case colfile.Int64:
		out.Ints = v.Ints[:n:n]
	case colfile.Float64:
		out.Floats = v.Floats[:n:n]
	case colfile.String:
		out.Strs = v.Strs[:n:n]
	case colfile.Bool:
		out.Bools = v.Bools[:n:n]
	}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[:n:n]
	}
	return out
}

// fillConst fills a broadcast constant vector to n lanes.
func fillConst(v *colfile.Vec, t colfile.DataType, val any, n int) {
	v.ResetLen(t, n)
	if val == nil {
		mask := v.NullScratch(n)
		for i := range mask {
			mask[i] = true
		}
		return
	}
	switch t {
	case colfile.Int64:
		x := val.(int64)
		for i := range v.Ints {
			v.Ints[i] = x
		}
	case colfile.Float64:
		x := val.(float64)
		for i := range v.Floats {
			v.Floats[i] = x
		}
	case colfile.String:
		x := val.(string)
		for i := range v.Strs {
			v.Strs[i] = x
		}
	case colfile.Bool:
		x := val.(bool)
		for i := range v.Bools {
			v.Bools[i] = x
		}
	}
}

// Compile lowers an Expr tree into a kernel program over the input schema.
// It fails for statically ill-typed trees (NOT or AND/OR over non-booleans,
// LIKE over a non-string, arithmetic with no kernel, a column out of range)
// and for Expr implementations outside this package; callers report that
// error as the statement's. Errors that depend on the data — division by
// zero, comparing a string with a number — compile to kernels that raise
// them when a selected, non-NULL lane is reached.
//
// The top-level AND conjuncts that record a range (see Ranges) compile to one
// range instruction per column, ahead of the other conjuncts (see
// compileRanged).
func Compile(e Expr, schema colfile.Schema) (*Prog, error) {
	p := &Prog{src: e}
	lanes := addRanges(nil, e, schema)
	if len(lanes) > 0 {
		p.ranges = make([]Range, len(lanes))
		for i, l := range lanes {
			p.ranges[i] = l.Range
		}
		if out, ok := p.compileRanged(e, schema, lanes); ok {
			p.out = out
			return p, nil
		}
		p = &Prog{src: p.src, ranges: p.ranges}
	}
	out, err := p.compileNode(e, schema)
	if err != nil {
		return nil, err
	}
	p.out = out
	return p, nil
}

// laneRange is the exact set of values on which one column's range conjuncts
// are all TRUE: [Lo, Hi], or no value at all when empty. Its Range is what
// Ranges reports, which only has to be sound for pruning: `x < MinInt64`
// records [MinInt64, MinInt64] there, but its lanes must all be FALSE.
type laneRange struct {
	Range
	empty bool
}

// addRanges intersects into rs the range each top-level AND conjunct of e
// implies (see Prog.Ranges), one entry per column in order of first mention.
func addRanges(rs []laneRange, e Expr, schema colfile.Schema) []laneRange {
	if b, ok := e.(Bin); ok && b.Kind == OpAnd {
		return addRanges(addRanges(rs, b.L, schema), b.R, schema)
	}
	r, ok := rangeConjunct(e, schema)
	if !ok {
		return rs
	}
	for i := range rs {
		if rs[i].Col == r.Col {
			rs[i].Lo, rs[i].Hi = max(rs[i].Lo, r.Lo), min(rs[i].Hi, r.Hi)
			rs[i].empty = rs[i].empty || r.empty || rs[i].Lo > rs[i].Hi
			return rs
		}
	}
	return append(rs, r)
}

// rangeConjunct recognizes a conjunct of the form column op int-literal (op
// one of = < <= > >=) over an Int64 column, and returns the values it is TRUE
// on. It is the one recognizer behind both zone-map pruning and the range
// instruction.
func rangeConjunct(e Expr, schema colfile.Schema) (laneRange, bool) {
	b, ok := e.(Bin)
	if !ok {
		return laneRange{}, false
	}
	c, cok := b.L.(ColRef)
	k, kok := b.R.(Const)
	if !cok || !kok || c.Idx < 0 || c.Idx >= len(schema) || schema[c.Idx].Type != colfile.Int64 {
		return laneRange{}, false
	}
	v, ok := normalize(k.Val).(int64)
	if !ok {
		return laneRange{}, false
	}
	r := laneRange{Range: Range{Col: c.Idx, Lo: math.MinInt64, Hi: math.MaxInt64}}
	switch b.Kind {
	case OpEq:
		r.Lo, r.Hi = v, v
	case OpGe:
		r.Lo = v
	case OpGt: // > MaxInt64 holds on no row; the pruning range saturates
		r.Lo, r.empty = v, v == math.MaxInt64
		if !r.empty {
			r.Lo++
		}
	case OpLe:
		r.Hi = v
	case OpLt: // likewise < MinInt64
		r.Hi, r.empty = v, v == math.MinInt64
		if !r.empty {
			r.Hi--
		}
	default:
		return laneRange{}, false
	}
	return r, true
}

// compileRanged compiles e, whose top-level AND conjuncts include the range
// conjuncts lanes summarizes, as one range instruction per column, ANDed
// together, followed by the other conjuncts in their original order, each
// ANDed in by a logical instruction. Kleene AND is commutative and
// associative, and a range conjunct raises no error, so the result and any
// data-dependent error are the tree's. It reports false when another
// conjunct does not compile to BOOL; Compile then compiles e as written,
// which reports the error the tree states.
func (p *Prog) compileRanged(e Expr, schema colfile.Schema, lanes []laneRange) (int, bool) {
	acc := -1
	for _, l := range lanes {
		col := p.addSlot(progSlot{kind: slotCol, col: l.Col, typ: colfile.Int64})
		dst := p.scratch(colfile.Bool)
		p.emit(rangeKernel(l.Lo, l.Hi, l.empty), col, -1, dst)
		acc = p.and(acc, dst)
	}
	return p.andResiduals(acc, e, schema)
}

// and emits acc AND in into a new Bool slot and returns it, or returns in
// when acc is -1 (nothing yet).
func (p *Prog) and(acc, in int) int {
	if acc < 0 {
		return in
	}
	dst := p.scratch(colfile.Bool)
	p.emit(logicalKernel(OpAnd), acc, in, dst)
	return dst
}

// andResiduals ANDs into slot acc, left to right, the top-level AND
// conjuncts of e that record no range.
func (p *Prog) andResiduals(acc int, e Expr, schema colfile.Schema) (int, bool) {
	if b, ok := e.(Bin); ok && b.Kind == OpAnd {
		acc, ok := p.andResiduals(acc, b.L, schema)
		if !ok {
			return 0, false
		}
		return p.andResiduals(acc, b.R, schema)
	}
	if _, ok := rangeConjunct(e, schema); ok {
		return acc, true
	}
	in, err := p.compileNode(e, schema)
	if err != nil || p.slots[in].typ != colfile.Bool {
		return 0, false
	}
	return p.and(acc, in), true
}

func (p *Prog) addSlot(s progSlot) int {
	p.slots = append(p.slots, s)
	return len(p.slots) - 1
}

func (p *Prog) scratch(t colfile.DataType) int {
	return p.addSlot(progSlot{kind: slotScratch, typ: t})
}

func (p *Prog) emit(fn kernelFn, l, r, dst int) {
	p.instrs = append(p.instrs, progInstr{fn: fn, l: l, r: r, dst: dst})
}

func (p *Prog) compileNode(e Expr, schema colfile.Schema) (int, error) {
	switch t := e.(type) {
	case ColRef:
		if t.Idx < 0 || t.Idx >= len(schema) {
			return 0, fmt.Errorf("exec: column %d out of range", t.Idx)
		}
		return p.addSlot(progSlot{kind: slotCol, col: t.Idx, typ: schema[t.Idx].Type}), nil
	case Const:
		dt, err := constType(t.Val)
		if err != nil {
			return 0, err
		}
		if p.consts == nil {
			p.consts = &constCache{}
		}
		return p.addSlot(progSlot{kind: slotConst, cval: normalize(t.Val), typ: dt}), nil
	case Bin:
		return p.compileBin(t, schema)
	case Not:
		in, err := p.compileNode(t.E, schema)
		if err != nil {
			return 0, err
		}
		if p.slots[in].typ != colfile.Bool {
			return 0, fmt.Errorf("exec: NOT of %s", p.slots[in].typ)
		}
		dst := p.scratch(colfile.Bool)
		p.emit(notKernel, in, -1, dst)
		return dst, nil
	case IsNull:
		in, err := p.compileNode(t.E, schema)
		if err != nil {
			return 0, err
		}
		dst := p.scratch(colfile.Bool)
		p.emit(isNullKernel(t.Negate), in, -1, dst)
		return dst, nil
	case Like:
		in, err := p.compileNode(t.E, schema)
		if err != nil {
			return 0, err
		}
		if p.slots[in].typ != colfile.String {
			return 0, fmt.Errorf("exec: LIKE over %s", p.slots[in].typ)
		}
		dst := p.scratch(colfile.Bool)
		p.emit(likeKernel(t.Pattern), in, -1, dst)
		return dst, nil
	case InList:
		in, err := p.compileNode(t.E, schema)
		if err != nil {
			return 0, err
		}
		dst := p.scratch(colfile.Bool)
		p.emit(inListKernelFor(p.slots[in].typ, t), in, -1, dst)
		return dst, nil
	default:
		return 0, fmt.Errorf("exec: cannot compile %T", e)
	}
}

func (p *Prog) compileBin(e Bin, schema colfile.Schema) (int, error) {
	ls, err := p.compileNode(e.L, schema)
	if err != nil {
		return 0, err
	}
	rs, err := p.compileNode(e.R, schema)
	if err != nil {
		return 0, err
	}
	lt, rt := p.slots[ls].typ, p.slots[rs].typ
	switch {
	case e.Kind.IsLogical():
		if lt != colfile.Bool || rt != colfile.Bool {
			return 0, fmt.Errorf("exec: cannot apply %s to %s and %s", binNames[e.Kind], lt, rt)
		}
		dst := p.scratch(colfile.Bool)
		p.emit(logicalKernel(e.Kind), ls, rs, dst)
		return dst, nil
	case e.Kind.IsComparison():
		dst := p.scratch(colfile.Bool)
		switch {
		case lt == rt:
			p.emit(cmpKernelFor(e.Kind, lt), ls, rs, dst)
		case isNumeric(lt) && isNumeric(rt):
			// mixed int/float: coerce both sides to float64, matching the
			// scalar reference's numAt
			p.emit(cmpKernelFor(e.Kind, colfile.Float64), p.castFloat(ls), p.castFloat(rs), dst)
		default:
			// The scalar reference only errors when it reaches a row with
			// both sides non-NULL, so the compiled form defers the error the
			// same way.
			p.emit(lazyErrKernel(fmt.Errorf("exec: cannot compare %s and %s", lt, rt)), ls, rs, dst)
		}
		return dst, nil
	default: // arithmetic
		switch {
		case lt == colfile.Float64 || rt == colfile.Float64:
			dst := p.scratch(colfile.Float64)
			fn := arithKernelFor(e.Kind, colfile.Float64)
			if fn == nil {
				fn = lazyErrKernel(fmt.Errorf("exec: bad float arith %s", binNames[e.Kind]))
			}
			p.emit(fn, p.castFloat(ls), p.castFloat(rs), dst)
			return dst, nil
		case lt == colfile.Int64 && rt == colfile.Int64:
			dst := p.scratch(colfile.Int64)
			p.emit(arithKernelFor(e.Kind, colfile.Int64), ls, rs, dst)
			return dst, nil
		case lt == colfile.String && rt == colfile.String && e.Kind == OpAdd:
			dst := p.scratch(colfile.String)
			p.emit(arithKernelFor(OpAdd, colfile.String), ls, rs, dst)
			return dst, nil
		default:
			return 0, fmt.Errorf("exec: cannot apply %s to %s and %s", binNames[e.Kind], lt, rt)
		}
	}
}

// castFloat inserts a float64 coercion instruction unless the slot already is
// one.
func (p *Prog) castFloat(slot int) int {
	if p.slots[slot].typ == colfile.Float64 {
		return slot
	}
	dst := p.scratch(colfile.Float64)
	p.emit(castFloatKernel(p.slots[slot].typ), slot, -1, dst)
	return dst
}

func isNumeric(t colfile.DataType) bool {
	return t == colfile.Int64 || t == colfile.Float64
}

// lazyErrKernel reproduces the scalar reference's row-at-a-time errors for
// operand type combinations with no kernel: the error fires only when a
// selected lane has all inputs non-NULL; otherwise the lane is NULL.
func lazyErrKernel(err error) kernelFn {
	return func(l, r, out *colfile.Vec, sel []int) error {
		n := out.Len()
		mask := out.NullScratch(n)
		body := func(i int) error {
			if l.IsNull(i) || (r != nil && r.IsNull(i)) {
				mask[i] = true
				return nil
			}
			return err
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				if e := body(i); e != nil {
					return e
				}
			}
			return nil
		}
		for _, i := range sel {
			if e := body(i); e != nil {
				return e
			}
		}
		return nil
	}
}

// inListKernelFor builds the typed IN-list kernel for the operand type.
// Numbers compare as = compares them: an Int64 lane matches an int literal it
// equals and a float literal its float64 equals, and a Float64 lane matches
// either literal by float64 value. Literals of other types are dropped from
// the set, so a string never matches a number (where = would raise an
// error). A NULL literal is kept as the kernel's listNull flag instead.
func inListKernelFor(t colfile.DataType, e InList) kernelFn {
	listNull := slices.Contains(e.Vals, nil)
	switch t {
	case colfile.Int64:
		ints := make(map[int64]struct{}, len(e.Vals))
		var floats map[float64]struct{}
		for _, x := range e.Vals {
			switch v := normalize(x).(type) {
			case int64:
				ints[v] = struct{}{}
			case float64:
				if floats == nil {
					floats = make(map[float64]struct{})
				}
				floats[v] = struct{}{}
			}
		}
		var promoted func(int64) bool
		if floats != nil {
			promoted = func(x int64) bool {
				_, ok := floats[float64(x)]
				return ok
			}
		}
		return inListKernel(intVals, ints, promoted, e.Negate, listNull)
	case colfile.Float64:
		set := make(map[float64]struct{}, len(e.Vals))
		for _, x := range e.Vals {
			switch v := normalize(x).(type) {
			case int64:
				set[float64(v)] = struct{}{}
			case float64:
				set[v] = struct{}{}
			}
		}
		return inListKernel(floatVals, set, nil, e.Negate, listNull)
	case colfile.String:
		set := make(map[string]struct{}, len(e.Vals))
		for _, x := range e.Vals {
			if v, ok := x.(string); ok {
				set[v] = struct{}{}
			}
		}
		return inListKernel(strVals, set, nil, e.Negate, listNull)
	default: // Bool
		set := make(map[bool]struct{}, len(e.Vals))
		for _, x := range e.Vals {
			if v, ok := x.(bool); ok {
				set[v] = struct{}{}
			}
		}
		return inListKernel(boolVals, set, nil, e.Negate, listNull)
	}
}
