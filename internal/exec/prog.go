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
	"sort"

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
	slotConst                   // broadcast literal, lazily filled per ctx
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
// across goroutines — all mutable state lives in the per-worker EvalCtx.
type Prog struct {
	slots  []progSlot
	instrs []progInstr
	out    int
	src    string
}

// OutType reports the static result type of the program.
func (p *Prog) OutType() colfile.DataType { return p.slots[p.out].typ }

// String renders the expression the program was compiled from; operators use
// it as the default output column name.
func (p *Prog) String() string { return p.src }

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
	return &q
}

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

// EvalCtx holds one worker's mutable evaluation state: resolved slot
// pointers, owned scratch vectors for kernel outputs, and lazily filled
// broadcast constants. An EvalCtx must not be shared across goroutines; the
// vector returned by Run is valid until the next Run on the same ctx.
type EvalCtx struct {
	ptrs     []*colfile.Vec
	own      []colfile.Vec
	constLen []int
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
	if ctx.ptrs == nil {
		ctx.ptrs = make([]*colfile.Vec, len(p.slots))
		ctx.own = make([]colfile.Vec, len(p.slots))
		ctx.constLen = make([]int, len(p.slots))
	}
	n := b.PhysRows()
	sel := b.Sel
	for si := range p.slots {
		s := &p.slots[si]
		switch s.kind {
		case slotCol:
			if s.col >= len(b.Cols) {
				return nil, fmt.Errorf("exec: column %d out of range", s.col)
			}
			ctx.ptrs[si] = b.Cols[s.col]
		case slotConst:
			v := &ctx.own[si]
			if ctx.constLen[si] < n {
				fillConst(v, s.typ, s.cval, n)
				ctx.constLen[si] = n
			}
			ctx.ptrs[si] = v
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

// fillConst (re)fills a broadcast constant vector to n lanes. Growth is rare
// (at most a handful of times per ctx as batch sizes vary), so it refills the
// whole range rather than tracking a prefix.
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
func Compile(e Expr, schema colfile.Schema) (*Prog, error) {
	p := &Prog{src: e.String()}
	out, err := p.compileNode(e, schema)
	if err != nil {
		return nil, err
	}
	p.out = out
	return p, nil
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
// Literals of other types are dropped from the set: in the scalar reference
// they sit in a boxed map that a value of the operand type can never equal.
func inListKernelFor(t colfile.DataType, e InList) kernelFn {
	switch t {
	case colfile.Int64:
		set := make(map[int64]struct{}, len(e.Vals))
		for _, x := range e.Vals {
			if v, ok := normalize(x).(int64); ok {
				set[v] = struct{}{}
			}
		}
		return inListKernel(intVals, set, e.Negate)
	case colfile.Float64:
		set := make(map[float64]struct{}, len(e.Vals))
		for _, x := range e.Vals {
			if v, ok := normalize(x).(float64); ok {
				set[v] = struct{}{}
			}
		}
		return inListKernel(floatVals, set, e.Negate)
	case colfile.String:
		set := make(map[string]struct{}, len(e.Vals))
		for _, x := range e.Vals {
			if v, ok := x.(string); ok {
				set[v] = struct{}{}
			}
		}
		return inListKernel(strVals, set, e.Negate)
	default: // Bool
		set := make(map[bool]struct{}, len(e.Vals))
		for _, x := range e.Vals {
			if v, ok := x.(bool); ok {
				set[v] = struct{}{}
			}
		}
		return inListKernel(boolVals, set, e.Negate)
	}
}
