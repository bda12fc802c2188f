package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterministicPackages are the packages bound by the cross-DOP
// byte-identity determinism contract (docs/ARCHITECTURE.md): their outputs
// — result batches, spill files, manifests, EXPLAIN text, the /metrics
// document — must be identical run to run, so map iteration order must
// never leak into them.
var DeterministicPackages = []string{
	"polaris/internal/exec",
	"polaris/internal/sql",
	"polaris/internal/dcp",
	"polaris/internal/colfile",
	"polaris/internal/manifest",
	"polaris/internal/server",
	"polaris/internal/core",
}

// inPkgs matches package paths against repo package identities by suffix
// (hasPkgSuffix), so a testdata package that mirrors a real package's tail
// path — e.g. testdata/src/injected/internal/exec — is scoped exactly like
// the package it impersonates, which is how cmd/polarisvet's own tests pin
// driver behavior end to end.
func inPkgs(paths ...string) func(string) bool {
	suffixes := make([]string, len(paths))
	for i, p := range paths {
		suffixes[i] = strings.TrimPrefix(p, "polaris/")
	}
	return func(p string) bool {
		for _, s := range suffixes {
			if hasPkgSuffix(p, s) {
				return true
			}
		}
		return false
	}
}

// DetMapOrder flags `for range` over a map in a deterministic package
// unless the loop matches one of two provably order-insensitive shapes:
//
//  1. collect-then-sort — the body only appends to a slice that is later
//     passed to a sort/slices sorting call in the same function;
//  2. per-key effects — every statement writes only loop-local variables,
//     map entries keyed by the range key, integer accumulators via
//     commutative ops (+=, |=, &=, ^=, ++), or deletes map entries, with
//     no function calls whose side effects could observe the order.
//
// Anything else needs a //polaris:nondet <reason> annotation citing why
// iteration order cannot reach bytes the determinism contract covers.
var DetMapOrder = &Analyzer{
	Name:      "detmaporder",
	Doc:       "flags non-deterministic map iteration in byte-determinism-contract packages",
	AppliesTo: inPkgs(DeterministicPackages...),
	Run:       runDetMapOrder,
}

func runDetMapOrder(p *Pass) {
	for _, f := range p.Pkg.Files {
		forEachFunc(f, func(_ *ast.FuncType, body *ast.BlockStmt) {
			inspectShallow(body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if keyCollectSorted(p, body, rs) || orderInsensitiveBody(p, rs) {
					return true
				}
				if p.Suppressed("nondet", rs.For) {
					return true
				}
				p.Reportf(rs.For, "map iteration order is non-deterministic here: collect and sort the keys, keep the body to per-key effects, or annotate //polaris:nondet <reason> (docs/LINT.md)")
				return true
			})
		})
	}
}

// keyCollectSorted recognizes the collect-then-sort idiom: the loop body is
// `dest = append(dest, ...)` — optionally wrapped in if-filters, whose
// predicates are assumed effect-free — and a sort-package (or
// slices-package) call mentioning dest follows the loop in the same
// function.
func keyCollectSorted(p *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) bool {
	stmts := rs.Body.List
	for len(stmts) == 1 {
		ifs, ok := stmts[0].(*ast.IfStmt)
		if !ok || ifs.Else != nil {
			break
		}
		stmts = ifs.Body.List
	}
	if len(stmts) != 1 {
		return false
	}
	as, ok := stmts[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dest, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltinCall(p, call, "append") || len(call.Args) == 0 {
		return false
	}
	if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); !ok || p.ObjectOf(arg) != p.ObjectOf(dest) {
		return false
	}
	destObj := p.ObjectOf(dest)
	if destObj == nil {
		return false
	}
	sorted := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		if isSortCall(p, call, destObj) {
			sorted = true
		}
		return true
	})
	return sorted
}

// isSortCall reports whether the call is a sort-package or slices-package
// sorting function with dest somewhere in its arguments.
func isSortCall(p *Pass, call *ast.CallExpr, dest types.Object) bool {
	fn := calleeFunc(p, call)
	switch funcPkgPath(fn) {
	case "sort", "slices":
	default:
		return false
	}
	switch fn.Name() {
	case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable",
		"SortFunc", "SortStableFunc":
	default:
		return false
	}
	for _, arg := range call.Args {
		mentions := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.ObjectOf(id) == dest {
				mentions = true
			}
			return true
		})
		if mentions {
			return true
		}
	}
	return false
}

// orderInsensitiveBody reports whether every statement in the loop body has
// effects that commute across iterations. Two modes:
//
//   - pure-scan: a body containing return/break may run any prefix of the
//     iterations, so it must be entirely effect-free outside loop-locals
//     and every return value must be a constant (an existential scan:
//     "does any entry satisfy the predicate" is order-independent);
//   - per-key effects: without early exits, writes are allowed when they
//     cannot collide across iterations (loop-locals, map entries keyed by
//     the range key, set-inserts of constants) or commute exactly
//     (integer +=, |=, &=, ^=, ++ and deletes).
func orderInsensitiveBody(p *Pass, rs *ast.RangeStmt) bool {
	keyObj := rangeVarObj(p, rs.Key)
	pure := hasEarlyExit(rs.Body)

	// localOK: the identifier is declared inside the loop body, so writing
	// it cannot carry state across iterations.
	localOK := func(id *ast.Ident) bool {
		obj := p.ObjectOf(id)
		return obj != nil && rs.Body.Pos() <= obj.Pos() && obj.Pos() <= rs.Body.End()
	}

	// mapWriteOK: the write cannot collide across iterations — the map is
	// itself a loop-local, the key expression mentions the range key (each
	// iteration touches its own entry), or the stored value is a constant
	// (a set-insert: collisions store the same value).
	mapWriteOK := func(ix *ast.IndexExpr, rhs ast.Expr) bool {
		t := p.TypeOf(ix.X)
		if t == nil {
			return false
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return false
		}
		if id, ok := ast.Unparen(ix.X).(*ast.Ident); ok && localOK(id) {
			return true
		}
		if rhs != nil && isConstExpr(p, rhs) {
			return true
		}
		if keyObj == nil {
			return false
		}
		mentions := false
		ast.Inspect(ix.Index, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.ObjectOf(id) == keyObj {
				mentions = true
			}
			return true
		})
		return mentions
	}

	// intAccum: an exactly-commutative accumulation into any integer
	// location (local, field, or outer variable).
	intAccum := func(l ast.Expr) bool {
		switch ast.Unparen(l).(type) {
		case *ast.Ident, *ast.SelectorExpr:
			return isIntegerType(p.TypeOf(l))
		}
		return false
	}

	// callFree: the expression contains no calls other than conversions and
	// builtins, so evaluating it in any order has the same effects.
	callFree := func(e ast.Expr) bool {
		if e == nil {
			return true
		}
		free := true
		ast.Inspect(e, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !isConversionOrBuiltin(p, call) {
				free = false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				free = false
			}
			return free
		})
		return free
	}

	var stmtOK func(s ast.Stmt) bool
	stmtsOK := func(list []ast.Stmt) bool {
		for _, s := range list {
			if !stmtOK(s) {
				return false
			}
		}
		return true
	}
	stmtOK = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case nil:
			return true
		case *ast.AssignStmt:
			for i, l := range s.Lhs {
				var rhs ast.Expr
				if len(s.Lhs) == len(s.Rhs) {
					rhs = s.Rhs[i]
				}
				switch l := ast.Unparen(l).(type) {
				case *ast.Ident:
					if l.Name == "_" || localOK(l) {
						continue
					}
					if !pure && isCommutativeTok(s.Tok) && isIntegerType(p.TypeOf(l)) {
						continue
					}
					return false
				case *ast.SelectorExpr:
					if !pure && isCommutativeTok(s.Tok) && intAccum(l) {
						continue
					}
					return false
				case *ast.IndexExpr:
					if !pure && mapWriteOK(l, rhs) {
						continue
					}
					return false
				default:
					return false
				}
			}
			for _, r := range s.Rhs {
				if !callFree(r) {
					return false
				}
			}
			return true
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return false
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					return false
				}
				for _, v := range vs.Values {
					if !callFree(v) {
						return false
					}
				}
			}
			return true
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(s.X).(*ast.Ident); ok && localOK(id) {
				return true
			}
			return !pure && intAccum(s.X)
		case *ast.ExprStmt:
			// delete(m, ...) is idempotent per entry; any other call could
			// observe the order.
			call, ok := s.X.(*ast.CallExpr)
			return !pure && ok && isBuiltinCall(p, call, "delete")
		case *ast.IfStmt:
			return stmtOK(s.Init) && callFree(s.Cond) && stmtsOK(s.Body.List) && stmtOK(s.Else)
		case *ast.BlockStmt:
			return stmtsOK(s.List)
		case *ast.RangeStmt:
			return callFree(s.X) && stmtsOK(s.Body.List)
		case *ast.ForStmt:
			return stmtOK(s.Init) && callFree(s.Cond) && stmtOK(s.Post) && stmtsOK(s.Body.List)
		case *ast.SwitchStmt:
			if !stmtOK(s.Init) || !callFree(s.Tag) {
				return false
			}
			for _, c := range s.Body.List {
				cc := c.(*ast.CaseClause)
				for _, e := range cc.List {
					if !callFree(e) {
						return false
					}
				}
				if !stmtsOK(cc.Body) {
					return false
				}
			}
			return true
		case *ast.BranchStmt:
			// break is an early exit: fine in pure-scan mode (which forbids
			// all effects), order-sensitive otherwise.
			return s.Tok == token.CONTINUE || (pure && s.Tok == token.BREAK)
		case *ast.ReturnStmt:
			// Early return: only a pure existential scan returning
			// constants ("found / not found") is order-independent.
			if !pure {
				return false
			}
			for _, r := range s.Results {
				if !isConstExpr(p, r) {
					return false
				}
			}
			return true
		default:
			// goto, channel ops, go/defer: all can observe which iteration
			// ran first.
			return false
		}
	}
	return stmtsOK(rs.Body.List)
}

// hasEarlyExit reports whether the loop body (closures excluded) contains a
// return or a break that exits the range loop.
func hasEarlyExit(body *ast.BlockStmt) bool {
	found := false
	depth := 0
	var walk func(s ast.Stmt)
	walkList := func(list []ast.Stmt) {
		for _, s := range list {
			walk(s)
		}
	}
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if s.Tok == token.BREAK && depth == 0 {
				found = true
			}
		case *ast.IfStmt:
			walkList(s.Body.List)
			if s.Else != nil {
				walk(s.Else)
			}
		case *ast.BlockStmt:
			walkList(s.List)
		case *ast.ForStmt:
			depth++
			walkList(s.Body.List)
			depth--
		case *ast.RangeStmt:
			depth++
			walkList(s.Body.List)
			depth--
		case *ast.SwitchStmt:
			depth++ // break binds to the switch
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body)
				}
			}
			depth--
		}
	}
	walkList(body.List)
	return found
}

// isConstExpr reports whether e is a compile-time constant (including
// nil, true, false).
func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok {
		return false
	}
	if tv.Value != nil || tv.IsNil() {
		return true
	}
	return false
}

func rangeVarObj(p *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return p.ObjectOf(id)
}

func isCommutativeTok(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

// isIntegerType: integer addition and bitwise ops commute exactly; float
// addition does not (rounding is order-dependent) and string concatenation
// is order itself.
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
