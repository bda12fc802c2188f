package lint

import (
	"go/ast"
	"go/types"
)

// CtxBoundary enforces the cancellation-observation contract for fan-out
// bodies (docs/ARCHITECTURE.md, docs/DCP-QUERIES.md): when a cancelled
// sibling task fails a query, in-flight work must stop at the next batch or
// spill-file boundary instead of draining a doomed scan. Concretely: inside
// a function that has a context available, any loop that writes spill files
// (objectstore Put) or drains an operator (exec.Collect) must mention a
// context-typed value in its body — ctx.Err(), CollectCtx(ctx, ...), a
// select on ctx.Done(), all qualify. Loops in functions with no context in
// scope are harness paths and exempt. //polaris:ctx <reason> escapes loops
// whose per-iteration work is provably bounded.
//
// The contract only holds if the statement's context is the one in scope, so
// the execution packages may not mint a root context either: a call to
// context.Background() or context.TODO() is a finding unless the site is
// annotated //polaris:ctx <reason> (a harness entry point with no statement
// behind it, a nil-context default). Test files are not loaded.
var CtxBoundary = &Analyzer{
	Name: "ctxboundary",
	Doc:  "fan-out loops calling Put/Collect must observe a context at batch/file boundaries; no context.Background()/TODO() in the execution packages",
	AppliesTo: inPkgs(
		"polaris/internal/exec",
		"polaris/internal/dcp",
		"polaris/internal/sql",
	),
	Run: runCtxBoundary,
}

func runCtxBoundary(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if funcPkgPath(fn) != "context" || (fn.Name() != "Background" && fn.Name() != "TODO") {
				return true
			}
			if !p.Suppressed("ctx", call.Pos()) {
				p.Reportf(call.Pos(), "context.%s() in an execution package detaches the work below it from statement cancellation: pass the caller's context down, or annotate //polaris:ctx <reason> (docs/DCP-QUERIES.md)", fn.Name())
			}
			return true
		})
		forEachFunc(f, func(ftype *ast.FuncType, body *ast.BlockStmt) {
			if !funcHasContext(p, ftype, body) {
				return
			}
			inspectShallow(body, func(n ast.Node) bool {
				var loopBody *ast.BlockStmt
				var pos = n.Pos()
				switch n := n.(type) {
				case *ast.ForStmt:
					loopBody = n.Body
				case *ast.RangeStmt:
					loopBody = n.Body
				default:
					return true
				}
				callee := boundaryCallIn(p, loopBody)
				if callee == "" || mentionsContext(p, loopBody) {
					return true
				}
				if p.Suppressed("ctx", pos) {
					return true
				}
				p.Reportf(pos, "loop calls %s without observing the context between iterations: check ctx at batch/file boundaries (CollectCtx, ctx.Err()) or annotate //polaris:ctx <reason> (docs/DCP-QUERIES.md)", callee)
				return true
			})
		})
	}
}

// funcHasContext reports whether the function declares a context.Context
// parameter or mentions a context-typed value anywhere in its body
// (captured contexts count: the fan-out contract follows the value, not
// the signature).
func funcHasContext(p *Pass, ftype *ast.FuncType, body *ast.BlockStmt) bool {
	if ftype != nil && ftype.Params != nil {
		for _, fld := range ftype.Params.List {
			if t := p.TypeOf(fld.Type); t != nil && isContextType(t) {
				return true
			}
		}
	}
	return mentionsContext(p, body)
}

// mentionsContext reports whether any expression in n (nested closures
// included — they run inside the loop) has type context.Context.
func mentionsContext(p *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || found {
			return !found
		}
		if t := p.TypeOf(e); t != nil && isContextType(t) {
			found = true
		}
		return !found
	})
	return found
}

// boundaryCallIn returns a description of the first boundary-relevant call
// in the loop body: an objectstore Put (spill-file write) or exec.Collect
// (unbounded operator drain). Nested closures count — they execute within
// the loop.
func boundaryCallIn(p *Pass, body *ast.BlockStmt) string {
	desc := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		switch {
		case fn.Name() == "Put" && sig != nil && sig.Recv() != nil &&
			hasPkgSuffix(funcPkgPath(fn), "internal/objectstore"):
			desc = "objectstore Put"
		case fn.Name() == "Collect" && (sig == nil || sig.Recv() == nil) &&
			hasPkgSuffix(funcPkgPath(fn), "internal/exec"):
			desc = "exec.Collect"
		}
		return true
	})
	return desc
}
