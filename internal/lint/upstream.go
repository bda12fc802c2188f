package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds polarisvet's one upstream-style pass. `make lint` runs the
// originals of lostcancel, copylocks and atomic through `go vet ./...`, so
// they are not re-implemented here; nilness is not in vet's default set, and
// the repo deliberately has zero module dependencies, so it gets a
// conservative stdlib-only re-implementation of its high-signal core: it
// flags only patterns that are unambiguously wrong, trading the SSA-level
// recall of the original for zero false positives.

// NilnessLite flags uses of a pointer, interface, or func value inside the
// taken branch of `if x == nil` when x is never reassigned in that branch:
// the dereference is a guaranteed panic on that path. (The upstream SSA
// nilness pass proves more; this catches the pattern that survives code
// review most often.)
var NilnessLite = &Analyzer{
	Name: "nilness",
	Doc:  "flags guaranteed nil dereferences inside the taken branch of x == nil",
	Run:  runNilness,
}

func runNilness(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			obj := nilComparedVar(p, ifs.Cond)
			if obj == nil || assignsTo(p, ifs.Body, obj) {
				return true
			}
			inspectShallow(ifs.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && p.ObjectOf(id) == obj {
						p.Reportf(n.Pos(), "nil dereference: %s is nil in this branch", obj.Name())
					}
				case *ast.StarExpr:
					if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && p.ObjectOf(id) == obj {
						p.Reportf(n.Pos(), "nil dereference: %s is nil in this branch", obj.Name())
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && p.ObjectOf(id) == obj {
						p.Reportf(n.Pos(), "nil function call: %s is nil in this branch", obj.Name())
					}
				}
				return true
			})
			return true
		})
	}
}

// nilComparedVar returns the variable in a `x == nil` / `nil == x`
// condition when x's type can actually be dereferenced (pointer,
// interface, func), else nil.
func nilComparedVar(p *Pass, cond ast.Expr) types.Object {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return nil
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(p, x) {
		x, y = y, x
	}
	if !isNilIdent(p, y) {
		return nil
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := p.ObjectOf(id)
	if obj == nil {
		return nil
	}
	switch obj.Type().Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature:
		return obj
	}
	return nil
}

func isNilIdent(p *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.ObjectOf(id).(*types.Nil)
	return isNil
}

// assignsTo reports whether any statement in n (closures excluded — they
// may run after the branch) assigns to obj, including := redeclarations
// and taking its address.
func assignsTo(p *Pass, n ast.Node, obj types.Object) bool {
	found := false
	inspectShallow(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok && p.ObjectOf(id) == obj {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && p.ObjectOf(id) == obj {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && p.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
