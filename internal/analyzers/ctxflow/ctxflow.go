// Package ctxflow enforces the context-plumbing contract of DESIGN.md
// §11: the serving stack's cancellation and deadline guarantees hold
// only if every ...Ctx entry point actually threads its context down
// to the granules that poll it. PR 8 established the invariants by
// hand; this analyzer keeps them from regressing.
//
// Three rules:
//
//  1. Inside a function whose name ends in "Ctx" and that takes a
//     context.Context, every call to a callee that accepts a context
//     must be passed an expression derived from the function's own
//     ctx parameter — not context.Background()/TODO() and not some
//     unrelated context. Detaching is occasionally intentional (the
//     Server's coalesced solves run on a detached context so one
//     cancelled waiter cannot abort the others) and carries a
//     //distflow:allow ctxflow annotation at the call.
//
//  2. A ...Ctx function must use its ctx parameter at least once — an
//     entry point that accepts a context and drops it advertises a
//     guarantee it does not implement.
//
//  3. A loop marked as a poll granule —
//
//     //distflow:poll
//     for ... { ... }
//
//     must poll its context somewhere in the body: a method call on a
//     context value (ctx.Err, ctx.Done, ctx.Deadline) or a call
//     passing a context onward (ctxStatus(ctx), sampleTree(ctx, ...)).
//     The markers sit on the gradient-iteration and contraction-level
//     loops in internal/sherman and internal/capprox, so deleting the
//     poll (the regression class PR 8 guarded by hand) now fails the
//     lint instead of silently breaking cancellation latency.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"distflow/internal/analyzers/framework"
)

// PollMarker tags a loop as a poll granule.
const PollMarker = "//distflow:poll"

// Analyzer is the ctxflow pass.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc:  "require ...Ctx entry points to thread their context into context-accepting callees and marked poll loops to poll",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	for _, file := range pass.Files {
		markers := pollMarkerLines(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkPollMarkers(pass, fd, markers)
			if strings.HasSuffix(fd.Name.Name, "Ctx") {
				checkCtxFunc(pass, fd)
			}
			return true
		})
		// A marker that attached to no loop is itself a bug: it looks
		// like protection but protects nothing.
		for line, pos := range markers {
			if pos.IsValid() {
				pass.Reportf(pos, "orphaned //distflow:poll marker on line %d: no for/range statement starts on the same or next line", line)
			}
		}
	}
	return nil, nil
}

// ctxParamObj returns the object of fd's context.Context parameter,
// or nil.
func ctxParamObj(pass *framework.Pass, fd *ast.FuncDecl) types.Object {
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || !framework.IsContextType(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

func checkCtxFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	ctxObj := ctxParamObj(pass, fd)
	if ctxObj == nil {
		return
	}
	// Rule 2: the context must be used at all.
	if !framework.UsesObject(pass.TypesInfo, fd.Body, ctxObj) {
		pass.Reportf(fd.Name.Pos(), "%s accepts a context but never uses it", fd.Name.Name)
		return
	}
	// Rule 1: context-accepting callees receive ctx-derived contexts.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		idx := framework.ContextParam(sig)
		if idx < 0 || idx >= len(call.Args) {
			return true
		}
		arg := call.Args[idx]
		if framework.UsesObject(pass.TypesInfo, arg, ctxObj) {
			return true
		}
		// A fresh context from another ctx-derived local (ctx2 :=
		// context.WithTimeout(ctx, ...)) still mentions ctx at its
		// definition, not here; accept any local whose declaration's
		// initializer mentions ctx.
		if derivedFromCtx(pass, arg, ctxObj) {
			return true
		}
		pass.Reportf(arg.Pos(),
			"%s does not thread its ctx into %s (context-accepting callee): pass a context derived from ctx or annotate the intentional detach", fd.Name.Name, fn.Name())
		return true
	})
}

// derivedFromCtx reports whether arg is an identifier whose defining
// assignment mentions the ctx parameter (one level of indirection:
// cctx, cancel := context.WithCancel(ctx)).
func derivedFromCtx(pass *framework.Pass, arg ast.Expr, ctxObj types.Object) bool {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return false
	}
	obj := framework.ObjectOf(pass.TypesInfo, id)
	if obj == nil {
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	// Find the declaration site: scan the enclosing file for the
	// defining Ident and inspect its AssignStmt/ValueSpec for a ctx
	// mention.
	for _, file := range pass.Files {
		if file.Pos() > v.Pos() || v.Pos() > file.End() {
			continue
		}
		found := false
		ast.Inspect(file, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if lid, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Defs[lid] == obj {
						for _, rhs := range n.Rhs {
							if framework.UsesObject(pass.TypesInfo, rhs, ctxObj) {
								found = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if pass.TypesInfo.Defs[name] == obj {
						for _, val := range n.Values {
							if framework.UsesObject(pass.TypesInfo, val, ctxObj) {
								found = true
							}
						}
					}
				}
			}
			return true
		})
		return found
	}
	return false
}

// pollMarkerLines collects the //distflow:poll comments of a file,
// keyed by line. checkPollMarkers zeroes each entry it attaches to a
// loop; survivors are orphans.
func pollMarkerLines(pass *framework.Pass, file *ast.File) map[int]token.Pos {
	lines := map[int]token.Pos{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, PollMarker) {
				lines[pass.Fset.Position(c.Pos()).Line] = c.Pos()
			}
		}
	}
	return lines
}

// checkPollMarkers verifies every marked loop in fd polls a context,
// consuming the markers it matches.
func checkPollMarkers(pass *framework.Pass, fd *ast.FuncDecl, markers map[int]token.Pos) {
	if len(markers) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		line := pass.Fset.Position(n.Pos()).Line
		marked := false
		for _, ml := range []int{line, line - 1} {
			if pos, ok := markers[ml]; ok && pos.IsValid() {
				markers[ml] = token.NoPos // consumed
				marked = true
			}
		}
		if !marked {
			return true
		}
		if !pollsContext(pass, body) {
			pass.Reportf(n.Pos(), "loop is marked //distflow:poll but its body never polls a context (ctx.Err/ctx.Done or a ctx-accepting call)")
		}
		return true
	})
}

// pollsContext reports whether the block contains a context poll: a
// method call on a context.Context value, or any call passing a
// context.Context argument.
func pollsContext(pass *framework.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && framework.IsContextType(tv.Type) {
				found = true
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if tv, ok := pass.TypesInfo.Types[arg]; ok && framework.IsContextType(tv.Type) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
