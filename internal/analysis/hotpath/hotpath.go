// Package hotpath implements the smat-lint analyzer that keeps annotated
// steady-state functions allocation-free.
//
// The execution engine (internal/kernels) promises that a steady-state SpMV
// call — RunPooled, plan lookup, pool dispatch, and every kernel chunk body —
// performs zero heap allocations. That contract is pinned at runtime by an
// AllocsPerRun test, but a single stray append or captured closure only shows
// up when that exact path is exercised. This analyzer makes the contract
// syntactically checkable on every function that opts in:
//
//	//smat:hotpath
//	func csrChunk[T matrix.Float](m *Mat[T], x, y []T, lo, hi int) { ... }
//
// marks the whole body hot. Parallel-kernel factories, whose setup runs once
// at registration but whose returned closure runs per call, use
//
//	//smat:hotpath-factory
//	func hybPhases[T matrix.Float](ell, tail rangeFn[T]) runFn[T] { ... }
//
// which exempts the factory's setup statements and checks the bodies of the
// func literals it returns.
//
// Inside a hot body the analyzer reports:
//
//   - heap-allocating constructs: make, new, append, slice/map composite
//     literals, address-taken composite literals, closures (func literals),
//     method values, string/[]byte conversions;
//   - interface conversions of non-constant concrete values (explicit or
//     implicit through call arguments, assignments and returns), which box;
//   - calls into fmt, log, errors, os, reflect and math/rand, plus time.Now —
//     allocation, I/O or nondeterminism that has no business on the SpMV path;
//   - go statements, defer statements, and panics carrying non-constant
//     values.
//
// Calls to unannotated functions are allowed: cold helpers (plan
// construction, mismatch panics) live behind ordinary calls, and the
// kernels' zero-allocation tests (TestSteadyStatePathZeroAlloc,
// TestBatchPooledZeroAlloc) backstop what syntax cannot see.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"smat/internal/analysis/framework"
)

// Analyzer is the hotpath analyzer.
var Analyzer = &framework.Analyzer{
	Name: "hotpath",
	Doc:  "report heap-allocating constructs inside //smat:hotpath functions",
	Run:  run,
}

// bannedPkgs are packages whose every call is reported in a hot body.
var bannedPkgs = map[string]string{
	"fmt":       "allocates and formats",
	"log":       "allocates and performs I/O",
	"errors":    "allocates",
	"os":        "performs I/O",
	"reflect":   "defeats escape analysis",
	"math/rand": "is nondeterministic and locks",
}

// bannedFuncs are individual package-level functions reported in a hot body.
var bannedFuncs = map[string]string{
	"time.Now": "reads the clock",
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			dirs := framework.FuncDirectives(fd)
			switch {
			case dirs["smat:hotpath"]:
				sig, _ := pass.Info.Defs[fd.Name].Type().(*types.Signature)
				checkBody(pass, fd.Body, sig)
			case dirs["smat:hotpath-factory"]:
				lits := returnedFuncLits(fd.Body)
				if len(lits) == 0 {
					pass.Reportf(fd.Pos(), "hot-path factory %s returns no func literal", fd.Name.Name)
				}
				for _, lit := range lits {
					sig, _ := pass.Info.Types[lit].Type.(*types.Signature)
					checkBody(pass, lit.Body, sig)
				}
			}
		}
	}
	return nil
}

// returnedFuncLits collects func literals appearing in return statements of
// the factory body (at any nesting level outside other func literals).
func returnedFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // don't descend into closures looking for returns
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if lit, ok := res.(*ast.FuncLit); ok {
					lits = append(lits, lit)
				}
			}
		}
		return true
	})
	return lits
}

// checker walks one hot body. sig is the enclosing function's signature
// (for checking implicit interface conversions at return statements).
type checker struct {
	pass *framework.Pass
	sig  *types.Signature
	// calleeFuns marks expressions in call-function position, so method
	// values (allocating bound-method closures) can be told apart from
	// ordinary method calls.
	calleeFuns map[ast.Expr]bool
}

func checkBody(pass *framework.Pass, body *ast.BlockStmt, sig *types.Signature) {
	c := &checker{pass: pass, sig: sig, calleeFuns: map[ast.Expr]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			c.calleeFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	ast.Inspect(body, c.visit)
}

func (c *checker) visit(n ast.Node) bool {
	pass, info := c.pass, c.pass.Info
	switch n := n.(type) {
	case *ast.GoStmt:
		pass.Reportf(n.Pos(), "hot path spawns a goroutine")
	case *ast.DeferStmt:
		pass.Reportf(n.Pos(), "hot path uses defer")
	case *ast.FuncLit:
		pass.Reportf(n.Pos(), "hot path allocates a closure")
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				pass.Reportf(n.Pos(), "hot path takes the address of a composite literal (heap allocation)")
			}
		}
	case *ast.CompositeLit:
		if tv, ok := info.Types[n]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "hot path allocates a slice literal")
			case *types.Map:
				pass.Reportf(n.Pos(), "hot path allocates a map literal")
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !c.calleeFuns[ast.Expr(n)] {
			pass.Reportf(n.Pos(), "hot path allocates a method value (bound-method closure)")
		}
	case *ast.CallExpr:
		c.checkCall(n)
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) {
				break // multi-value RHS: conversion happens inside the call
			}
			if lt, ok := info.Types[lhs]; ok {
				c.checkIfaceConversion(n.Rhs[i], lt.Type, "assigns")
			}
		}
	case *ast.ReturnStmt:
		if c.sig == nil || c.sig.Results() == nil || len(n.Results) != c.sig.Results().Len() {
			break
		}
		for i, res := range n.Results {
			c.checkIfaceConversion(res, c.sig.Results().At(i).Type(), "returns")
		}
	case *ast.ValueSpec:
		if n.Type != nil {
			if tt, ok := info.Types[n.Type]; ok {
				for _, v := range n.Values {
					c.checkIfaceConversion(v, tt.Type, "assigns")
				}
			}
		}
	}
	return true
}

func (c *checker) checkCall(call *ast.CallExpr) {
	pass, info := c.pass, c.pass.Info
	fun := ast.Unparen(call.Fun)

	// Type conversion T(x).
	if framework.IsTypeExpr(info, fun) {
		tv := info.Types[fun]
		if types.IsInterface(tv.Type) {
			c.checkIfaceConversion(call.Args[0], tv.Type, "converts")
		}
		if len(call.Args) == 1 {
			from, ok := info.Types[call.Args[0]]
			if ok && stringBytesConv(from.Type, tv.Type) {
				pass.Reportf(call.Pos(), "hot path converts between string and byte/rune slice (allocates)")
			}
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				pass.Reportf(call.Pos(), "hot path calls append (may grow the backing array)")
			case "make":
				pass.Reportf(call.Pos(), "hot path calls make (allocates)")
			case "new":
				pass.Reportf(call.Pos(), "hot path calls new (allocates)")
			case "panic":
				if len(call.Args) == 1 {
					if tv, ok := info.Types[call.Args[0]]; !ok || tv.Value == nil {
						pass.Reportf(call.Pos(), "hot path panics with a non-constant value (boxes into interface)")
					}
				}
			}
			return
		}
	}

	// Package-qualified calls into banned packages.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if pkg := framework.PkgNameOf(info, sel); pkg != "" {
			if why, banned := bannedPkgs[pkg]; banned {
				pass.Reportf(call.Pos(), "hot path calls %s.%s (%s)", pkg, sel.Sel.Name, why)
				return
			}
			if why, banned := bannedFuncs[pkg+"."+sel.Sel.Name]; banned {
				pass.Reportf(call.Pos(), "hot path calls %s.%s (%s)", pkg, sel.Sel.Name, why)
				return
			}
		}
	}

	// Implicit interface conversions at the call boundary.
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt != nil {
			c.checkIfaceConversion(arg, pt, "passes")
		}
	}
}

// checkIfaceConversion reports expr when it is a non-constant concrete value
// being converted to a (non-empty or empty) interface destination — a boxing
// allocation unless the value is pointer-shaped, which escape analysis
// cannot be trusted to exploit on a hot path.
func (c *checker) checkIfaceConversion(expr ast.Expr, dst types.Type, verb string) {
	if !types.IsInterface(dst) {
		return
	}
	tv, ok := c.pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil { // constants convert via static data
		return
	}
	src := tv.Type
	if types.IsInterface(src) {
		return // interface-to-interface: no box
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, isPtr := src.Underlying().(*types.Pointer); isPtr {
		return // pointer-shaped: fits the iface data word, no allocation
	}
	c.pass.Reportf(expr.Pos(), "hot path %s non-constant %s into interface %s (boxing allocation)", verb, src, dst)
}

// stringBytesConv reports a conversion between string and []byte/[]rune in
// either direction.
func stringBytesConv(from, to types.Type) bool {
	return isString(from) && isByteOrRuneSlice(to) || isString(to) && isByteOrRuneSlice(from)
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}
