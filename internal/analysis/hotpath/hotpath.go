// Package hotpath implements the smat-lint analyzer that keeps slow,
// non-allocating constructs out of annotated steady-state functions.
//
// The execution engine (internal/kernels) promises that a steady-state SpMV
// call — RunPooled, plan lookup, pool dispatch, and every kernel chunk body —
// performs zero heap allocations. That half of the contract is a runtime test
// (TestSteadyStatePathZeroAlloc, TestBatchPooledZeroAlloc and the autotune,
// solve and amg zero-allocation tests), which sees every allocation on the
// path it runs. What it cannot see is cost that allocates nothing, or code on
// a branch the test never takes. This analyzer checks that syntactically on
// every function that opts in:
//
//	//smat:hotpath
//	func csrChunk[T matrix.Float](m *Mat[T], x, y []T, lo, hi int) { ... }
//
// marks the whole body hot. A runner factory, whose setup runs once at
// registration but whose returned closure runs per call, uses
//
//	//smat:hotpath-factory
//	func hybPhases[T matrix.Float](ell, tail rangeFn[T]) runFn[T] { ... }
//
// which exempts the factory's setup statements and checks the bodies of the
// func literals it returns.
//
// Inside a hot body the analyzer reports:
//
//   - calls into fmt, log, errors, os, reflect and math/rand, plus time.Now —
//     formatting, I/O, locking or a clock read that has no business on the
//     SpMV path, allocating or not;
//   - defer statements (open-coded: they cost time, not an allocation);
//   - panics carrying non-constant values, whose interface boxing belongs in
//     an outlined //go:noinline helper (the inline gate pins those).
//
// Calls to unannotated functions are allowed: cold helpers (plan
// construction, mismatch panics) live behind ordinary calls.
package hotpath

import (
	"go/ast"
	"go/types"

	"smat/internal/analysis/framework"
)

// Analyzer is the hotpath analyzer.
var Analyzer = &framework.Analyzer{
	Name: "hotpath",
	Doc:  "report slow calls, defer and boxed panics inside //smat:hotpath functions",
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
				checkBody(pass, fd.Body)
			case dirs["smat:hotpath-factory"]:
				lits := returnedFuncLits(fd.Body)
				if len(lits) == 0 {
					pass.Reportf(fd.Pos(), "hot-path factory %s returns no func literal", fd.Name.Name)
				}
				for _, lit := range lits {
					checkBody(pass, lit.Body)
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

// checkBody reports every banned construct in one hot body.
func checkBody(pass *framework.Pass, body *ast.BlockStmt) {
	info := pass.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "hot path uses defer")
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				b, _ := info.Uses[fun].(*types.Builtin)
				if b != nil && b.Name() == "panic" && info.Types[n.Args[0]].Value == nil {
					pass.Reportf(n.Pos(), "hot path panics with a non-constant value (boxes into interface)")
				}
			case *ast.SelectorExpr:
				pkg := framework.PkgNameOf(info, fun)
				why, banned := bannedPkgs[pkg]
				if !banned {
					why, banned = bannedFuncs[pkg+"."+fun.Sel.Name]
				}
				if banned {
					pass.Reportf(n.Pos(), "hot path calls %s.%s (%s)", pkg, fun.Sel.Name, why)
				}
			}
		}
		return true
	})
}
