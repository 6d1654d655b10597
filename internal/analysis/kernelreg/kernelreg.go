// Package kernelreg implements the smat-lint analyzer that keeps the kernel
// tables' function values top-level.
//
// The analyzer activates on any package that declares a type named body (the
// kernel-table row; internal/kernels in this repository). Every body
// composite literal is a row, and the analyzer checks:
//
//   - every function value a row holds — its chunk, its hand-written run, or
//     the arguments of the factory call that builds its run — is a top-level
//     function (optionally a generic instantiation), never a closure or a
//     variable: building the table is then the only place function values
//     are materialised, and every body the pool dispatches is a declared
//     function the hotpath analyzer and the bce gate can see by name;
//   - a run factory's returned per-call closure references no value
//     parameter of the factory, which would re-dispatch on it every call:
//     parameters of the chunk type (rangeFn) are already-bound funcvals and
//     may be referenced.
//
// The other table invariants are run-time checks: Library.Register panics on
// a duplicate instance name, and TestFamilyTables checks that every row has
// exactly one body and a partition, that every format has a family with a
// strategy-free anchor row, and that every partition selects bounds on a
// partitioned plan (which covers newPlan's cases).
package kernelreg

import (
	"go/ast"
	"go/types"

	"smat/internal/analysis/framework"
)

// Analyzer is the kernelreg analyzer.
var Analyzer = &framework.Analyzer{
	Name: "kernelreg",
	Doc:  "keep the kernel tables' chunk and run functions top-level, and factory closures free of value parameters",
	Run:  run,
}

func run(pass *framework.Pass) error {
	row, ok := pass.Pkg.Scope().Lookup("body").(*types.TypeName)
	if !ok {
		return nil // not a kernel-table package
	}
	decls := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				decls[fd.Name.Name] = fd
			}
		}
	}
	checked := map[string]bool{}
	framework.Preorder(pass.Files, func(n ast.Node) {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return
		}
		if named, ok := pass.Info.TypeOf(lit).(*types.Named); !ok || named.Obj() != row {
			return
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, _ := kv.Key.(*ast.Ident)
			if key == nil {
				continue
			}
			switch key.Name {
			case "chunk":
				checkTopLevel(pass, kv.Value, "chunk")
			case "run":
				call, ok := ast.Unparen(kv.Value).(*ast.CallExpr)
				if !ok {
					checkTopLevel(pass, kv.Value, "run")
					continue
				}
				name, ok := topLevelFuncName(pass, call.Fun)
				if !ok {
					pass.Reportf(call.Pos(), "row run factory must be a top-level function call")
					continue
				}
				for _, arg := range call.Args {
					if _, isFunc := pass.Info.TypeOf(arg).Underlying().(*types.Signature); isFunc {
						checkTopLevel(pass, arg, "factory argument")
					}
				}
				if fd := decls[name]; fd != nil && !checked[name] {
					checked[name] = true
					checkFactory(pass, fd)
				}
			}
		}
	})
	return nil
}

// checkTopLevel reports a function value that is not a top-level function.
func checkTopLevel(pass *framework.Pass, e ast.Expr, what string) {
	if _, ok := topLevelFuncName(pass, e); !ok {
		pass.Reportf(e.Pos(), "row %s must be a top-level function, not a closure or variable", what)
	}
}

// topLevelFuncName resolves an identifier or generic instantiation to a
// package-scope function name.
func topLevelFuncName(pass *framework.Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.IndexExpr:
		id, _ = e.X.(*ast.Ident)
	case *ast.IndexListExpr:
		id, _ = e.X.(*ast.Ident)
	}
	if id == nil {
		return "", false
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg || pass.Pkg.Scope().Lookup(fn.Name()) != fn {
		return "", false
	}
	return fn.Name(), true
}

// checkFactory reports value parameters of a run factory referenced inside
// the per-call closure it returns.
func checkFactory(pass *framework.Pass, fd *ast.FuncDecl) {
	params := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.Defs[name]
			if named, ok := obj.Type().(*types.Named); !ok || named.Obj().Name() != "rangeFn" {
				params[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			_, isLit := n.(*ast.FuncLit)
			return !isLit
		}
		for _, res := range ret.Results {
			lit, ok := res.(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && params[pass.Info.Uses[id]] {
					pass.Reportf(id.Pos(), "factory %s references parameter %s inside the per-call closure; resolve it to a bound funcval in the factory body", fd.Name.Name, id.Name)
				}
				return true
			})
		}
		return true
	})
}
