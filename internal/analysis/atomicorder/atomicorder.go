// Package atomicorder implements the smat-lint analyzer for the parts of
// the repository's atomic protocols that neither the tests, the race
// detector nor vet can see.
//
// The tuned-handle slot (smat.Matrix), the plan cache (kernels.Mat) and the
// worker pool barrier (kernels.Pool) follow one pattern: build a value
// completely, publish it with a single atomic store, and have every consumer
// take one atomic load. The race detector reports a write after the publish
// or through a loaded snapshot, the tests a nil publish or a job field
// written after the claim word's publish, and vet a copied atomic cell. The
// analyzer checks the rest on the framework's CFG layer (control flow plus
// dominance):
//
//   - one function takes one Load per pointer slot: a second load of the
//     same slot may observe a concurrent store, tearing a computation across
//     two values — and both loads are atomic, so there is no race to report.
//     Integer and boolean cells may be loaded repeatedly in a
//     //smat:wake-barrier function: polling is the point;
//   - in a //smat:wake-barrier function every channel send is preceded on
//     every path by a CompareAndSwap: a token goes only to a peer whose park
//     advertisement the sender has claimed, or it sits in the channel and
//     cuts a later park short — a lost edge no test or race report shows.
//
// _test.go files are exempt: tests legitimately poke protocol internals.
package atomicorder

import (
	"go/ast"
	"go/types"
	"strings"

	"smat/internal/analysis/framework"
)

// Analyzer is the atomicorder analyzer.
var Analyzer = &framework.Analyzer{
	Name: "atomicorder",
	Doc:  "verify atomic protocols: one load per pointer slot, wake tokens only for a claimed park",
	Run:  run,
}

// atomicMethods are the methods of the sync/atomic wrapper types.
var atomicMethods = map[string]bool{
	"Load": true, "Store": true, "Swap": true, "Add": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			barrier := framework.FuncDirectives(fd)["smat:wake-barrier"]
			checkFunc(pass, fd.Body, barrier)
			// Closures get their own CFG; they inherit the enclosing
			// declaration's directives.
			for _, fl := range framework.FuncLitsIn(fd.Body) {
				checkFunc(pass, fl.Body, barrier)
			}
		}
	}
	return nil
}

// atomCall is one call of an atomic method inside the function under check.
type atomCall struct {
	call    *ast.CallExpr
	method  string
	slot    string // render of the receiver expression, e.g. "a.tuned"
	pointer bool   // the cell is an atomic.Pointer, i.e. a snapshot slot
	pos     framework.Pos
}

// checkFunc applies both rules to one function body.
func checkFunc(pass *framework.Pass, body *ast.BlockStmt, barrier bool) {
	cfg := framework.BuildCFG(body)
	var calls []atomCall
	type send struct {
		node ast.Node
		pos  framework.Pos
	}
	var sends []send
	for bi, bl := range cfg.Blocks {
		for ni, n := range bl.Nodes {
			pos := framework.Pos{Block: bi, Index: ni}
			inspectNode(n, func(m ast.Node) {
				switch m := m.(type) {
				case *ast.CallExpr:
					if ac, ok := asAtomicCall(pass.Info, m); ok {
						ac.pos = pos
						calls = append(calls, ac)
					}
				case *ast.SendStmt:
					sends = append(sends, send{m, pos})
				}
			})
		}
	}

	loadsBySlot := map[string]int{}
	for _, ac := range calls {
		if ac.method != "Load" || (barrier && !ac.pointer) {
			continue
		}
		loadsBySlot[ac.slot]++
		if loadsBySlot[ac.slot] > 1 {
			pass.Reportf(ac.call.Pos(),
				"atomic slot %s is loaded more than once in one function; a second load may observe a concurrent swap — reuse the first snapshot",
				ac.slot)
		}
	}

	if !barrier {
		return
	}
	for _, s := range sends {
		claimed := false
		for _, ac := range calls {
			claimed = claimed || ac.method == "CompareAndSwap" && ac.pos.Before(s.pos, cfg)
		}
		if !claimed {
			pass.Reportf(s.node.Pos(),
				"channel send in a //smat:wake-barrier function is not gated on a CompareAndSwap claiming the receiver's park advertisement; an unclaimed token stays in the channel and releases a later park early")
		}
	}
}

// inspectNode walks one CFG node's subtree without crossing into territory
// that belongs to other blocks: function literals have their own CFGs, and a
// RangeStmt node stands only for its clause (key/value/operand) — its body
// statements live in the loop's body block.
func inspectNode(n ast.Node, fn func(ast.Node)) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value, rs.X} {
			if e != nil {
				inspectNode(e, fn)
			}
		}
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		fn(m)
		return true
	})
}

// asAtomicCall matches expr.Method(...) where expr's type is a sync/atomic
// wrapper struct.
func asAtomicCall(info *types.Info, call *ast.CallExpr) (atomCall, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !atomicMethods[sel.Sel.Name] {
		return atomCall{}, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isAtomicType(tv.Type) {
		return atomCall{}, false
	}
	return atomCall{
		call:    call,
		method:  sel.Sel.Name,
		slot:    types.ExprString(sel.X),
		pointer: isAtomicPointer(tv.Type),
	}, true
}

// isAtomicType reports whether t (or its pointee) is one of the sync/atomic
// wrapper structs (atomic.Pointer[T], atomic.Int32, ...). Interfaces from
// that package carry no cell and do not count.
func isAtomicType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || pkg.Path() != "sync/atomic" {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// isAtomicPointer reports whether t (or its pointee) is atomic.Pointer[T]:
// the cells whose Load hands out a snapshot, as opposed to the integer and
// boolean cells a barrier polls.
func isAtomicPointer(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pointer"
}
