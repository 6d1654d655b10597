// Package atomicorder implements the smat-lint analyzer verifying the
// repository's atomic publish protocols — the ordering discipline that makes
// the lock-free hot paths correct, which neither the race detector (it needs
// a racing execution) nor vet can check structurally.
//
// The tuned-handle slot (smat.Matrix), the plan cache (kernels.Mat) and the
// worker pool barrier (kernels.Pool) all follow one pattern: build a value
// completely, publish it with a single atomic store, and have every consumer
// take one atomic load and treat the snapshot as immutable. The analyzer checks that pattern on the framework's SSA-lite
// layer (CFG + dominance + reaching definitions):
//
//   - a pointer passed to an atomic Store must not be mutated afterwards:
//     a write that the store dominates is visible to concurrent readers
//     mid-update (torn publish);
//   - the stored pointer's reaching definitions must all be real
//     initializations — when a zero-value `var p *T` definition reaches the
//     Store, the publish is not dominated by initialization;
//   - a snapshot obtained from an atomic Load is read-only; writing through
//     it mutates shared state outside the protocol;
//   - one function takes one Load per slot: a second load of the same slot
//     may observe a swapped value, tearing a computation across two engines;
//   - an atomic field is only touched through its atomic methods — any plain
//     access (copy, address escape) splits the synchronisation domain;
//   - a //smat:wake-barrier function follows the pool's spin-then-park
//     protocol. Every channel send is preceded (dominated) by an atomic
//     countdown Store/Add — waking a worker before arming the barrier lets
//     the completion signal fire early — and by a CompareAndSwap: a token is
//     sent only to a peer whose park advertisement the sender has claimed,
//     or it would sit in the channel and release a later park early. Every
//     channel receive is preceded by an atomic Store (the advertisement) and
//     then an atomic Load (the re-check): blocking without looking again
//     loses the wake-up that raced the advertisement. No plain field is
//     written after the generation publish (the first bare atomic Add after
//     the countdown Store) until a Load of the countdown has seen the
//     dispatch through: spinning peers read those fields the moment the
//     generation moves. Integer and boolean cells may be loaded repeatedly in
//     such a function — polling is the point — the one-Load rule below keeps
//     applying to pointer slots.
//
// _test.go files are exempt: tests legitimately poke protocol internals.
package atomicorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"smat/internal/analysis/framework"
)

// Analyzer is the atomicorder analyzer.
var Analyzer = &framework.Analyzer{
	Name: "atomicorder",
	Doc:  "verify atomic publish protocols: init-dominated stores, immutable load snapshots, one load per slot, barrier ordering",
	Run:  run,
}

// atomicMethods are the methods of the sync/atomic wrapper types. Presence
// here makes a call "atomic access"; everything else touching an atomic
// field is plain access.
var atomicMethods = map[string]bool{
	"Load": true, "Store": true, "Swap": true, "Add": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

// publishMethods are the subset that make a value visible to other
// goroutines.
var publishMethods = map[string]bool{
	"Store": true, "Swap": true, "CompareAndSwap": true,
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
			dirs := framework.FuncDirectives(fd)
			checkFunc(pass, fd.Body, framework.SigVars(pass.Info, fd.Recv, fd.Type), dirs)
			// Closures get their own CFG; they inherit the enclosing
			// declaration's directives.
			for _, fl := range framework.FuncLitsIn(fd.Body) {
				checkFunc(pass, fl.Body, framework.SigVars(pass.Info, nil, fl.Type), dirs)
			}
		}
	}
	return nil
}

// atomCall is one call of an atomic method inside the function under check.
type atomCall struct {
	call    *ast.CallExpr
	sel     *ast.SelectorExpr // receiver.Method
	method  string
	slot    string // render of the receiver expression, e.g. "o.eng"
	pointer bool   // the cell is an atomic.Pointer, i.e. a snapshot slot
	bare    bool   // the call is a statement of its own: its result is dropped
	pos     framework.Pos
}

// fieldWrite is one mutation through a local variable: an assignment or
// inc/dec whose left side dereferences, indexes or selects through base.
type fieldWrite struct {
	node ast.Node
	expr ast.Expr
	base *types.Var
	pos  framework.Pos
}

// checkFunc applies every rule to one function body.
func checkFunc(pass *framework.Pass, body *ast.BlockStmt, params []*types.Var, dirs map[string]bool) {
	cfg := framework.BuildCFG(body)
	rd := framework.BuildReachingDefs(cfg, pass.Info, params)

	var calls []atomCall
	var sends, recvs []chanOp
	var writes []fieldWrite
	okRecv := map[ast.Expr]bool{}
	bare := map[*ast.CallExpr]bool{}

	for bi, bl := range cfg.Blocks {
		for ni, n := range bl.Nodes {
			pos := framework.Pos{Block: bi, Index: ni}
			inspectNode(n, func(m ast.Node) {
				switch m := m.(type) {
				case *ast.ExprStmt:
					if c, ok := ast.Unparen(m.X).(*ast.CallExpr); ok {
						bare[c] = true
					}
				case *ast.UnaryExpr:
					if m.Op == token.ARROW {
						recvs = append(recvs, chanOp{m, pos})
					}
				case *ast.CallExpr:
					if ac, ok := asAtomicCall(pass.Info, m); ok {
						ac.pos = pos
						ac.bare = bare[m]
						calls = append(calls, ac)
						okRecv[ast.Unparen(ac.sel.X)] = true
					}
				case *ast.SendStmt:
					sends = append(sends, chanOp{m, pos})
				case *ast.AssignStmt:
					for _, lhs := range m.Lhs {
						if w, ok := asFieldWrite(pass.Info, m, lhs); ok {
							w.pos = pos
							writes = append(writes, w)
						}
					}
				case *ast.IncDecStmt:
					if w, ok := asFieldWrite(pass.Info, m, m.X); ok {
						w.pos = pos
						writes = append(writes, w)
					}
				}
			})
		}
	}

	// Rule: a published pointer is not mutated after its Store, and every
	// definition reaching the Store is a real initialization.
	for _, ac := range calls {
		if !publishMethods[ac.method] || len(ac.call.Args) == 0 {
			continue
		}
		arg := ast.Unparen(ac.call.Args[len(ac.call.Args)-1]) // CompareAndSwap publishes its last arg
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue // composite literals and call results have no later alias
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || !isPointer(v.Type()) {
			continue
		}
		for _, w := range writes {
			if w.base == v && ac.pos.Before(w.pos, cfg) {
				pass.Reportf(w.node.Pos(),
					"%s is mutated after being atomically published via %s.%s; a concurrent reader can observe the torn update — initialize fully before the store",
					v.Name(), ac.slot, ac.method)
			}
		}
		for _, d := range rd.At(v, ac.pos) {
			if d.Zero || isNilExpr(pass.Info, d.RHS) {
				pass.Reportf(ac.call.Pos(),
					"atomic publish of %s via %s.%s may store its zero value: a nil/zero definition reaches the store — dominate the publish with full initialization",
					v.Name(), ac.slot, ac.method)
			}
		}
	}

	// Rule: snapshots from an atomic Load are immutable.
	for _, w := range writes {
		for _, d := range rd.At(w.base, w.pos) {
			if lc, ok := loadCallOf(pass.Info, d.RHS); ok {
				pass.Reportf(w.node.Pos(),
					"write through atomic Load snapshot %s (loaded from %s); consumers must treat loaded state as immutable",
					w.base.Name(), lc)
				break
			}
		}
	}

	// Rule: one Load per slot per function.
	loadsBySlot := map[string]int{}
	for _, ac := range calls {
		if ac.method != "Load" || (dirs["smat:wake-barrier"] && !ac.pointer) {
			continue
		}
		loadsBySlot[ac.slot]++
		if loadsBySlot[ac.slot] > 1 {
			pass.Reportf(ac.call.Pos(),
				"atomic slot %s is loaded more than once in one function; a second load may observe a concurrent swap — reuse the first snapshot",
				ac.slot)
		}
	}

	// Rule: atomic fields are only touched through their atomic methods.
	for bi := range cfg.Blocks {
		for _, n := range cfg.Blocks[bi].Nodes {
			inspectNode(n, func(m ast.Node) {
				sel, ok := m.(*ast.SelectorExpr)
				if !ok || okRecv[sel] {
					return
				}
				tv, ok := pass.Info.Types[sel]
				if !ok || !tv.IsValue() || !isAtomicType(tv.Type) {
					return
				}
				pass.Reportf(sel.Pos(),
					"plain access to atomic field %s; all access must go through its atomic methods (copying or address-escaping the cell splits the synchronisation domain)",
					types.ExprString(sel))
			})
		}
	}

	if dirs["smat:wake-barrier"] {
		checkWakeBarrier(pass, cfg, calls, sends, recvs, writes)
	}
}

// chanOp is one channel send statement or receive expression.
type chanOp struct {
	node ast.Node
	pos  framework.Pos
}

// checkWakeBarrier applies the spin-then-park barrier rules (see the package
// comment) to one //smat:wake-barrier function body.
func checkWakeBarrier(pass *framework.Pass, cfg *framework.CFG, calls []atomCall, sends, recvs []chanOp, writes []fieldWrite) {
	// before reports whether some call accepted by ok precedes pos, and that
	// call.
	before := func(pos framework.Pos, ok func(atomCall) bool) (atomCall, bool) {
		for _, ac := range calls {
			if ok(ac) && ac.pos.Before(pos, cfg) {
				return ac, true
			}
		}
		return atomCall{}, false
	}
	countdown := func(ac atomCall) bool { return ac.method == "Store" || ac.method == "Add" }

	for _, s := range sends {
		if _, armed := before(s.pos, countdown); !armed {
			pass.Reportf(s.node.Pos(),
				"channel send in a //smat:wake-barrier function is not preceded by an atomic countdown Store/Add; waking a worker before arming the barrier lets the completion signal fire early")
		}
		if _, claimed := before(s.pos, func(ac atomCall) bool { return ac.method == "CompareAndSwap" }); !claimed {
			pass.Reportf(s.node.Pos(),
				"channel send in a //smat:wake-barrier function is not gated on a CompareAndSwap claiming the receiver's park advertisement; an unclaimed token stays in the channel and releases a later park early")
		}
	}

	for _, r := range recvs {
		parked := false
		for _, adv := range calls {
			if adv.method != "Store" || !adv.pos.Before(r.pos, cfg) {
				continue
			}
			if _, rechecked := before(r.pos, func(ac atomCall) bool { return ac.method == "Load" && adv.pos.Before(ac.pos, cfg) }); rechecked {
				parked = true
				break
			}
		}
		if !parked {
			pass.Reportf(r.node.Pos(),
				"channel receive in a //smat:wake-barrier function does not follow the park protocol (atomic Store advertising the park, then an atomic Load re-checking the awaited state); a wake-up that raced the advertisement is lost")
		}
	}

	// The generation publish: the earliest bare Add that a countdown Store
	// precedes. Plain writes after it race the spinning peers until a Load
	// of that countdown has observed the dispatch.
	var publish, arm atomCall
	found := false
	for _, ac := range calls {
		if ac.method != "Add" || !ac.bare {
			continue
		}
		st, ok := before(ac.pos, func(c atomCall) bool { return c.method == "Store" })
		if ok && (!found || ac.pos.Before(publish.pos, cfg)) {
			publish, arm, found = ac, st, true
		}
	}
	if !found {
		return
	}
	for _, w := range writes {
		if !publish.pos.Before(w.pos, cfg) {
			continue
		}
		if _, joined := before(w.pos, func(ac atomCall) bool {
			return ac.method == "Load" && ac.slot == arm.slot && publish.pos.Before(ac.pos, cfg)
		}); !joined {
			pass.Reportf(w.node.Pos(),
				"%s is written after the generation publish %s.Add in a //smat:wake-barrier function, before any Load of the countdown %s; spinning workers read the job fields as soon as the generation moves — write them before the publish",
				types.ExprString(w.expr), publish.slot, arm.slot)
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
		sel:     sel,
		method:  sel.Sel.Name,
		slot:    types.ExprString(sel.X),
		pointer: isAtomicPointer(tv.Type),
	}, true
}

// asFieldWrite matches a mutation whose target routes through a local
// variable: v.f = x, *v = x, v[i] = x, v.f.g++, ... A bare `v = x` is a
// (re)definition, not a write through v, and field writes through package-
// level state are outside the local protocol.
func asFieldWrite(info *types.Info, node ast.Node, lhs ast.Expr) (fieldWrite, bool) {
	e := ast.Unparen(lhs)
	if _, bare := e.(*ast.Ident); bare {
		return fieldWrite{}, false
	}
	for {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(t.X)
		case *ast.StarExpr:
			e = ast.Unparen(t.X)
		case *ast.IndexExpr:
			e = ast.Unparen(t.X)
		case *ast.Ident:
			v, ok := info.Uses[t].(*types.Var)
			if !ok {
				return fieldWrite{}, false
			}
			return fieldWrite{node: node, expr: lhs, base: v}, true
		default:
			return fieldWrite{}, false
		}
	}
}

// loadCallOf reports whether rhs is an atomic Load call, returning the slot
// it loads from.
func loadCallOf(info *types.Info, rhs ast.Expr) (string, bool) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	ac, ok := asAtomicCall(info, call)
	if !ok || ac.method != "Load" {
		return "", false
	}
	return ac.slot, true
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

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return false
	}
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
