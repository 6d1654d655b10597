// Package kernelreg implements the smat-lint analyzer that cross-checks the
// kernel tables against the format universe and the plan layer.
//
// The analyzer activates on any package that declares a top-level type named
// family (the kernel-table row container; internal/kernels in this
// repository). It gathers every family composite literal — a format constant
// plus a single and a batch slice of body rows — and the package's
// partitions table (partition constant → name fragment), and checks:
//
//   - a row's name, alone and suffix fragments are string literals and name
//     is non-empty, so every instance name (name + the partition's fragment,
//     or alone on the whole instance, + suffix) is known statically; instance
//     names are unique per namespace (single-vector and batched kernels
//     resolve through separate lookups);
//   - every row has a body: a chunk that is a top-level function (optionally
//     a generic instantiation) — never a closure or a variable, so building
//     the table is the only place function values are materialised (the
//     funcval trick that keeps pooled dispatch allocation-free) — or a
//     hand-written run that is a top-level function or a call to a top-level
//     factory; and is instantiated over at least one declared partition;
//   - a run factory binds its chunk functions once: conversions to the chunk
//     type (rangeFn) must wrap top-level functions and must not appear inside
//     the returned per-call closure; a value parameter of the factory (an
//     unroll depth) must not be referenced inside the closure,
//     which would re-dispatch on it every call — chunk-typed parameters are
//     already-bound funcvals and may be; and the closure handles the serial
//     plan cutoff (an ex.plan.Serial branch), so small matrices never pay the
//     fan-out;
//   - every exported constant of the tables' Format type — wherever that
//     type is defined — has a family with single-vector rows and a
//     strategy-free row instantiated whole (the scoreboard anchor), and,
//     once the package has any batched row, batched rows with such a row
//     too, so the batched serving path never silently loses a format;
//   - the package's newPlan function has a partitioner case for every such
//     format constant.
package kernelreg

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"smat/internal/analysis/framework"
)

// Analyzer is the kernelreg analyzer.
var Analyzer = &framework.Analyzer{
	Name: "kernelreg",
	Doc:  "cross-check the kernel tables: top-level chunk funcs, unique instance names, full format and partitioner coverage",
	Run:  run,
}

// table is one family literal's contribution to a namespace.
type table struct {
	lit    *ast.CompositeLit
	rows   int
	anchor bool
}

type checker struct {
	pass      *framework.Pass
	decls     map[string]*ast.FuncDecl
	frags     map[string]string // partition constant → name fragment
	factories map[string]bool   // run factories already checked
	seen      map[string]bool   // instance names, batch ones prefixed
	// single and batch index the tables by format constant name.
	single, batch map[string]*table
}

func run(pass *framework.Pass) error {
	root := pass.Pkg.Scope().Lookup("family")
	if _, ok := root.(*types.TypeName); !ok {
		return nil // not a kernel-table package
	}
	c := &checker{pass: pass, decls: map[string]*ast.FuncDecl{}, frags: map[string]string{}, factories: map[string]bool{},
		seen: map[string]bool{}, single: map[string]*table{}, batch: map[string]*table{}}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				c.decls[fd.Name.Name] = fd
			}
		}
	}
	c.collectFragments()

	var formatType *types.Named
	framework.Preorder(pass.Files, func(n ast.Node) {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || namedTypeName(pass.Info.TypeOf(lit)) != "family" {
			return
		}
		fields := keyed(lit)
		format := constObj(pass, fields["format"])
		if format == nil {
			pass.Reportf(lit.Pos(), "family format must be a declared format constant")
			return
		}
		formatType, _ = format.Type().(*types.Named)
		c.single[format.Name()] = c.checkRows(lit, fields["single"], false)
		c.batch[format.Name()] = c.checkRows(lit, fields["batch"], true)
	})
	if formatType != nil {
		consts := formatConstants(formatType)
		c.checkCoverage(root.Pos(), consts)
		c.checkPlanCoverage(root.Pos(), consts)
	}
	return nil
}

// collectFragments reads the package-level partitions table: a composite
// literal keyed by partition constant whose elements carry a literal frag.
func (c *checker) collectFragments() {
	framework.Preorder(c.pass.Files, func(n ast.Node) {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "partitions" || len(spec.Values) != 1 {
			return
		}
		if c.pass.Pkg.Scope().Lookup("partitions") != c.pass.Info.Defs[spec.Names[0]] {
			return // a local of the same name
		}
		lit, _ := spec.Values[0].(*ast.CompositeLit)
		for part, val := range keyed(lit) {
			row, _ := val.(*ast.CompositeLit)
			if frag, ok := stringLit(keyed(row)["frag"]); ok {
				c.frags[part] = frag
			} else {
				c.pass.Reportf(val.Pos(), "partition %s must carry a string-literal frag", part)
			}
		}
	})
}

// checkRows validates one namespace's rows of a family literal.
func (c *checker) checkRows(fam *ast.CompositeLit, rows ast.Expr, batch bool) *table {
	t := &table{lit: fam}
	list, _ := rows.(*ast.CompositeLit)
	if list == nil {
		return t
	}
	for _, el := range list.Elts {
		row, ok := el.(*ast.CompositeLit)
		if !ok {
			c.pass.Reportf(el.Pos(), "table row must be a body literal")
			continue
		}
		t.rows++
		fields := keyed(row)
		name, okName := stringLit(fields["name"])
		alone, okAlone := stringLit(fields["alone"])
		suffix, okSuffix := stringLit(fields["suffix"])
		if !okName || !okAlone || !okSuffix || name == "" {
			c.pass.Reportf(row.Pos(), "row name must be a non-empty string literal, alone and suffix string literals")
			continue
		}
		c.checkBody(row, name+suffix, fields)
		over, _ := fields["over"].(*ast.CompositeLit)
		if over == nil || len(over.Elts) == 0 {
			c.pass.Reportf(row.Pos(), "row %q is instantiated over no partition", name+suffix)
			continue
		}
		for _, p := range over.Elts {
			part := constObj(c.pass, p)
			if part == nil {
				c.pass.Reportf(p.Pos(), "row %q partition must be a declared partition constant", name+suffix)
				continue
			}
			frag, declared := c.frags[part.Name()]
			if !declared {
				c.pass.Reportf(p.Pos(), "partition %s has no entry in the partitions table", part.Name())
				continue
			}
			whole := constant.Sign(part.Val()) == 0
			if whole {
				frag = alone
				if isZero(c.pass, fields["strat"]) {
					t.anchor = true
				}
			}
			instance := name + frag + suffix
			key := instance
			if batch {
				key = "batch\x00" + instance
			}
			if c.seen[key] {
				c.pass.Reportf(p.Pos(), "duplicate kernel name %q in the tables", instance)
			}
			c.seen[key] = true
		}
	}
	return t
}

// checkBody validates a row's chunk and run fields and the factory behind a
// call-form run.
func (c *checker) checkBody(row *ast.CompositeLit, label string, fields map[string]ast.Expr) {
	chunk, run := fields["chunk"], fields["run"]
	switch {
	case chunk == nil && run == nil:
		c.pass.Reportf(row.Pos(), "row %q has no chunk or run function", label)
	case chunk != nil:
		if _, ok := ast.Unparen(chunk).(*ast.FuncLit); ok {
			c.pass.Reportf(chunk.Pos(), "row %q chunk must be a top-level function, not a closure", label)
		} else if _, ok := topLevelFuncName(c.pass, chunk); !ok {
			c.pass.Reportf(chunk.Pos(), "row %q chunk must be a top-level function", label)
		}
	}
	switch v := ast.Unparen(run).(type) {
	case nil:
	case *ast.FuncLit:
		c.pass.Reportf(v.Pos(), "row %q run must be a top-level function, not a closure", label)
	case *ast.CallExpr:
		name, ok := topLevelFuncName(c.pass, v.Fun)
		if !ok {
			c.pass.Reportf(v.Pos(), "row %q run factory must be a top-level function call", label)
		} else if fd := c.decls[name]; fd != nil && !c.factories[name] {
			c.factories[name] = true
			checkFactory(c.pass, fd)
		}
	default:
		if _, ok := topLevelFuncName(c.pass, run); !ok {
			c.pass.Reportf(run.Pos(), "row %q run must be a top-level function or factory call", label)
		}
	}
}

// keyed indexes a composite literal's key: value elements by key identifier.
func keyed(lit *ast.CompositeLit) map[string]ast.Expr {
	out := map[string]ast.Expr{}
	if lit == nil {
		return out
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				out[key.Name] = kv.Value
			}
		}
	}
	return out
}

// stringLit reads a string literal; an absent field is the empty string.
func stringLit(e ast.Expr) (string, bool) {
	if e == nil {
		return "", true
	}
	b, ok := e.(*ast.BasicLit)
	if !ok || b.Kind != token.STRING {
		return "", false
	}
	return strings.Trim(b.Value, "\"`"), true
}

// isZero reports an absent field or a constant zero.
func isZero(pass *framework.Pass, e ast.Expr) bool {
	if e == nil {
		return true
	}
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil && constant.Sign(tv.Value) == 0
}

// namedTypeName is the name of t's (instantiated) defined type, if any.
func namedTypeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// constObj resolves the expression to the constant object it denotes.
func constObj(pass *framework.Pass, e ast.Expr) *types.Const {
	switch e := e.(type) {
	case *ast.Ident:
		c, _ := pass.Info.Uses[e].(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := pass.Info.Uses[e.Sel].(*types.Const)
		return c
	}
	return nil
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
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	if fn.Pkg() != pass.Pkg || pass.Pkg.Scope().Lookup(fn.Name()) != fn {
		return "", false
	}
	return fn.Name(), true
}

// checkFactory validates one hand-written runner factory: chunk funcvals
// bound in the factory body (to top-level functions), a returned closure
// that references no value parameter of the factory, and a serial-cutoff
// branch inside that closure.
func checkFactory(pass *framework.Pass, fd *ast.FuncDecl) {
	var returned []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if lit, ok := res.(*ast.FuncLit); ok {
					returned = append(returned, lit)
				}
			}
		}
		return true
	})
	if len(returned) == 0 {
		pass.Reportf(fd.Pos(), "kernel factory %s must return its per-call closure", fd.Name.Name)
		return
	}
	inReturned := func(n ast.Node) bool {
		for _, lit := range returned {
			if lit.Pos() <= n.Pos() && n.Pos() < lit.End() {
				return true
			}
		}
		return false
	}

	// Value parameters must be resolved at bind time; chunk-typed ones are
	// the bound funcvals themselves.
	params := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil && namedTypeName(obj.Type()) != "rangeFn" {
				params[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !isChunkConversion(pass, n) {
				break
			}
			if inReturned(n) {
				pass.Reportf(n.Pos(), "factory %s converts a chunk function inside the per-call closure; bind the funcval once in the factory body", fd.Name.Name)
			} else if _, ok := topLevelFuncName(pass, n.Args[0]); !ok {
				pass.Reportf(n.Args[0].Pos(), "factory %s chunk must be a top-level function, not a closure or local value", fd.Name.Name)
			}
		case *ast.Ident:
			if params[pass.Info.Uses[n]] && inReturned(n) {
				pass.Reportf(n.Pos(), "factory %s references parameter %s inside the per-call closure; resolve it to a bound funcval in the factory body", fd.Name.Name, n.Name)
			}
		}
		return true
	})
	for _, lit := range returned {
		if !mentionsSerial(lit.Body) {
			pass.Reportf(lit.Pos(), "factory %s closure never checks the plan's Serial cutoff", fd.Name.Name)
		}
	}
}

// isChunkConversion reports a conversion to the package's chunk func type
// (a defined type named rangeFn).
func isChunkConversion(pass *framework.Pass, call *ast.CallExpr) bool {
	return len(call.Args) == 1 && framework.IsTypeExpr(pass.Info, call.Fun) &&
		namedTypeName(pass.Info.Types[call.Fun].Type) == "rangeFn"
}

func mentionsSerial(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Serial" {
			found = true
		}
		return !found
	})
	return found
}

// formatConstants returns the exported constants of the format type from its
// defining package (which may be the analyzed package itself).
func formatConstants(formatType *types.Named) []*types.Const {
	scope := formatType.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if named, _ := c.Type().(*types.Named); ok && c.Exported() && named != nil && named.Obj() == formatType.Obj() {
			out = append(out, c)
		}
	}
	return out
}

// checkCoverage requires every format constant to have a family with
// single-vector rows and an anchor among them, and — once the package has any
// batched row — the same over the batched namespace. A missing family is
// reported at the family type, a missing anchor at the family literal.
func (c *checker) checkCoverage(root token.Pos, consts []*types.Const) {
	anyBatch := false
	for _, t := range c.batch {
		anyBatch = anyBatch || t.rows > 0
	}
	for _, fc := range consts {
		for _, ns := range []struct {
			kind   string
			tables map[string]*table
			on     bool
		}{{"", c.single, true}, {"batch ", c.batch, anyBatch}} {
			switch t := ns.tables[fc.Name()]; {
			case !ns.on:
			case t == nil || t.rows == 0:
				c.pass.Reportf(root, "format %s has no registered %skernel", fc.Name(), ns.kind)
			case !t.anchor:
				c.pass.Reportf(t.lit.Pos(), "format %s has no basic (strategy-free) %skernel instantiated whole", fc.Name(), ns.kind)
			}
		}
	}
}

// checkPlanCoverage requires a newPlan function whose switch cases mention
// every format constant.
func (c *checker) checkPlanCoverage(root token.Pos, consts []*types.Const) {
	np := c.decls["newPlan"]
	if np == nil || np.Body == nil {
		c.pass.Reportf(root, "kernel package has no newPlan partitioner function")
		return
	}
	cased := map[string]bool{}
	ast.Inspect(np.Body, func(n ast.Node) bool {
		if cc, ok := n.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				if fc := constObj(c.pass, e); fc != nil {
					cased[fc.Name()] = true
				}
			}
		}
		return true
	})
	for _, fc := range consts {
		if !cased[fc.Name()] {
			c.pass.Reportf(np.Pos(), "format %s has no partitioner case in newPlan", fc.Name())
		}
	}
}
