package framework

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc type-checks src (a full file) and returns the named function's
// declaration plus the types.Info.
func parseFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test_src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info
		}
	}
	t.Fatalf("function %s not found", name)
	return nil, nil
}

// findStmt locates the first node in the CFG whose source text position
// matches a predicate; used to anchor assertions to specific statements.
func findNode(c *CFG, pred func(ast.Node) bool) (Pos, ast.Node) {
	for bi, bl := range c.Blocks {
		for ni, n := range bl.Nodes {
			if pred(n) {
				return Pos{Block: bi, Index: ni}, n
			}
		}
	}
	return Pos{Block: -1}, nil
}

func isCallNamed(n ast.Node, fn string) bool {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == fn
}

const cfgSrc = `package p

func a() {}
func b() {}
func c() {}
func d() {}

func branchy(cond bool) {
	a()
	if cond {
		b()
	} else {
		c()
	}
	d()
}

func loopy(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
		total += i
	}
	return total
}

func switchy(n int) {
	switch n {
	case 1:
		a()
	case 2:
		b()
	default:
		c()
	}
	d()
}

func early(cond bool) {
	if cond {
		a()
		return
	}
	b()
}

func defs(cond bool) int {
	x := 1
	if cond {
		x = 2
	}
	return x
}

func zeroThenSet(cond bool) *int {
	var p *int
	if cond {
		v := 1
		p = &v
	}
	return p
}
`

func TestCFGBranchDominance(t *testing.T) {
	fd, _ := parseFunc(t, cfgSrc, "branchy")
	c := BuildCFG(fd.Body)

	aPos, _ := findNode(c, func(n ast.Node) bool { return isCallNamed(n, "a") })
	bPos, _ := findNode(c, func(n ast.Node) bool { return isCallNamed(n, "b") })
	cPos, _ := findNode(c, func(n ast.Node) bool { return isCallNamed(n, "c") })
	dPos, _ := findNode(c, func(n ast.Node) bool { return isCallNamed(n, "d") })
	for _, p := range []Pos{aPos, bPos, cPos, dPos} {
		if p.Block < 0 {
			t.Fatalf("call not found in CFG:\n%s", c)
		}
	}

	// a() runs on every path: it dominates both arms and the join.
	for _, q := range []Pos{bPos, cPos, dPos} {
		if !aPos.Before(q, c) {
			t.Errorf("a() should execute before block %d on all paths", q.Block)
		}
	}
	// Neither arm dominates the join.
	if bPos.Before(dPos, c) && bPos.Block != dPos.Block {
		t.Errorf("then-arm b() must not dominate join d()")
	}
	if cPos.Before(dPos, c) && cPos.Block != dPos.Block {
		t.Errorf("else-arm c() must not dominate join d()")
	}
	// The arms are mutually exclusive.
	if c.Dominates(bPos.Block, cPos.Block) || c.Dominates(cPos.Block, bPos.Block) {
		t.Errorf("if arms must not dominate each other")
	}
}

func TestCFGLoopEdges(t *testing.T) {
	fd, _ := parseFunc(t, cfgSrc, "loopy")
	c := BuildCFG(fd.Body)

	retPos, _ := findNode(c, func(n ast.Node) bool { _, ok := n.(*ast.ReturnStmt); return ok })
	brkPos, _ := findNode(c, func(n ast.Node) bool {
		b, ok := n.(*ast.BranchStmt)
		return ok && b.Tok == token.BREAK
	})
	bodyPos, _ := findNode(c, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok == token.ADD_ASSIGN
	})
	if retPos.Block < 0 || brkPos.Block < 0 || bodyPos.Block < 0 {
		t.Fatalf("statements not all present in CFG:\n%s", c)
	}

	// The return is reachable both via loop exit and via break.
	if !c.Reachable(brkPos.Block)[retPos.Block] {
		t.Errorf("break must reach the return")
	}
	if !c.Reachable(bodyPos.Block)[retPos.Block] {
		t.Errorf("loop body must reach the return via the back edge and exit")
	}
	// Loop body does not dominate the return (break path skips total += i... but
	// break is before the add; the add block must not dominate return).
	if c.Dominates(bodyPos.Block, retPos.Block) {
		t.Errorf("loop body tail must not dominate the function exit")
	}
	// The statement after a branch that ends in break is still dominated by
	// the branch condition: the dead block a break leaves behind is a
	// predecessor of the join in the graph, and must not cost the join its
	// dominators.
	condPos, _ := findNode(c, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		return ok && be.Op == token.EQL
	})
	if condPos.Block < 0 || !condPos.Before(bodyPos, c) {
		t.Errorf("i == 3 must execute before total += i on every path:\n%s", c)
	}
	// The loop body can re-reach itself (back edge).
	if !c.Reachable(bodyPos.Block)[bodyPos.Block] {
		t.Errorf("loop body should be on a cycle")
	}
}

func TestCFGSwitchAndReturn(t *testing.T) {
	fd, _ := parseFunc(t, cfgSrc, "switchy")
	c := BuildCFG(fd.Body)
	aPos, _ := findNode(c, func(n ast.Node) bool { return isCallNamed(n, "a") })
	bPos, _ := findNode(c, func(n ast.Node) bool { return isCallNamed(n, "b") })
	dPos, _ := findNode(c, func(n ast.Node) bool { return isCallNamed(n, "d") })
	// Every case reaches the join; no case dominates it (default exists).
	for _, p := range []Pos{aPos, bPos} {
		if !c.Reachable(p.Block)[dPos.Block] {
			t.Errorf("case block %d must reach the join", p.Block)
		}
		if c.Dominates(p.Block, dPos.Block) {
			t.Errorf("case block %d must not dominate the join", p.Block)
		}
	}

	fd, _ = parseFunc(t, cfgSrc, "early")
	c = BuildCFG(fd.Body)
	aPos, _ = findNode(c, func(n ast.Node) bool { return isCallNamed(n, "a") })
	bPos, _ = findNode(c, func(n ast.Node) bool { return isCallNamed(n, "b") })
	// a(); return — nothing after the return is reachable from a's block
	// except via... nothing: b() must not be reachable from a().
	if c.Reachable(aPos.Block)[bPos.Block] {
		t.Errorf("early return arm must not reach the else path")
	}
}

func TestReachingDefs(t *testing.T) {
	fd, info := parseFunc(t, cfgSrc, "defs")
	c := BuildCFG(fd.Body)
	r := BuildReachingDefs(c, info, SigVars(info, fd.Recv, fd.Type))

	retPos, retNode := findNode(c, func(n ast.Node) bool { _, ok := n.(*ast.ReturnStmt); return ok })
	ret := retNode.(*ast.ReturnStmt)
	xv := info.Uses[ret.Results[0].(*ast.Ident)].(*types.Var)

	ds := r.At(xv, retPos)
	if len(ds) != 2 {
		t.Fatalf("expected both definitions of x to reach the return, got %d", len(ds))
	}

	// At the x = 2 assignment itself, only x := 1 reaches.
	asgPos, _ := findNode(c, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		return ok && as.Tok == token.ASSIGN
	})
	ds = r.At(xv, asgPos)
	if len(ds) != 1 {
		t.Fatalf("expected one reaching def at x = 2, got %d", len(ds))
	}
	if ds[0].RHS == nil {
		t.Errorf("x := 1 definition should carry its RHS")
	}
}

func TestReachingDefsZeroValue(t *testing.T) {
	fd, info := parseFunc(t, cfgSrc, "zeroThenSet")
	c := BuildCFG(fd.Body)
	r := BuildReachingDefs(c, info, SigVars(info, fd.Recv, fd.Type))

	retPos, retNode := findNode(c, func(n ast.Node) bool { _, ok := n.(*ast.ReturnStmt); return ok })
	ret := retNode.(*ast.ReturnStmt)
	pv := info.Uses[ret.Results[0].(*ast.Ident)].(*types.Var)

	ds := r.At(pv, retPos)
	if len(ds) != 2 {
		t.Fatalf("expected zero-value and assigned defs of p at return, got %d", len(ds))
	}
	var sawZero bool
	for _, d := range ds {
		if d.Zero {
			sawZero = true
		}
	}
	if !sawZero {
		t.Errorf("var p *int declaration should be a zero-value definition")
	}
}

func TestParamsAreEntryDefs(t *testing.T) {
	fd, info := parseFunc(t, cfgSrc, "defs")
	c := BuildCFG(fd.Body)
	params := SigVars(info, fd.Recv, fd.Type)
	if len(params) != 1 {
		t.Fatalf("expected 1 param var, got %d", len(params))
	}
	r := BuildReachingDefs(c, info, params)
	ds := r.At(params[0], Pos{Block: 0, Index: 0})
	if len(ds) != 1 || !ds[0].Param {
		t.Fatalf("parameter should have exactly its entry definition, got %+v", ds)
	}
}
