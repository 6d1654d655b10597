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

	// The return is reached via the loop exit as well as via break, so the
	// break arm does not dominate it.
	if c.Dominates(brkPos.Block, retPos.Block) {
		t.Errorf("the break arm must not dominate the return")
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
}

func TestCFGSwitchAndReturn(t *testing.T) {
	fd, _ := parseFunc(t, cfgSrc, "switchy")
	c := BuildCFG(fd.Body)
	aPos, _ := findNode(c, func(n ast.Node) bool { return isCallNamed(n, "a") })
	bPos, _ := findNode(c, func(n ast.Node) bool { return isCallNamed(n, "b") })
	dPos, _ := findNode(c, func(n ast.Node) bool { return isCallNamed(n, "d") })
	// No case dominates the join (default exists).
	for _, p := range []Pos{aPos, bPos} {
		if c.Dominates(p.Block, dPos.Block) {
			t.Errorf("case block %d must not dominate the join", p.Block)
		}
	}

	fd, _ = parseFunc(t, cfgSrc, "early")
	c = BuildCFG(fd.Body)
	aPos, _ = findNode(c, func(n ast.Node) bool { return isCallNamed(n, "a") })
	bPos, _ = findNode(c, func(n ast.Node) bool { return isCallNamed(n, "b") })
	// a(); return — the early-return arm must not dominate b().
	if c.Dominates(aPos.Block, bPos.Block) || aPos.Before(bPos, c) {
		t.Errorf("early return arm must not dominate the fall-through path")
	}
}
