// cfg.go implements the framework's SSA-lite layer: a statement-level
// control-flow graph over one function body, block dominance, forward
// reachability, and reaching definitions for local variables. It is the
// substrate the dataflow analyzers (atomicorder) query for "does this
// initialization dominate that publish?" and "which definitions reach this
// use?" questions that a purely syntactic walk cannot answer.
//
// The graph is deliberately modest — no SSA renaming, no interprocedural
// edges — but it is sound for the protocols it checks: every statement of the
// source body appears in exactly one block, conditions are recorded in the
// block that evaluates them, and an edge exists for every possible intra-
// function transfer (if/for/range/switch/select/break/continue/return).
// Nested function literals are NOT descended into: a closure body is its own
// function with its own CFG (see FuncLitsIn).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Block is one straight-line run of statements. Nodes holds the statements
// (and branch conditions) in execution order; a node is an ast.Stmt from the
// source body, or an ast.Expr for a condition evaluated at the end of the
// block (if/for/switch tags).
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body. Blocks[0] is the entry
// block.
type CFG struct {
	Blocks []*Block

	dom [][]bool // dom[i][j]: block j dominates block i (lazily built)
}

// Pos locates a node inside a CFG: the block index and the node's position
// within the block.
type Pos struct {
	Block, Index int
}

// Before reports whether p executes strictly before q on every path when
// both are on one (p's block dominating q's, or earlier in the same block).
func (p Pos) Before(q Pos, c *CFG) bool {
	if p.Block == q.Block {
		return p.Index < q.Index
	}
	return c.Dominates(p.Block, q.Block)
}

// BuildCFG constructs the control-flow graph of a function body. A nil body
// (declaration without implementation) yields a single empty entry block.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cur = b.newBlock()
	if body != nil {
		b.stmtList(body.List)
	}
	return b.cfg
}

type loopFrame struct {
	label       string
	brk, cont   *Block
	isSwitch    bool
	nextClause  *Block // fallthrough target inside a switch
	hasFallthru bool
}

type cfgBuilder struct {
	cfg   *CFG
	cur   *Block
	loops []loopFrame
}

func (b *cfgBuilder) newBlock() *Block {
	bl := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, bl)
	return bl
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt appends one statement to the graph. label names the statement when it
// was wrapped in a LabeledStmt (break/continue targets).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlock := b.cur
		join := b.newBlock()
		thenBlock := b.newBlock()
		b.edge(condBlock, thenBlock)
		b.cur = thenBlock
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlock := b.newBlock()
			b.edge(condBlock, elseBlock)
			b.cur = elseBlock
			b.stmt(s.Else, "")
			b.edge(b.cur, join)
		} else {
			b.edge(condBlock, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		exit := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.edge(b.cur, head)
		if s.Cond != nil {
			b.cur = head
			b.add(s.Cond)
			b.edge(head, exit) // condition false
		}
		b.edge(head, body)
		b.loops = append(b.loops, loopFrame{label: label, brk: exit, cont: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.loops = b.loops[:len(b.loops)-1]
		if s.Post != nil {
			b.edge(b.cur, post)
			b.cur = post
			b.add(s.Post)
			b.edge(post, head)
		} else {
			b.edge(b.cur, head)
		}
		if s.Cond == nil {
			// for {}: the only way out is break/return.
		}
		b.cur = exit

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(s) // the range clause itself: defines Key/Value each iteration
		b.edge(head, body)
		b.edge(head, exit)
		b.loops = append(b.loops, loopFrame{label: label, brk: exit, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(b.cur, head)
		b.cur = exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s, label)

	case *ast.SelectStmt:
		head := b.cur
		join := b.newBlock()
		b.loops = append(b.loops, loopFrame{label: label, brk: join, isSwitch: true})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			clause := b.newBlock()
			b.edge(head, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, join)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if len(s.Body.List) == 0 {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ReturnStmt:
		b.add(s)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.target(s.Label, func(f loopFrame) *Block { return f.brk }, true); t != nil {
				b.edge(b.cur, t)
			}
		case token.CONTINUE:
			if t := b.target(s.Label, func(f loopFrame) *Block { return f.cont }, false); t != nil {
				b.edge(b.cur, t)
			}
		case token.FALLTHROUGH:
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].isSwitch {
					b.edge(b.cur, b.loops[i].nextClause)
					break
				}
			}
		case token.GOTO:
			// Approximated as a terminator: no goto exists in the gated code,
			// and a missing edge only under-approximates reachability.
		}
		b.cur = b.newBlock() // unreachable continuation

	default:
		// ExprStmt, AssignStmt, DeclStmt, SendStmt, IncDecStmt, GoStmt,
		// DeferStmt, EmptyStmt: straight-line.
		b.add(s)
	}
}

func (b *cfgBuilder) switchStmt(s ast.Stmt, label string) {
	var init ast.Stmt
	var tag ast.Node
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, tag, clauses = s.Init, s.Tag, s.Body.List
	case *ast.TypeSwitchStmt:
		init, tag, clauses = s.Init, s.Assign, s.Body.List
	}
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	head := b.cur
	join := b.newBlock()
	hasDefault := false

	// Build clause blocks first so fallthrough can point at the next one.
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		var next *Block
		if i+1 < len(blocks) {
			next = blocks[i+1]
		}
		b.loops = append(b.loops, loopFrame{label: label, brk: join, isSwitch: true, nextClause: next})
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(b.cur, join)
	}
	if !hasDefault || len(clauses) == 0 {
		b.edge(head, join)
	}
	b.cur = join
}

// target resolves a break/continue destination; orSwitch also accepts switch
// frames (break applies to them, continue does not).
func (b *cfgBuilder) target(label *ast.Ident, pick func(loopFrame) *Block, orSwitch bool) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := b.loops[i]
		if f.isSwitch && !orSwitch {
			continue
		}
		if label != nil && f.label != label.Name {
			continue
		}
		if t := pick(f); t != nil {
			return t
		}
	}
	return nil
}

// Dominates reports whether block a dominates block b: every path from the
// entry to b passes through a. A block dominates itself. Unreachable blocks
// are treated as dominated by everything (standard fixpoint initialisation),
// which errs toward reporting for dead code.
func (c *CFG) Dominates(a, b int) bool {
	if c.dom == nil {
		c.buildDominators()
	}
	return c.dom[b][a]
}

func (c *CFG) buildDominators() {
	n := len(c.Blocks)
	c.dom = make([][]bool, n)
	for i := range c.dom {
		c.dom[i] = make([]bool, n)
		if i == 0 {
			c.dom[0][0] = true
			continue
		}
		for j := range c.dom[i] {
			c.dom[i][j] = true
		}
	}
	changed := true
	for changed {
		changed = false
		for i := 1; i < n; i++ {
			bl := c.Blocks[i]
			if len(bl.Preds) == 0 {
				continue // unreachable: keeps the all-true initialisation
			}
			next := make([]bool, n)
			for j := range next {
				next[j] = true
			}
			for _, p := range bl.Preds {
				for j := range next {
					next[j] = next[j] && c.dom[p.Index][j]
				}
			}
			next[i] = true
			for j := range next {
				if next[j] != c.dom[i][j] {
					c.dom[i] = next
					changed = true
					break
				}
			}
		}
	}
}

// Reachable returns the set of block indices reachable from start by
// following successor edges (start itself is included only when it lies on a
// cycle).
func (c *CFG) Reachable(start int) map[int]bool {
	seen := map[int]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				walk(s)
			}
		}
	}
	walk(c.Blocks[start])
	return seen
}

// DefSite is one definition of a local variable: an assignment, a var
// declaration, a range clause, a type-switch binding, or a function
// parameter. RHS is the defining expression when the definition has exactly
// one (nil for zero-value declarations, range/type-switch bindings, params
// and multi-value assignments).
type DefSite struct {
	Var   *types.Var
	Node  ast.Node
	RHS   ast.Expr
	Param bool // parameter or receiver: defined at entry, always initialized
	Zero  bool // `var x T` with no initializer: the zero value
	Pos   Pos  // position in the CFG (Pos{0,-1} for parameters)
}

// ReachingDefs answers "which definitions of v can reach this program
// point?" for the local variables of one function.
type ReachingDefs struct {
	cfg  *CFG
	defs []*DefSite
	// in[b] holds the def IDs live at block b's entry.
	in []map[int]bool
	// byVar indexes defs by variable.
	byVar map[*types.Var][]int
}

// BuildReachingDefs runs the reaching-definitions dataflow over a CFG.
// fn supplies the function's parameter/receiver/result objects (entry
// definitions); info resolves identifiers to objects.
func BuildReachingDefs(c *CFG, info *types.Info, params []*types.Var) *ReachingDefs {
	r := &ReachingDefs{cfg: c, byVar: map[*types.Var][]int{}}
	addDef := func(d *DefSite) int {
		id := len(r.defs)
		r.defs = append(r.defs, d)
		r.byVar[d.Var] = append(r.byVar[d.Var], id)
		return id
	}
	for _, p := range params {
		addDef(&DefSite{Var: p, Param: true, Pos: Pos{Block: 0, Index: -1}})
	}

	// gen[b]: for each var, the ID of its last definition in block b.
	gen := make([]map[*types.Var]int, len(c.Blocks))
	for bi, bl := range c.Blocks {
		gen[bi] = map[*types.Var]int{}
		for ni, n := range bl.Nodes {
			for _, d := range defsOf(n, info) {
				d.Pos = Pos{Block: bi, Index: ni}
				id := addDef(d)
				gen[bi][d.Var] = id
			}
		}
	}

	// Iterate IN/OUT to fixpoint. OUT[b] = gen[b] ∪ (IN[b] − kill[b]).
	r.in = make([]map[int]bool, len(c.Blocks))
	out := make([]map[int]bool, len(c.Blocks))
	for i := range r.in {
		r.in[i] = map[int]bool{}
		out[i] = map[int]bool{}
	}
	// Entry block starts with the parameter defs.
	for id, d := range r.defs {
		if d.Param {
			r.in[0][id] = true
		}
	}
	changed := true
	for changed {
		changed = false
		for bi, bl := range c.Blocks {
			in := map[int]bool{}
			for id := range r.in[bi] {
				in[id] = true // seeded entry defs
			}
			for _, p := range bl.Preds {
				for id := range out[p.Index] {
					in[id] = true
				}
			}
			if bi == 0 {
				for id, d := range r.defs {
					if d.Param {
						in[id] = true
					}
				}
			}
			r.in[bi] = in
			o := map[int]bool{}
			for id := range in {
				if _, killed := gen[bi][r.defs[id].Var]; !killed {
					o[id] = true
				}
			}
			for _, id := range sortedVals(gen[bi]) {
				o[id] = true
			}
			if !sameSet(o, out[bi]) {
				out[bi] = o
				changed = true
			}
		}
	}
	return r
}

func sortedVals(m map[*types.Var]int) []int {
	out := make([]int, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// At returns the definitions of v that can reach the program point just
// before node index `idx` of block `block`.
func (r *ReachingDefs) At(v *types.Var, p Pos) []*DefSite {
	live := map[int]bool{}
	for id := range r.in[p.Block] {
		if r.defs[id].Var == v {
			live[id] = true
		}
	}
	// Apply this block's definitions up to (not including) idx.
	bl := r.cfg.Blocks[p.Block]
	for ni := 0; ni < p.Index && ni < len(bl.Nodes); ni++ {
		for _, id := range r.byVar[v] {
			d := r.defs[id]
			if d.Pos.Block == p.Block && d.Pos.Index == ni {
				for old := range live {
					delete(live, old)
				}
				live[id] = true
			}
		}
	}
	out := make([]*DefSite, 0, len(live))
	for _, id := range r.byVar[v] { // deterministic order
		if live[id] {
			out = append(out, r.defs[id])
		}
	}
	return out
}

// Defs returns every definition site of v in the function.
func (r *ReachingDefs) Defs(v *types.Var) []*DefSite {
	var out []*DefSite
	for _, id := range r.byVar[v] {
		out = append(out, r.defs[id])
	}
	return out
}

// defsOf extracts the variable definitions a single CFG node performs.
// Nested function literals are skipped: their assignments belong to their own
// CFG.
func defsOf(n ast.Node, info *types.Info) []*DefSite {
	var out []*DefSite
	local := func(id *ast.Ident) *types.Var {
		if id == nil || id.Name == "_" {
			return nil
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, _ := obj.(*types.Var)
		return v
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		oneToOne := len(n.Lhs) == len(n.Rhs)
		for i, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue // field/index writes are mutations, not defs
			}
			if v := local(id); v != nil {
				d := &DefSite{Var: v, Node: n}
				if oneToOne {
					d.RHS = n.Rhs[i]
				}
				out = append(out, d)
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			break
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if v := local(name); v != nil {
					d := &DefSite{Var: v, Node: n}
					if len(vs.Values) == len(vs.Names) {
						d.RHS = vs.Values[i]
					} else if len(vs.Values) == 0 {
						d.Zero = true
					}
					out = append(out, d)
				}
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if v := local(id); v != nil {
					out = append(out, &DefSite{Var: v, Node: n})
				}
			}
		}
	case *ast.TypeSwitchStmt:
		// Handled via the Assign statement recorded in the head block.
	}
	if as, ok := n.(ast.Stmt); ok {
		_ = as
	}
	return out
}

// FuncLitsIn returns every function literal nested anywhere inside n,
// outermost first, so callers can analyze closure bodies as functions of
// their own.
func FuncLitsIn(n ast.Node) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(n, func(m ast.Node) bool {
		if fl, ok := m.(*ast.FuncLit); ok {
			out = append(out, fl)
		}
		return true
	})
	return out
}

// SigVars collects the parameter and receiver variables of a function
// signature for BuildReachingDefs.
func SigVars(info *types.Info, recv *ast.FieldList, typ *ast.FuncType) []*types.Var {
	var out []*types.Var
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					out = append(out, v)
				}
			}
		}
	}
	collect(recv)
	if typ != nil {
		collect(typ.Params)
		collect(typ.Results)
	}
	return out
}

// String renders the CFG for debugging.
func (c *CFG) String() string {
	s := ""
	for _, b := range c.Blocks {
		s += fmt.Sprintf("b%d(%d nodes) ->", b.Index, len(b.Nodes))
		for _, t := range b.Succs {
			s += fmt.Sprintf(" b%d", t.Index)
		}
		s += "\n"
	}
	return s
}
