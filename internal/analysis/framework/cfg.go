// cfg.go implements the framework's SSA-lite layer: a statement-level
// control-flow graph over one function body and block dominance. It is the
// substrate atomicorder queries for "does this
// publish precede that write?" questions that a purely syntactic walk
// cannot answer.
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
