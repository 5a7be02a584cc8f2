package lint

// Intra-procedural control-flow graphs over go/ast, the substrate for
// lockorder, the flow-sensitive analyzer. The builder
// lowers one function body into basic blocks of statements/condition
// expressions connected by successor edges; solveForward then runs any
// monotone forward dataflow problem to fixpoint by worklist iteration.
// DESIGN.md §15 describes the model.
//
// The graph is deliberately modest: goto is treated as an opaque jump
// (the repo has none), and expressions stay inside their statements —
// transfer functions walk statement subtrees themselves. Conditions of
// if/for/switch are emitted as standalone nodes so side effects in
// them (calls, assignments via init statements) are seen exactly once
// per traversal of the block.

import (
	"go/ast"
)

// cfgNode is one entry of a basic block: an ast.Stmt, or a bare
// ast.Expr for a lowered condition.
type cfgNode struct {
	Stmt ast.Stmt
	Cond ast.Expr
}

// cfgBlock is a straight-line run of nodes with explicit successors.
type cfgBlock struct {
	index int
	nodes []cfgNode
	succs []*cfgBlock
}

// funcCFG is the graph for one function body. blocks[0] is the entry;
// exit is a synthetic empty block every return/fallthrough reaches.
// defers collects deferred statements in syntactic order: they run at
// exit, and flow-sensitive analyzers fold them into the exit fact.
type funcCFG struct {
	blocks []*cfgBlock
	exit   *cfgBlock
	defers []*ast.DeferStmt
}

// cfgBuilder threads break/continue targets while lowering.
type cfgBuilder struct {
	g    *funcCFG
	cur  *cfgBlock
	brk  []*cfgBlock // innermost-last break targets
	cont []*cfgBlock // innermost-last continue targets
}

// buildCFG lowers body. A nil body (declaration without definition)
// yields a graph with just entry→exit.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{}}
	entry := b.newBlock()
	b.g.exit = b.newBlock()
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.cur, b.g.exit)
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// emit appends a node to the current block; a nil current block means
// the code is unreachable (after return/branch) and the node is
// dropped onto a fresh orphan block so its contents are still visible
// to whole-function walks that iterate blocks.
func (b *cfgBuilder) emit(n cfgNode) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.emit(cfgNode{Cond: s.Cond})
		condBlk := b.cur
		join := b.newBlock()
		thenBlk := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.cur = join
	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		exit := b.newBlock()
		b.cur = head
		if s.Cond != nil {
			b.emit(cfgNode{Cond: s.Cond})
			b.edge(b.cur, exit)
		}
		condEnd := b.cur
		body := b.newBlock()
		b.edge(condEnd, body)
		post := b.newBlock()
		b.pushLoop(exit, post)
		b.cur = body
		b.stmtList(s.Body.List)
		b.popLoop()
		b.edge(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edge(b.cur, head)
		b.cur = exit
	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		exit := b.newBlock()
		b.cur = head
		// The range header both evaluates X and binds Key/Value each
		// iteration; model it as the statement itself.
		b.emit(cfgNode{Stmt: s})
		b.edge(b.cur, exit)
		body := b.newBlock()
		b.edge(b.cur, body)
		b.pushLoop(exit, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.popLoop()
		b.edge(b.cur, head)
		b.cur = exit
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.branchy(s)
	case *ast.LabeledStmt:
		// Labels only matter for labeled break/continue, which we route
		// to the innermost loop anyway (sound for may-analyses: the
		// labeled target is an enclosing loop whose exit joins later).
		b.stmt(s.Stmt)
	case *ast.BranchStmt:
		b.emit(cfgNode{Stmt: s})
		switch s.Tok.String() {
		case "break":
			if t := b.top(b.brk); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case "continue":
			if t := b.top(b.cont); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case "goto":
			b.cur = nil
		}
		// fallthrough is handled by branchy's case chaining.
	case *ast.ReturnStmt:
		b.emit(cfgNode{Stmt: s})
		b.edge(b.cur, b.g.exit)
		b.cur = nil
	case *ast.DeferStmt:
		b.emit(cfgNode{Stmt: s})
		b.g.defers = append(b.g.defers, s)
	default:
		b.emit(cfgNode{Stmt: s})
	}
}

// branchy lowers switch/type-switch/select: evaluate the header, then
// each clause body is an alternative path into a common join.
func (b *cfgBuilder) branchy(s ast.Stmt) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.emit(cfgNode{Cond: s.Tag})
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.emit(cfgNode{Stmt: s.Assign})
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	head := b.cur
	join := b.newBlock()
	hasDefault := false
	var bodies []*cfgBlock
	for _, cl := range clauses {
		var list []ast.Stmt
		var comm ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			list = cl.Body
			if cl.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			list, comm = cl.Body, cl.Comm
			if cl.Comm == nil {
				hasDefault = true
			}
		}
		blk := b.newBlock()
		b.edge(head, blk)
		bodies = append(bodies, blk)
		b.cur = blk
		if comm != nil {
			b.stmt(comm)
		}
		b.pushBreak(join)
		b.stmtList(list)
		b.popBreak()
		// fallthrough chains to the next case body; detect a trailing
		// fallthrough and wire it when the next clause is built.
		if ft := trailingFallthrough(list); ft && b.cur != nil {
			// edge added below once the next body exists
		} else {
			b.edge(b.cur, join)
		}
	}
	// Wire fallthrough edges case→next-case.
	for i, cl := range clauses {
		if cc, ok := cl.(*ast.CaseClause); ok && trailingFallthrough(cc.Body) && i+1 < len(bodies) {
			b.edge(bodies[i], bodies[i+1])
		}
	}
	if !hasDefault || len(clauses) == 0 {
		// Without a default (or with no clauses at all) the statement
		// can complete with no case taken (switch) — and for a select
		// it blocks, but for flow purposes control still reaches join.
		b.edge(head, join)
	}
	b.cur = join
}

func trailingFallthrough(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	br, ok := list[len(list)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

func (b *cfgBuilder) pushLoop(brk, cont *cfgBlock) {
	b.brk = append(b.brk, brk)
	b.cont = append(b.cont, cont)
}

func (b *cfgBuilder) popLoop() {
	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]
}

func (b *cfgBuilder) pushBreak(t *cfgBlock) { b.brk = append(b.brk, t) }
func (b *cfgBuilder) popBreak()             { b.brk = b.brk[:len(b.brk)-1] }

func (b *cfgBuilder) top(stack []*cfgBlock) *cfgBlock {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// solveForward runs worklist iteration on g. init seeds the entry
// block; every other block starts at bottom (nil fact). join merges src
// into dst and reports whether dst changed; transfer computes a
// block's out fact from a copy of its in fact. Facts are values of any
// map-like type F managed entirely by the callbacks. On return, in(b)
// gives each block's converged entry fact, so callers can make one
// more reporting pass per block.
func solveForward[F any](
	g *funcCFG,
	init F,
	clone func(F) F,
	join func(dst, src F) (F, bool),
	transfer func(b *cfgBlock, in F) F,
) map[*cfgBlock]F {
	in := make(map[*cfgBlock]F, len(g.blocks))
	if len(g.blocks) == 0 {
		return in
	}
	in[g.blocks[0]] = init
	work := []*cfgBlock{g.blocks[0]}
	queued := map[*cfgBlock]bool{g.blocks[0]: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := transfer(blk, clone(in[blk]))
		for _, s := range blk.succs {
			cur, ok := in[s]
			if !ok {
				in[s] = clone(out)
				if !queued[s] {
					work = append(work, s)
					queued[s] = true
				}
				continue
			}
			if merged, changed := join(cur, out); changed {
				in[s] = merged
				if !queued[s] {
					work = append(work, s)
					queued[s] = true
				}
			}
		}
	}
	return in
}
