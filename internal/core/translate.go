package core

import (
	"math"

	"gmpregel/internal/gm/analysis"
	"gmpregel/internal/gm/ast"
	"gmpregel/internal/gm/sema"
	"gmpregel/internal/gm/token"
	"gmpregel/internal/ir"
	"gmpregel/internal/machine"
)

// translator lowers a Pregel-canonical AST to a machine.Program,
// applying the §3.1 translation rules: state machine construction,
// vertex/global object construction, neighborhood communication (with
// payload dataflow analysis), multiple communication (tagged messages),
// random writing, and edge properties.
type translator struct {
	proc  *ast.Procedure
	info  *sema.Info
	trace *Trace
	prog  *machine.Program
	err   error

	scalarSlot map[*sema.Symbol]int
	propSlot   map[*sema.Symbol]int
	aggSlot    map[aggKey]int

	nodes []machine.CFGNode
	cur   []ir.Stmt // pending master statements
}

type aggKey struct {
	scalar int
	op     ast.AssignOp
}

func (t *translator) fail(code string, p token.Pos, format string, args ...interface{}) {
	if t.err == nil {
		t.err = reject(code, p, format, args...)
	}
}

// translate builds the program. The AST must have passed sema and be in
// Pregel-canonical form.
func translate(proc *ast.Procedure, info *sema.Info, trace *Trace) (*machine.Program, error) {
	t := &translator{
		proc: proc, info: info, trace: trace,
		prog:       &machine.Program{Name: proc.Name},
		scalarSlot: map[*sema.Symbol]int{},
		propSlot:   map[*sema.Symbol]int{},
		aggSlot:    map[aggKey]int{},
	}
	for _, s := range info.Scalars {
		t.scalarSlot[s] = len(t.prog.Scalars)
		t.prog.Scalars = append(t.prog.Scalars, machine.ScalarDecl{
			Name: s.Name, Kind: ir.KindOfType(s.Type.Kind), IsParam: s.IsParam,
		})
	}
	for _, p := range info.Props {
		t.propSlot[p] = len(t.prog.Props)
		t.prog.Props = append(t.prog.Props, machine.PropDecl{
			Name: p.Name, Kind: ir.KindOfType(p.ElemKind()),
			IsEdge: p.Kind == sema.SymEdgeProp, IsParam: p.IsParam,
		})
	}
	if proc.Ret != nil {
		t.prog.HasReturn = true
		t.prog.ReturnKind = ir.KindOfType(proc.Ret.Kind)
	}

	if usesInNbrPush(proc.Body) {
		t.emitInNbrPrologue()
	}
	t.stmts(proc.Body.Stmts)
	if t.err != nil {
		return nil, t.err
	}
	// Final halt.
	t.cur = append(t.cur, nil)
	t.cur = t.cur[:len(t.cur)-1]
	t.emitMaster(t.cur, machine.Term{Kind: machine.THalt})
	t.cur = nil
	t.resolveFallthroughs()

	t.prog.Nodes = t.nodes
	t.prog.Entry = 0
	if t.prog.NumVertexStates() > 0 {
		t.trace.Record(RuleStateMachine)
	}
	if len(t.prog.Msgs) > 0 {
		t.trace.Record(RuleMessageClassGen)
	}
	// Multiple Communication: more than one message type means messages
	// carry a tag identifying the computation they belong to (§3.1).
	if len(t.prog.Msgs) > 1 {
		t.trace.Record(RuleMultipleComm)
	}
	if err := t.prog.Validate(); err != nil {
		return nil, errf("internal: generated program invalid: %v", err)
	}
	return t.prog, nil
}

// usesInNbrPush reports whether any inner neighbor loop pushes along
// in-edges (requiring the incoming-neighbor prologue).
func usesInNbrPush(body *ast.Block) bool {
	found := false
	ast.WalkStmts(body, func(s ast.Stmt) bool {
		if f, ok := s.(*ast.Foreach); ok && f.Kind == ast.IterInNbrs {
			found = true
		}
		return !found
	})
	return found
}

// ---- CFG emission ----

// emitMaster appends a master block; -1 targets mean "next node".
func (t *translator) emitMaster(stmts []ir.Stmt, term machine.Term) int {
	idx := len(t.nodes)
	t.nodes = append(t.nodes, machine.CFGNode{Master: &machine.MasterBlock{Stmts: stmts, Term: term}})
	return idx
}

// flush emits pending master statements as a fall-through block.
func (t *translator) flush() {
	if len(t.cur) > 0 {
		t.emitMaster(t.cur, machine.Term{Kind: machine.TGoto, Then: -1})
		t.cur = nil
	}
}

func (t *translator) emitVertex(vs *machine.VertexState) int {
	t.flush()
	idx := len(t.nodes)
	t.nodes = append(t.nodes, machine.CFGNode{Vertex: vs})
	return idx
}

// resolveFallthroughs patches -1 targets to the next node index.
func (t *translator) resolveFallthroughs() {
	last := len(t.nodes) - 1
	fix := func(x *int, i int) {
		if *x == -1 {
			if i >= last {
				*x = last
			} else {
				*x = i + 1
			}
		}
	}
	for i := range t.nodes {
		if m := t.nodes[i].Master; m != nil {
			fix(&m.Term.Then, i)
			fix(&m.Term.Else, i)
		}
		if v := t.nodes[i].Vertex; v != nil {
			fix(&v.Next, i)
		}
	}
}

// ---- Incoming-neighbor prologue (§4.3) ----

func (t *translator) emitInNbrPrologue() {
	t.trace.Record(RuleIncomingNbrs)
	msgType := len(t.prog.Msgs)
	t.prog.Msgs = append(t.prog.Msgs, machine.MsgSchema{Name: "_id", Fields: []ir.Kind{ir.KNode}})
	t.emitVertex(&machine.VertexState{
		Name: "in_nbr_send",
		Body: []ir.Stmt{ir.SendToNbrs{MsgType: msgType, Payload: []ir.Expr{ir.CurNode{}}}},
		Next: -1,
	})
	t.emitVertex(&machine.VertexState{
		Name: "in_nbr_collect",
		Body: []ir.Stmt{ir.CollectInNbrs{MsgType: msgType}},
		Next: -1,
	})
}

// ---- Sequential (master) compilation ----

func (t *translator) stmts(ss []ast.Stmt) {
	for _, s := range ss {
		if t.err != nil {
			return
		}
		switch s := s.(type) {
		case *ast.Block:
			t.stmts(s.Stmts)
		case *ast.VarDecl:
			t.seqDecl(s)
		case *ast.Assign:
			t.seqAssign(s)
		case *ast.Return:
			var v ir.Expr
			if s.Value != nil {
				v = t.masterExpr(s.Value)
			}
			t.cur = append(t.cur, ir.Return{Value: v})
		case *ast.If:
			t.seqIf(s)
		case *ast.While:
			t.seqWhile(s)
		case *ast.Foreach:
			if s.Kind != ast.IterNodes {
				t.fail(analysis.CodeParallelNest, s.P, "neighbor iteration outside a vertex-parallel loop")
				return
			}
			t.compileVertexLoop(s)
		default:
			t.fail(analysis.CodeOther, s.Pos(), "internal: unsupported statement %T after canonicalization", s)
		}
	}
}

func (t *translator) seqDecl(d *ast.VarDecl) {
	syms := t.info.DeclOf[d]
	for _, sym := range syms {
		if sym.Kind == sema.SymNodeProp || sym.Kind == sema.SymEdgeProp {
			continue // slot pre-allocated
		}
		if sym.Kind != sema.SymScalar {
			t.fail(analysis.CodeUnsupported, d.P, "unexpected %s declaration in sequential context", sym.Kind)
			return
		}
	}
	if d.Init != nil && len(syms) == 1 && syms[0].Kind == sema.SymScalar {
		slot := t.scalarSlot[syms[0]]
		t.cur = append(t.cur, ir.SetScalar{Slot: slot, Name: syms[0].Name, Op: ast.OpSet, RHS: t.masterExpr(d.Init)})
	}
}

func (t *translator) seqAssign(a *ast.Assign) {
	id, ok := a.LHS.(*ast.Ident)
	if !ok {
		t.fail(analysis.CodeUnsupported, a.P, "property assignment in sequential context (should have been lowered)")
		return
	}
	sym := t.info.Uses[id]
	if sym == nil || sym.Kind != sema.SymScalar {
		t.fail(analysis.CodeUnsupported, a.P, "cannot assign to %q in sequential context", id.Name)
		return
	}
	t.cur = append(t.cur, ir.SetScalar{Slot: t.scalarSlot[sym], Name: sym.Name, Op: a.Op, RHS: t.masterExpr(a.RHS)})
}

// containsParallel reports whether the subtree contains vertex loops or
// loops (requiring CFG-level branching rather than an inline master If).
func containsParallel(s ast.Stmt) bool {
	found := false
	ast.WalkStmts(s, func(st ast.Stmt) bool {
		switch st.(type) {
		case *ast.Foreach, *ast.While, *ast.InBFS:
			found = true
		}
		return !found
	})
	return found
}

func (t *translator) seqIf(s *ast.If) {
	if !containsParallel(s) {
		// Pure sequential If: inline master statement.
		thenStmts := t.masterStmtList(asBlock(s.Then).Stmts)
		var elseStmts []ir.Stmt
		if s.Else != nil {
			elseStmts = t.masterStmtList(asBlock(s.Else).Stmts)
		}
		t.cur = append(t.cur, ir.If{Cond: t.masterExpr(s.Cond), Then: thenStmts, Else: elseStmts})
		return
	}
	// CFG branch.
	cond := t.masterExpr(s.Cond)
	t.flush()
	condIdx := t.emitMaster(nil, machine.Term{Kind: machine.TCond, Cond: cond, Then: -1, Else: -2})
	t.stmts(asBlock(s.Then).Stmts)
	t.flush()
	var thenEnd = -1
	if s.Else != nil {
		thenEnd = t.emitMaster(nil, machine.Term{Kind: machine.TGoto, Then: -2})
	}
	t.nodes[condIdx].Master.Term.Else = len(t.nodes)
	if s.Else != nil {
		t.stmts(asBlock(s.Else).Stmts)
		t.flush()
		t.nodes[thenEnd].Master.Term.Then = len(t.nodes)
	}
	// Execution continues at len(t.nodes): the next emitted node.
}

// masterStmtList compiles a pure-sequential statement list to master IR.
func (t *translator) masterStmtList(ss []ast.Stmt) []ir.Stmt {
	saved := t.cur
	t.cur = nil
	for _, s := range ss {
		switch s := s.(type) {
		case *ast.Block:
			t.cur = append(t.cur, t.masterStmtList(s.Stmts)...)
		case *ast.VarDecl:
			t.seqDecl(s)
		case *ast.Assign:
			t.seqAssign(s)
		case *ast.Return:
			var v ir.Expr
			if s.Value != nil {
				v = t.masterExpr(s.Value)
			}
			t.cur = append(t.cur, ir.Return{Value: v})
		case *ast.If:
			thenStmts := t.masterStmtList(asBlock(s.Then).Stmts)
			var elseStmts []ir.Stmt
			if s.Else != nil {
				elseStmts = t.masterStmtList(asBlock(s.Else).Stmts)
			}
			t.cur = append(t.cur, ir.If{Cond: t.masterExpr(s.Cond), Then: thenStmts, Else: elseStmts})
		default:
			t.fail(analysis.CodeOther, s.Pos(), "internal: unsupported statement %T in sequential branch", s)
		}
	}
	out := t.cur
	t.cur = saved
	return out
}

func (t *translator) seqWhile(w *ast.While) {
	if w.DoWhile {
		t.flush()
		bodyStart := len(t.nodes)
		t.stmts(asBlock(w.Body).Stmts)
		cond := t.masterExpr(w.Cond)
		t.flush()
		condIdx := t.emitMaster(nil, machine.Term{Kind: machine.TCond, Cond: cond, Then: bodyStart, Else: -1})
		t.prog.Loops = append(t.prog.Loops, machine.LoopInfo{
			Cond: condIdx, BodyStart: bodyStart, BackEdge: condIdx, DoWhile: true,
		})
		return
	}
	cond := t.masterExpr(w.Cond)
	t.flush()
	condIdx := t.emitMaster(nil, machine.Term{Kind: machine.TCond, Cond: cond, Then: -1, Else: -2})
	bodyStart := len(t.nodes)
	t.stmts(asBlock(w.Body).Stmts)
	t.flush()
	backEdge := t.emitMaster(nil, machine.Term{Kind: machine.TGoto, Then: condIdx})
	t.nodes[condIdx].Master.Term.Else = len(t.nodes)
	t.prog.Loops = append(t.prog.Loops, machine.LoopInfo{
		Cond: condIdx, BodyStart: bodyStart, BackEdge: backEdge,
	})
}

// masterExpr compiles an expression in master context.
func (t *translator) masterExpr(e ast.Expr) ir.Expr {
	switch e := e.(type) {
	case *ast.Ident:
		sym := t.info.Uses[e]
		if sym == nil {
			t.fail(analysis.CodeUnsupported, e.P, "unresolved identifier %q", e.Name)
			return ir.Const{V: ir.Int(0)}
		}
		if sym.Kind == sema.SymScalar && !sym.InParallel {
			return ir.ScalarRef{Slot: t.scalarSlot[sym], Name: sym.Name}
		}
		t.fail(analysis.CodeUnsupported, e.P, "%s %q is not usable in sequential context", sym.Kind, e.Name)
		return ir.Const{V: ir.Int(0)}
	case *ast.Call:
		return t.callExpr(e, nil)
	case *ast.PropAccess:
		t.fail(analysis.CodeUnsupported, e.P, "property access in sequential context (should have been lowered)")
		return ir.Const{V: ir.Int(0)}
	case *ast.Binary:
		return ir.Binary{Op: e.Op, L: t.masterExpr(e.L), R: t.masterExpr(e.R)}
	case *ast.Unary:
		return ir.Unary{Op: e.Op, X: t.masterExpr(e.X)}
	case *ast.Ternary:
		return ir.Ternary{Cond: t.masterExpr(e.Cond), Then: t.masterExpr(e.Then), Else: t.masterExpr(e.Else)}
	default:
		return t.literal(e)
	}
}

// literal compiles literal expressions (shared by master and vertex
// contexts).
func (t *translator) literal(e ast.Expr) ir.Expr {
	switch e := e.(type) {
	case *ast.IntLit:
		return ir.Const{V: ir.Int(e.Value)}
	case *ast.FloatLit:
		return ir.Const{V: ir.Float(e.Value)}
	case *ast.BoolLit:
		return ir.Const{V: ir.Bool(e.Value)}
	case *ast.NilLit:
		return ir.Const{V: ir.Zero(ir.KNode)}
	case *ast.InfLit:
		kind := ir.KInt
		if tt := t.info.TypeOf(e); tt != nil && tt.Kind.IsFloating() {
			kind = ir.KFloat
		}
		v := ir.Inf(kind)
		if e.Neg {
			if kind == ir.KFloat {
				v = ir.Float(math.Inf(-1))
			} else {
				v = ir.Int(math.MinInt64)
			}
		}
		return ir.Const{V: v}
	case *ast.Reduce:
		// The lowering passes extract every reduction but one in a
		// loop filter.
		t.fail(analysis.CodeUnsupported, e.P, "a reduction in a loop filter is not supported; assign it to a variable before the loop")
		return ir.Const{V: ir.Int(0)}
	default:
		t.fail(analysis.CodeOther, e.Pos(), "internal: unsupported expression %T", e)
		return ir.Const{V: ir.Int(0)}
	}
}

// callExpr compiles builtin calls; vctx is nil in master context.
func (t *translator) callExpr(e *ast.Call, vc *vctx) ir.Expr {
	targetSym := t.info.SymOf(e.Target)
	switch e.Name {
	case "NumNodes":
		return ir.Builtin{Op: ir.BNumNodes}
	case "NumEdges":
		return ir.Builtin{Op: ir.BNumEdges}
	case "PickRandom":
		return ir.Builtin{Op: ir.BPickRandom}
	case "Degree", "OutDegree", "NumNbrs":
		if vc == nil {
			t.fail(analysis.CodeUnsupported, e.P, "%s() requires vertex context", e.Name)
			return ir.Const{V: ir.Int(0)}
		}
		if targetSym != vc.iterSym {
			t.fail(analysis.CodeUnsupported, e.P, "%s() may only be called on the current iterator %q", e.Name, vc.iter)
			return ir.Const{V: ir.Int(0)}
		}
		return ir.Builtin{Op: ir.BDegree}
	case "Id":
		if vc == nil {
			t.fail(analysis.CodeUnsupported, e.P, "Id() requires vertex context")
			return ir.Const{V: ir.Int(0)}
		}
		if targetSym != vc.iterSym {
			t.fail(analysis.CodeUnsupported, e.P, "Id() may only be called on the current iterator %q", vc.iter)
			return ir.Const{V: ir.Int(0)}
		}
		return ir.Builtin{Op: ir.BNodeId}
	case "InDegree":
		t.fail(analysis.CodeUnsupported, e.P, "InDegree() is not supported by the Pregel backend (build incoming-neighbor lists instead)")
		return ir.Const{V: ir.Int(0)}
	}
	t.fail(analysis.CodeUnsupported, e.P, "unknown builtin %q", e.Name)
	return ir.Const{V: ir.Int(0)}
}
