package core

import (
	"gmpregel/internal/gm/analysis"
	"gmpregel/internal/gm/ast"
	"gmpregel/internal/gm/sema"
	"gmpregel/internal/ir"
	"gmpregel/internal/machine"
)

// vctx is the compilation context of one vertex state.
type vctx struct {
	iter    string
	iterSym *sema.Symbol
	locals  map[*sema.Symbol]int
	kinds   []ir.Kind
	names   []string
	// edgeVars maps Edge variables to the neighbor iterator whose
	// current edge they denote (sender-side only).
	edgeVars map[*sema.Symbol]*sema.Symbol
	// inSendPayload permits EdgePropRef compilation.
	inSendPayload bool
}

func newVctx(iter string, iterSym *sema.Symbol) *vctx {
	return &vctx{
		iter: iter, iterSym: iterSym,
		locals:   map[*sema.Symbol]int{},
		edgeVars: map[*sema.Symbol]*sema.Symbol{},
	}
}

func (v *vctx) addLocal(sym *sema.Symbol) int {
	slot := len(v.kinds)
	v.locals[sym] = slot
	v.kinds = append(v.kinds, ir.KindOfType(sym.Type.Kind))
	v.names = append(v.names, sym.Name)
	return slot
}

// payloadBuilder accumulates the deduplicated message payload of one
// communication (the paper's dataflow analysis: each sender-scoped value
// read on the receiver side becomes one message field).
type payloadBuilder struct {
	keys   map[string]int
	fields []ir.Kind
	exprs  []ir.Expr // sender-compiled payload expressions
}

func newPayloadBuilder() *payloadBuilder {
	return &payloadBuilder{keys: map[string]int{}}
}

func (pb *payloadBuilder) add(key string, kind ir.Kind, sender ir.Expr) int {
	if i, ok := pb.keys[key]; ok {
		return i
	}
	i := len(pb.fields)
	pb.keys[key] = i
	pb.fields = append(pb.fields, kind)
	pb.exprs = append(pb.exprs, sender)
	return i
}

// compileVertexLoop translates one top-level parallel Foreach into a
// send/compute state plus (when it communicates) a receive state.
func (t *translator) compileVertexLoop(f *ast.Foreach) {
	sctx := newVctx(f.Iter, t.info.IterOf[f])
	var bodyA []ir.Stmt
	recv := &recvBuilder{}
	t.vertexStmts(asBlock(f.Body).Stmts, sctx, &bodyA, recv, f)
	if t.err != nil {
		return
	}
	if f.Filter != nil {
		cond := t.vertexExpr(f.Filter, sctx)
		bodyA = []ir.Stmt{ir.If{Cond: cond, Then: bodyA}}
	}

	stateName := stateNameOf(len(t.nodes))
	vsA := &machine.VertexState{
		Name: stateName, Body: bodyA, Next: -1,
		Locals: sctx.kinds, LocalNames: sctx.names,
		ReadScalars: readScalarsOf(bodyA),
	}
	t.emitVertex(vsA)
	if folds := dedupFolds(recv.foldsA); len(folds) > 0 {
		t.emitMaster(folds, machine.Term{Kind: machine.TGoto, Then: -1})
	}
	if len(recv.handlers) > 0 {
		vsB := &machine.VertexState{
			Name: stateName + "_recv", Body: recv.handlers, Next: -1,
			ReadScalars: readScalarsOf(recv.handlers),
		}
		t.emitVertex(vsB)
		if folds := dedupFolds(recv.foldsB); len(folds) > 0 {
			t.emitMaster(folds, machine.Term{Kind: machine.TGoto, Then: -1})
		}
	}
}

func stateNameOf(n int) string { return "state" + itoa(n) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func readScalarsOf(ss []ir.Stmt) []int {
	seen := map[int]bool{}
	var out []int
	ir.WalkStmtExprs(ss, func(e ir.Expr) {
		if sr, ok := e.(ir.ScalarRef); ok && !seen[sr.Slot] {
			seen[sr.Slot] = true
			out = append(out, sr.Slot)
		}
	})
	return out
}

// recvBuilder accumulates the receive state of one outer loop.
type recvBuilder struct {
	handlers []ir.Stmt
	foldsA   []ir.Stmt // aggregator folds after the send state
	foldsB   []ir.Stmt // aggregator folds after the receive state
	msgCount int
}

func dedupFolds(ss []ir.Stmt) []ir.Stmt {
	seen := map[aggKey]bool{}
	var out []ir.Stmt
	for _, s := range ss {
		f := s.(ir.FoldAgg)
		k := aggKey{scalar: f.Scalar, op: f.Op}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	return out
}

// vertexStmts compiles the statements of a vertex-parallel body (the
// sender side), peeling communications off into the receive builder.
func (t *translator) vertexStmts(ss []ast.Stmt, sctx *vctx, out *[]ir.Stmt, recv *recvBuilder, outer *ast.Foreach) {
	for _, s := range ss {
		if t.err != nil {
			return
		}
		switch s := s.(type) {
		case *ast.Block:
			t.vertexStmts(s.Stmts, sctx, out, recv, outer)
		case *ast.VarDecl:
			t.vertexDecl(s, sctx, out)
		case *ast.Assign:
			t.vertexAssign(s, sctx, out, recv)
		case *ast.If:
			var thenStmts, elseStmts []ir.Stmt
			t.vertexStmts(asBlock(s.Then).Stmts, sctx, &thenStmts, recv, outer)
			if s.Else != nil {
				t.vertexStmts(asBlock(s.Else).Stmts, sctx, &elseStmts, recv, outer)
			}
			*out = append(*out, ir.If{Cond: t.vertexExpr(s.Cond, sctx), Then: thenStmts, Else: elseStmts})
		case *ast.Foreach:
			if s.Kind == ast.IterNodes {
				t.fail(analysis.CodeParallelNest, s.P, "nested whole-graph loops are not Pregel-canonical")
				return
			}
			sender := t.compileInnerLoop(s, sctx, recv)
			if sender != nil {
				*out = append(*out, sender)
			}
		default:
			t.fail(analysis.CodeOther, s.Pos(), "internal: unsupported statement %T in a vertex-parallel loop", s)
		}
	}
	if recv.msgCount > 1 {
		t.trace.Record(RuleMultipleComm)
	}
}

func (t *translator) vertexDecl(d *ast.VarDecl, sctx *vctx, out *[]ir.Stmt) {
	syms := t.info.DeclOf[d]
	for _, sym := range syms {
		switch sym.Kind {
		case sema.SymEdgeVar:
			sctx.edgeVars[sym] = sym.EdgeOf
		case sema.SymScalar:
			slot := sctx.addLocal(sym)
			if d.Init != nil && len(syms) == 1 {
				*out = append(*out, ir.SetLocal{Slot: slot, Name: sym.Name, RHS: t.vertexExpr(d.Init, sctx)})
			}
		default:
			t.fail(analysis.CodeUnsupported, d.P, "%s declaration inside a vertex-parallel loop", sym.Kind)
		}
	}
}

// vertexAssign compiles an assignment in sender context: own-property
// writes, local writes, global reductions, and random writes.
func (t *translator) vertexAssign(a *ast.Assign, sctx *vctx, out *[]ir.Stmt, recv *recvBuilder) {
	switch lhs := a.LHS.(type) {
	case *ast.Ident:
		sym := t.info.Uses[lhs]
		switch {
		case sym == nil:
			t.fail(analysis.CodeUnsupported, a.P, "unresolved %q", lhs.Name)
		case sctx.locals[sym] != 0 || hasLocal(sctx, sym):
			slot := sctx.locals[sym]
			rhs := t.vertexExpr(a.RHS, sctx)
			if a.Op != ast.OpSet {
				rhs = reduceExpr(a.Op, ir.LocalRef{Slot: slot, Name: sym.Name}, rhs)
			}
			*out = append(*out, ir.SetLocal{Slot: slot, Name: sym.Name, RHS: rhs})
		case sym.Kind == sema.SymScalar && !sym.InParallel:
			// Global write → aggregator contribution (§3.1 Global Object).
			*out = append(*out, t.globalWrite(sym, a.Op, t.vertexExpr(a.RHS, sctx), &recv.foldsA))
		default:
			t.fail(analysis.CodeUnsupported, a.P, "cannot assign to %q here", lhs.Name)
		}
	case *ast.PropAccess:
		tid, ok := lhs.Target.(*ast.Ident)
		if !ok {
			t.fail(analysis.CodeUnsupported, a.P, "unsupported property target")
			return
		}
		tsym := t.info.Uses[tid]
		switch {
		case tsym == sctx.iterSym:
			// Own property.
			slot, psym := t.propSlotOf(lhs.Prop)
			if psym == nil {
				t.fail(analysis.CodeUnsupported, a.P, "unknown property %q", lhs.Prop)
				return
			}
			*out = append(*out, ir.SetProp{Slot: slot, Name: lhs.Prop, Op: a.Op, RHS: t.vertexExpr(a.RHS, sctx)})
		case isNodeValued(tsym, sctx):
			// Random write (§3.1): message to an arbitrary vertex.
			t.trace.Record(RuleRandomWrite)
			slot, psym := t.propSlotOf(lhs.Prop)
			if psym == nil {
				t.fail(analysis.CodeUnsupported, a.P, "unknown property %q", lhs.Prop)
				return
			}
			kind := t.prog.Props[slot].Kind
			msgType := len(t.prog.Msgs)
			t.prog.Msgs = append(t.prog.Msgs, machine.MsgSchema{
				Name: "w_" + lhs.Prop, Fields: []ir.Kind{kind},
			})
			recv.msgCount++
			payload := t.vertexExpr(a.RHS, sctx)
			*out = append(*out, ir.SendTo{
				Target:  t.vertexExpr(tid, sctx),
				MsgType: msgType,
				Payload: []ir.Expr{payload},
			})
			recv.handlers = append(recv.handlers, ir.ForMsgs{
				MsgType: msgType,
				Body: []ir.Stmt{ir.SetProp{
					Slot: slot, Name: lhs.Prop, Op: a.Op,
					RHS: ir.MsgField{Idx: 0, K: kind},
				}},
			})
		default:
			t.fail(analysis.CodeUnsupported, a.P, "random property read/write through %q is not allowed here", tid.Name)
		}
	default:
		t.fail(analysis.CodeUnsupported, a.P, "invalid assignment target")
	}
}

func hasLocal(sctx *vctx, sym *sema.Symbol) bool {
	_, ok := sctx.locals[sym]
	return ok
}

// isNodeValued reports whether the symbol holds a node usable as a
// random-write target: a local Node variable or a sequential Node scalar.
func isNodeValued(sym *sema.Symbol, sctx *vctx) bool {
	if sym == nil {
		return false
	}
	return sym.Kind == sema.SymScalar && sym.Type != nil && sym.Type.Kind == ast.TNode
}

// reduceExpr builds the expression form of a reduction for local slots.
func reduceExpr(op ast.AssignOp, old, rhs ir.Expr) ir.Expr {
	switch op {
	case ast.OpAdd:
		return ir.Binary{Op: ast.BinAdd, L: old, R: rhs}
	case ast.OpSub:
		return ir.Binary{Op: ast.BinSub, L: old, R: rhs}
	case ast.OpMul:
		return ir.Binary{Op: ast.BinMul, L: old, R: rhs}
	case ast.OpMin:
		return ir.Ternary{Cond: ir.Binary{Op: ast.BinLt, L: rhs, R: old}, Then: rhs, Else: old}
	case ast.OpMax:
		return ir.Ternary{Cond: ir.Binary{Op: ast.BinGt, L: rhs, R: old}, Then: rhs, Else: old}
	case ast.OpAnd:
		return ir.Binary{Op: ast.BinAnd, L: old, R: rhs}
	case ast.OpOr:
		return ir.Binary{Op: ast.BinOr, L: old, R: rhs}
	}
	return rhs
}

// globalWrite turns a global-scalar write in vertex context into an
// aggregator contribution and records the fold the successor master
// block must run.
func (t *translator) globalWrite(sym *sema.Symbol, op ast.AssignOp, rhs ir.Expr, folds *[]ir.Stmt) ir.Stmt {
	t.trace.Record(RuleGlobalObject)
	slot := t.scalarSlot[sym]
	key := aggKey{scalar: slot, op: op}
	agg, ok := t.aggSlot[key]
	if !ok {
		agg = len(t.prog.Aggs)
		t.aggSlot[key] = agg
		t.prog.Aggs = append(t.prog.Aggs, machine.AggDecl{
			Name: sym.Name + "_" + op.String(), Kind: ir.KindOfType(sym.Type.Kind), Op: op,
		})
	}
	*folds = append(*folds, ir.FoldAgg{
		Scalar: slot, ScalarName: sym.Name,
		Agg: agg, AggName: t.prog.Aggs[agg].Name, Op: op,
	})
	return ir.ContribAgg{Agg: agg, Name: t.prog.Aggs[agg].Name, RHS: rhs}
}

func (t *translator) propSlotOf(name string) (int, *sema.Symbol) {
	// Property names are unique after sema, so at most one entry can
	// match and the result is independent of iteration order.
	for sym, slot := range t.propSlot { //gm:nondeterministic-ok at most one symbol matches a sema-checked property name
		if sym.Name == name {
			return slot, sym
		}
	}
	return 0, nil
}

// vertexExpr compiles an expression in the given vertex context (the
// current vertex is ctx.iter).
func (t *translator) vertexExpr(e ast.Expr, ctx *vctx) ir.Expr {
	switch e := e.(type) {
	case *ast.Ident:
		sym := t.info.Uses[e]
		switch {
		case sym == nil:
			t.fail(analysis.CodeUnsupported, e.P, "unresolved identifier %q", e.Name)
		case sym == ctx.iterSym:
			return ir.CurNode{}
		case hasLocal(ctx, sym):
			return ir.LocalRef{Slot: ctx.locals[sym], Name: sym.Name}
		case sym.Kind == sema.SymScalar && !sym.InParallel:
			t.trace.Record(RuleGlobalObject)
			return ir.ScalarRef{Slot: t.scalarSlot[sym], Name: sym.Name}
		default:
			t.fail(analysis.CodeUnsupported, e.P, "%q (%s) is not accessible in this vertex context", e.Name, sym.Kind)
		}
		return ir.Const{V: ir.Int(0)}
	case *ast.PropAccess:
		tid, ok := e.Target.(*ast.Ident)
		if !ok {
			t.fail(analysis.CodeUnsupported, e.P, "unsupported property target")
			return ir.Const{V: ir.Int(0)}
		}
		tsym := t.info.Uses[tid]
		switch {
		case tsym == ctx.iterSym:
			slot, psym := t.propSlotOf(e.Prop)
			if psym == nil {
				t.fail(analysis.CodeUnsupported, e.P, "unknown property %q", e.Prop)
				return ir.Const{V: ir.Int(0)}
			}
			return ir.PropRef{Slot: slot, Name: e.Prop}
		case tsym != nil && tsym.Kind == sema.SymEdgeVar:
			if _, ok := ctx.edgeVars[tsym]; !ok {
				t.fail(analysis.CodeUnsupported, e.P, "edge variable %q is not bound in this context", tid.Name)
				return ir.Const{V: ir.Int(0)}
			}
			if !ctx.inSendPayload {
				t.fail(analysis.CodeUnsupported, e.P, "edge property %q may only be read while sending along the edge", e.Prop)
				return ir.Const{V: ir.Int(0)}
			}
			t.trace.Record(RuleEdgeProperty)
			slot, psym := t.propSlotOf(e.Prop)
			if psym == nil || !t.prog.Props[slot].IsEdge {
				t.fail(analysis.CodeUnsupported, e.P, "unknown edge property %q", e.Prop)
				return ir.Const{V: ir.Int(0)}
			}
			return ir.EdgePropRef{Slot: slot, Name: e.Prop}
		default:
			t.fail(analysis.CodeUnsupported, e.P, "reading a property of %q here requires message pulling, which Pregel cannot do", tid.Name)
			return ir.Const{V: ir.Int(0)}
		}
	case *ast.Call:
		return t.callExpr(e, ctx)
	case *ast.Binary:
		return ir.Binary{Op: e.Op, L: t.vertexExpr(e.L, ctx), R: t.vertexExpr(e.R, ctx)}
	case *ast.Unary:
		return ir.Unary{Op: e.Op, X: t.vertexExpr(e.X, ctx)}
	case *ast.Ternary:
		return ir.Ternary{Cond: t.vertexExpr(e.Cond, ctx), Then: t.vertexExpr(e.Then, ctx), Else: t.vertexExpr(e.Else, ctx)}
	default:
		return t.literal(e)
	}
}
