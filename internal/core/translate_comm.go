package core

import (
	"gmpregel/internal/gm/analysis"
	"gmpregel/internal/gm/ast"
	"gmpregel/internal/gm/sema"
	"gmpregel/internal/ir"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
)

// compileInnerLoop translates one inner neighbor loop — the paper's
// Neighborhood Communication pattern — into a send statement for the
// enclosing state and a receive handler for the following state.
//
// The payload is derived by dataflow analysis: every maximal
// sender-evaluable subexpression read on the receiver side (outer-loop
// scoped variables, outer-iterator properties, and edge properties)
// becomes one deduplicated message field.
func (t *translator) compileInnerLoop(il *ast.Foreach, sctx *vctx, recv *recvBuilder) ir.Stmt {
	t.trace.Record(RuleNeighborhoodComm)
	innerSym := t.info.IterOf[il]
	if innerSym == nil {
		t.fail(analysis.CodeOther, il.P, "internal: unresolved inner iterator")
		return nil
	}
	if il.Kind == ast.IterInNbrs {
		t.trace.Record(RuleIncomingNbrs)
	}
	rctx := newVctx(il.Iter, innerSym)
	pb := newPayloadBuilder()

	// Register edge variables: declared inside the body, evaluated on
	// the sender while iterating the edge.
	edgeOK := il.Kind == ast.IterOutNbrs
	ast.WalkStmts(il.Body, func(s ast.Stmt) bool {
		d, ok := s.(*ast.VarDecl)
		if !ok {
			return true
		}
		for _, sym := range t.info.DeclOf[d] {
			if sym.Kind == sema.SymEdgeVar {
				if !edgeOK {
					t.fail(analysis.CodeEdgePull, d.P, "edge properties are only accessible when pushing along out-edges")
					return false
				}
				if sym.EdgeOf != innerSym {
					t.fail(analysis.CodeUnsupported, d.P, "edge variable %q must come from this loop's iterator %q", sym.Name, il.Iter)
					return false
				}
				sctx.edgeVars[sym] = sym.EdgeOf
			}
		}
		return true
	})
	if t.err != nil {
		return nil
	}

	// Allocate the message type up front so handlers can reference it;
	// the schema fields are filled in once the payload is known.
	msgType := len(t.prog.Msgs)
	t.prog.Msgs = append(t.prog.Msgs, machine.MsgSchema{Name: "m_" + stateNameOf(len(t.nodes))})
	recv.msgCount++

	// Split the filter into sender-side and receiver-side conjuncts.
	var edgeConds, guardConds []ast.Expr
	var recvConds []ir.Expr
	for _, c := range conjuncts(il.Filter) {
		s, r := t.scanRefs(c, sctx, innerSym)
		switch {
		case r:
			recvConds = append(recvConds, t.recvExpr(c, sctx, rctx, pb))
		case s && usesEdgeProp(t, c):
			edgeConds = append(edgeConds, c)
		case s:
			guardConds = append(guardConds, c)
		default:
			// References neither iterator (globals/constants): cheapest
			// on the sender.
			guardConds = append(guardConds, c)
		}
	}

	// Compile the receiver body.
	handlerBody := t.recvStmts(asBlock(il.Body).Stmts, sctx, rctx, pb, recv)
	if t.err != nil {
		return nil
	}
	if len(recvConds) > 0 {
		cond := recvConds[0]
		for _, c := range recvConds[1:] {
			cond = ir.Binary{Op: ast.BinAnd, L: cond, R: c}
		}
		handlerBody = []ir.Stmt{ir.If{Cond: cond, Then: handlerBody}}
	}
	recv.handlers = append(recv.handlers, ir.ForMsgs{MsgType: msgType, Body: handlerBody})
	if len(pb.fields) > pregel.MaxPayloadSlots {
		t.fail(analysis.CodePayloadOverflow, il.P, "this communication needs %d message fields, more than the %d the runtime supports; split the loop or precompute into a property",
			len(pb.fields), pregel.MaxPayloadSlots)
		return nil
	}
	t.prog.Msgs[msgType].Fields = pb.fields

	// Build the sender.
	var sender ir.Stmt
	switch il.Kind {
	case ast.IterOutNbrs:
		var edgeCond ir.Expr
		sctx.inSendPayload = true
		for _, c := range edgeConds {
			cc := t.vertexExpr(c, sctx)
			if edgeCond == nil {
				edgeCond = cc
			} else {
				edgeCond = ir.Binary{Op: ast.BinAnd, L: edgeCond, R: cc}
			}
		}
		sctx.inSendPayload = false
		sender = ir.SendToNbrs{MsgType: msgType, EdgeCond: edgeCond, Payload: pb.exprs}
	case ast.IterInNbrs:
		if len(edgeConds) > 0 {
			t.fail(analysis.CodeEdgePull, il.P, "edge properties are not available when pushing along in-edges")
			return nil
		}
		sender = ir.SendToInNbrs{MsgType: msgType, Payload: pb.exprs}
	default:
		t.fail(analysis.CodeUnsupported, il.P, "iteration domain %s survived canonicalization", il.Kind)
		return nil
	}
	if len(guardConds) > 0 {
		cond := t.vertexExpr(guardConds[0], sctx)
		for _, c := range guardConds[1:] {
			cond = ir.Binary{Op: ast.BinAnd, L: cond, R: t.vertexExpr(c, sctx)}
		}
		sender = ir.If{Cond: cond, Then: []ir.Stmt{sender}}
	}
	return sender
}

// usesEdgeProp reports whether e reads any edge property.
func usesEdgeProp(t *translator, e ast.Expr) bool {
	found := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if pa, ok := x.(*ast.PropAccess); ok {
			if id, ok := pa.Target.(*ast.Ident); ok {
				if sym := t.info.Uses[id]; sym != nil && sym.Kind == sema.SymEdgeVar {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// scanRefs reports whether e references sender-scoped values (the outer
// iterator, sender locals, edge variables) and/or receiver-scoped values
// (the inner iterator).
func (t *translator) scanRefs(e ast.Expr, sctx *vctx, innerSym *sema.Symbol) (usesSender, usesRecv bool) {
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if id, ok := x.(*ast.Ident); ok {
			sym := t.info.Uses[id]
			switch {
			case sym == nil:
			case sym == sctx.iterSym:
				usesSender = true
			case sym == innerSym:
				usesRecv = true
			case hasLocal(sctx, sym):
				usesSender = true
			case sym.Kind == sema.SymEdgeVar:
				usesSender = true
			}
		}
		return true
	})
	return
}

// recvExpr compiles an expression for evaluation on the receiver,
// extracting maximal sender-evaluable subexpressions into the payload.
func (t *translator) recvExpr(e ast.Expr, sctx *vctx, rctx *vctx, pb *payloadBuilder) ir.Expr {
	s, r := t.scanRefs(e, sctx, rctx.iterSym)
	if s && !r {
		kind := ir.KInt
		if tt := t.info.TypeOf(e); tt != nil {
			kind = ir.KindOfType(tt.Kind)
		}
		sctx.inSendPayload = true
		sender := t.vertexExpr(e, sctx)
		sctx.inSendPayload = false
		idx := pb.add(ast.PrintExpr(e), kind, sender)
		return ir.MsgField{Idx: idx, K: kind}
	}
	if !s {
		return t.vertexExpr(e, rctx)
	}
	// Mixed: recurse structurally.
	switch e := e.(type) {
	case *ast.Binary:
		return ir.Binary{Op: e.Op, L: t.recvExpr(e.L, sctx, rctx, pb), R: t.recvExpr(e.R, sctx, rctx, pb)}
	case *ast.Unary:
		return ir.Unary{Op: e.Op, X: t.recvExpr(e.X, sctx, rctx, pb)}
	case *ast.Ternary:
		return ir.Ternary{
			Cond: t.recvExpr(e.Cond, sctx, rctx, pb),
			Then: t.recvExpr(e.Then, sctx, rctx, pb),
			Else: t.recvExpr(e.Else, sctx, rctx, pb),
		}
	default:
		t.fail(analysis.CodeUnsupported, e.Pos(), "expression mixes sender and receiver values in an untranslatable way")
		return ir.Const{V: ir.Int(0)}
	}
}

// recvStmts compiles the inner-loop body for execution on the receiver.
func (t *translator) recvStmts(ss []ast.Stmt, sctx *vctx, rctx *vctx, pb *payloadBuilder, recv *recvBuilder) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range ss {
		if t.err != nil {
			return out
		}
		switch s := s.(type) {
		case *ast.Block:
			out = append(out, t.recvStmts(s.Stmts, sctx, rctx, pb, recv)...)
		case *ast.VarDecl:
			// Edge variables were registered during the sender pass.
			for _, sym := range t.info.DeclOf[s] {
				if sym.Kind != sema.SymEdgeVar {
					t.fail(analysis.CodeUnsupported, s.P, "local declarations inside neighbor loops are not supported (except Edge)")
				}
			}
		case *ast.Assign:
			out = t.recvAssign(out, s, sctx, rctx, pb, recv)
		case *ast.If:
			cond := t.recvExpr(s.Cond, sctx, rctx, pb)
			thenStmts := t.recvStmts(asBlock(s.Then).Stmts, sctx, rctx, pb, recv)
			var elseStmts []ir.Stmt
			if s.Else != nil {
				elseStmts = t.recvStmts(asBlock(s.Else).Stmts, sctx, rctx, pb, recv)
			}
			out = append(out, ir.If{Cond: cond, Then: thenStmts, Else: elseStmts})
		case *ast.Foreach:
			if s.Kind == ast.IterNodes {
				t.fail(analysis.CodeParallelNest, s.P, "nested whole-graph loops are not Pregel-canonical")
			} else {
				t.fail(analysis.CodeDeepNest, s.P, "neighbor iteration nested deeper than one level cannot be expressed as vertex-centric message passing")
			}
		default:
			t.fail(analysis.CodeOther, s.Pos(), "internal: unsupported statement %T inside a neighbor loop", s)
		}
	}
	return out
}

func (t *translator) recvAssign(out []ir.Stmt, a *ast.Assign, sctx *vctx, rctx *vctx, pb *payloadBuilder, recv *recvBuilder) []ir.Stmt {
	switch lhs := a.LHS.(type) {
	case *ast.Ident:
		sym := t.info.Uses[lhs]
		if sym != nil && sym.Kind == sema.SymScalar && !sym.InParallel {
			return append(out, t.globalWrite(sym, a.Op, t.recvExpr(a.RHS, sctx, rctx, pb), &recv.foldsB))
		}
		t.fail(analysis.CodeUnsupported, a.P, "cannot assign to %q inside a neighbor loop", lhs.Name)
	case *ast.PropAccess:
		tid, ok := lhs.Target.(*ast.Ident)
		if !ok {
			t.fail(analysis.CodeUnsupported, a.P, "unsupported property target")
			return out
		}
		tsym := t.info.Uses[tid]
		if tsym != rctx.iterSym {
			t.fail(analysis.CodeUnsupported, a.P, "writing %q.%s inside a neighbor loop requires message pulling, which Pregel cannot do", tid.Name, lhs.Prop)
			return out
		}
		slot, psym := t.propSlotOf(lhs.Prop)
		if psym == nil {
			t.fail(analysis.CodeUnsupported, a.P, "unknown property %q", lhs.Prop)
			return out
		}
		return append(out, ir.SetProp{Slot: slot, Name: lhs.Prop, Op: a.Op, RHS: t.recvExpr(a.RHS, sctx, rctx, pb)})
	default:
		t.fail(analysis.CodeUnsupported, a.P, "invalid assignment target")
	}
	return out
}
