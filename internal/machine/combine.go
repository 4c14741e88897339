package machine

import (
	"context"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/graph"
	"gmpregel/internal/ir"
	"gmpregel/internal/pregel"
)

// RunOptions control optional executor behavior.
type RunOptions struct {
	// Interpret executes vertex states through the reference tree-walking
	// interpreter (ir.Eval on ir.Value), the typed closures' oracle.
	Interpret bool
}

// RunWithOptions is Run plus executor options.
func RunWithOptions(p *Program, g *graph.Directed, b Bindings, cfg pregel.Config, ro RunOptions) (*Result, error) {
	return run(context.Background(), p, g, b, cfg, ro)
}

// combinableOps returns, for each message type, the reduction operator
// the engine can fold the type's messages with at delivery (opInvalid
// when it cannot). A type is combinable when every handler that consumes
// it is exactly `for msgs { this.prop op= msg.f0 }` over a single-field
// message, with the property of the field's kind and an op foldFor maps
// to an engine fold — the handler then runs once on the folded payload
// and computes what it would have computed message by message.
func combinableOps(p *Program) []ast.AssignOp {
	const opInvalid = ast.AssignOp(-1)
	ops := make([]ast.AssignOp, len(p.Msgs))
	for i := range ops {
		if len(p.Msgs[i].Fields) == 1 {
			ops[i] = opUnset
		} else {
			ops[i] = opInvalid
		}
	}
	for _, n := range p.Nodes {
		if n.Vertex == nil {
			continue
		}
		ir.WalkStmts(n.Vertex.Body, func(s ir.Stmt) {
			switch s := s.(type) {
			case ir.ForMsgs:
				op := handlerReduction(p, s)
				if ops[s.MsgType] == opUnset {
					ops[s.MsgType] = op
				} else if ops[s.MsgType] != op {
					ops[s.MsgType] = opInvalid
				}
			case ir.CollectInNbrs:
				ops[s.MsgType] = opInvalid
			}
		})
	}
	for i := range ops {
		if ops[i] == opUnset {
			ops[i] = opInvalid // never received: nothing to fold
		}
	}
	return ops
}

const opUnset = ast.AssignOp(-2)

// handlerReduction classifies one handler: the combinable op, or
// invalid.
func handlerReduction(p *Program, f ir.ForMsgs) ast.AssignOp {
	const opInvalid = ast.AssignOp(-1)
	if len(f.Body) != 1 || len(p.Msgs[f.MsgType].Fields) != 1 {
		return opInvalid
	}
	sp, ok := f.Body[0].(ir.SetProp)
	if !ok {
		return opInvalid
	}
	mf, ok := sp.RHS.(ir.MsgField)
	kind := p.Msgs[f.MsgType].Fields[0]
	if !ok || mf.Idx != 0 || exprKind(p, nil, mf) != kind || p.Props[sp.Slot].Kind != kind || foldFor(kind, sp.Op) == nil {
		return opInvalid
	}
	return sp.Op
}

// foldFor maps a reduction over a field kind to the engine's delivery
// fold, or nil when the engine has none for it.
func foldFor(kind ir.Kind, op ast.AssignOp) *pregel.Fold {
	var f pregel.Fold
	switch op {
	case ast.OpAdd:
		f.Op = pregel.AggSum
	case ast.OpMin:
		f.Op = pregel.AggMin
	case ast.OpMax:
		f.Op = pregel.AggMax
	case ast.OpOr:
		f.Op = pregel.AggOr
	case ast.OpAnd:
		f.Op = pregel.AggAnd
	default:
		return nil
	}
	switch kind {
	case ir.KFloat:
		f.Kind = pregel.AggKindFloat
	case ir.KBool:
		f.Kind = pregel.AggKindBool
	case ir.KNode:
		f.Kind = pregel.AggKindNode
	default:
		f.Kind = pregel.AggKindInt
	}
	if !f.Valid() {
		return nil
	}
	return &f
}

// edgeAddProps returns, for each message type, the edge property slot
// the engine adds to the type's broadcasts as Schema.EdgeAdd, or -1. A
// type qualifies when it is folded over Int or Float and every
// sendToNbrs of it matches edgeAddBase with the same property, which no
// statement writes: the engine reads the column when it delivers, not
// when the vertex sends. Each such send then compiles to one
// SendToAllNbrs of X, and the engine adds edge.p on each edge as it
// expands the broadcast — the payloads, fold order and billing of the
// per-edge sends.
func edgeAddProps(p *Program) []int {
	const unset = -2
	ops := combinableOps(p)
	slots := make([]int, len(p.Msgs))
	for t := range slots {
		slots[t] = -1
		if k := p.Msgs[t].Fields; ops[t] >= 0 && (k[0] == ir.KInt || k[0] == ir.KFloat) {
			slots[t] = unset
		}
	}
	written := make([]bool, len(p.Props))
	for _, n := range p.Nodes {
		vs := n.Vertex
		if vs == nil {
			continue
		}
		ir.WalkStmts(vs.Body, func(s ir.Stmt) {
			switch s := s.(type) {
			case ir.SetProp:
				written[s.Slot] = true
			case ir.SendToNbrs:
				if slots[s.MsgType] == -1 {
					return
				}
				if _, slot, ok := edgeAddBase(p, vs, s); !ok || slots[s.MsgType] != unset && slots[s.MsgType] != slot {
					slots[s.MsgType] = -1
				} else {
					slots[s.MsgType] = slot
				}
			}
		})
	}
	for t, slot := range slots {
		if slot == unset || slot >= 0 && written[slot] {
			slots[t] = -1
		}
	}
	return slots
}

// edgeAddBase matches a sendToNbrs whose only payload is `X + edge.p`
// or `edge.p + X`, with no edge condition, where X reads no edge
// property and X, p and the message's field are all of one kind — so
// that the engine adding p to X in the field's kind computes the
// payload's bits. It returns X and p's slot.
func edgeAddBase(p *Program, vs *VertexState, s ir.SendToNbrs) (ir.Expr, int, bool) {
	if s.EdgeCond != nil || len(s.Payload) != 1 {
		return nil, -1, false
	}
	sum, ok := s.Payload[0].(ir.Binary)
	if !ok || sum.Op != ast.BinAdd {
		return nil, -1, false
	}
	x, ep, ok := sum.L, ir.EdgePropRef{}, false
	if ep, ok = sum.R.(ir.EdgePropRef); !ok {
		x = sum.R
		ep, ok = sum.L.(ir.EdgePropRef)
	}
	kind := p.Msgs[s.MsgType].Fields[0]
	if !ok || exprKind(p, vs, x) != kind ||
		!p.Props[ep.Slot].IsEdge || p.Props[ep.Slot].Kind != kind || exprsUseEdgeProps([]ir.Expr{x}) {
		return nil, -1, false
	}
	return x, ep.Slot, true
}

// exprKind is the kind of e's value, the one kind table: arithmetic and
// ternaries with mixed branches promote, comparisons and logic are Bool
// and -x has x's kind. e must have passed validateExpr; vs is nil in
// master context.
func exprKind(p *Program, vs *VertexState, e ir.Expr) ir.Kind {
	switch e := e.(type) {
	case ir.Const:
		return e.V.K
	case ir.ScalarRef:
		return p.Scalars[e.Slot].Kind
	case ir.LocalRef:
		return vs.Locals[e.Slot]
	case ir.PropRef:
		return p.Props[e.Slot].Kind
	case ir.EdgePropRef:
		return p.Props[e.Slot].Kind
	case ir.MsgField:
		return e.K
	case ir.AggRef:
		return p.Aggs[e.Slot].Kind
	case ir.CurNode:
		return ir.KNode
	case ir.Builtin:
		if e.Op == ir.BPickRandom {
			return ir.KNode
		}
	case ir.Binary:
		if e.Op < ast.BinAdd { // ||, &&, ==, !=, <, >, <=, >=
			return ir.KBool
		}
		return promote(exprKind(p, vs, e.L), exprKind(p, vs, e.R))
	case ir.Unary:
		if e.Op == ast.UnNot {
			return ir.KBool
		}
		return exprKind(p, vs, e.X)
	case ir.Ternary:
		a, b := exprKind(p, vs, e.Then), exprKind(p, vs, e.Else)
		if a != b {
			return promote(a, b)
		}
		return a
	}
	return ir.KInt
}

// promote is the kind arithmetic on l and r yields (ir.Eval).
func promote(l, r ir.Kind) ir.Kind {
	if l == ir.KFloat || r == ir.KFloat {
		return ir.KFloat
	}
	return ir.KInt
}
