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
	// interpreter instead of the closure-compiled bodies. Slower; used by
	// the differential tests that check both executors agree.
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
	var scan func(ss []ir.Stmt)
	scan = func(ss []ir.Stmt) {
		for _, s := range ss {
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
			case ir.If:
				scan(s.Then)
				scan(s.Else)
			}
		}
	}
	for _, n := range p.Nodes {
		if n.Vertex != nil {
			scan(n.Vertex.Body)
		}
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
	if !ok || mf.Idx != 0 || mf.K != kind || p.Props[sp.Slot].Kind != kind || foldFor(kind, sp.Op) == nil {
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
