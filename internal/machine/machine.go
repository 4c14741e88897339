// Package machine defines the compiled Pregel program representation the
// Green-Marl compiler targets, and interprets it on the pregel engine.
//
// A Program is a control-flow graph whose nodes are either master blocks
// (sequential code executed inside master.compute) or vertex states
// (vertex-parallel code executed inside vertex.compute). Each superstep,
// the master runs blocks — following Goto/CondGoto terminators — until it
// reaches a vertex state, broadcasts that state's number and the scalars
// the state reads (the paper's global-objects map), and lets the vertex
// phase run; the next superstep resumes at the state's successor. This is
// exactly the state-machine structure of the paper's generated GPS code
// (§3.1, "State Machine Construction").
package machine

import (
	"cmp"
	"fmt"
	"strings"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/ir"
)

// ScalarDecl declares a master scalar (a "global variable" of the
// original program, or a compiler temporary).
type ScalarDecl struct {
	Name    string
	Kind    ir.Kind
	IsParam bool
}

// PropDecl declares a vertex or edge property column.
type PropDecl struct {
	Name    string
	Kind    ir.Kind
	IsEdge  bool
	IsParam bool
}

// AggDecl declares an aggregator used to reduce vertex writes into a
// master scalar.
type AggDecl struct {
	Name string
	Kind ir.Kind
	Op   ast.AssignOp // OpAdd/OpMin/OpMax/OpAnd/OpOr, or OpSet for any-wins
}

// MsgSchema declares one message type's payload layout.
type MsgSchema struct {
	Name   string
	Fields []ir.Kind
}

// PayloadBytes is the wire size of the message payload.
func (m MsgSchema) PayloadBytes() int {
	n := 0
	for _, f := range m.Fields {
		n += f.WireSize()
	}
	return n
}

// TermKind is a master-block terminator kind.
type TermKind int

// Terminator kinds.
const (
	TGoto TermKind = iota
	TCond
	THalt
)

// Term transfers control between CFG nodes.
type Term struct {
	Kind TermKind
	Cond ir.Expr // TCond
	Then int     // TGoto/TCond target
	Else int     // TCond target
}

// MasterBlock is sequential master code plus a terminator.
type MasterBlock struct {
	Stmts []ir.Stmt
	Term  Term
}

// VertexState is one vertex-parallel state: its body runs once per
// vertex in the superstep where the state is active.
type VertexState struct {
	Name string
	Body []ir.Stmt
	// Next is the CFG node where the master resumes next superstep.
	Next int
	// ReadScalars lists master scalar slots the body reads; they are
	// broadcast through the global-objects map before the state runs.
	ReadScalars []int
	// Locals declares per-invocation temporary slots.
	Locals []ir.Kind
	// LocalNames aligns with Locals, for printing.
	LocalNames []string
}

// CFGNode is either a master block or a vertex state.
type CFGNode struct {
	Master *MasterBlock
	Vertex *VertexState
}

// LoopInfo records the CFG shape of one source While/Do-While loop, for
// the intra-loop state merging optimization.
type LoopInfo struct {
	// Cond is the node holding the loop's condition terminator.
	Cond int
	// BodyStart is the first node of the loop body.
	BodyStart int
	// BackEdge is the node whose terminator returns to the condition
	// (equal to Cond for do-while loops).
	BackEdge int
	DoWhile  bool
}

// Program is a complete compiled Pregel program.
type Program struct {
	Name    string
	Scalars []ScalarDecl
	Props   []PropDecl
	Aggs    []AggDecl
	Msgs    []MsgSchema
	Nodes   []CFGNode
	Entry   int
	Loops   []LoopInfo
	// HasReturn reports whether the program produces a return value.
	HasReturn  bool
	ReturnKind ir.Kind
	// Analysis is the front end's static-analysis verdict (nil for
	// hand-built programs); it rides along in the JSON artifact so
	// downstream tooling can report which programs compiled clean.
	Analysis *AnalysisSummary
}

// AnalysisSummary condenses the diagnostics the static analyzer emitted
// for the source procedure: severity totals and the distinct codes seen.
type AnalysisSummary struct {
	Errors      int      `json:"errors"`
	Warnings    int      `json:"warnings"`
	Infos       int      `json:"infos"`
	Codes       []string `json:"codes,omitempty"`
	WarningFree bool     `json:"warning_free"`
}

// NumVertexStates counts the vertex-parallel kernels of the program (the
// paper's "vertex-centric kernels").
func (p *Program) NumVertexStates() int {
	n := 0
	for _, c := range p.Nodes {
		if c.Vertex != nil {
			n++
		}
	}
	return n
}

// Validate checks CFG and slot invariants, returning the first
// violation: terminator targets, and in every master block, terminator
// condition and vertex state, that each statement and expression is one
// its context runs, names only declared slots, types, fields and
// operators, and gives them operands of kinds they take (exprKind).
func (p *Program) Validate() error {
	if p.Entry < 0 || p.Entry >= len(p.Nodes) {
		return fmt.Errorf("machine: entry %d out of range", p.Entry)
	}
	err := kindErr("return value", p.ReturnKind)
	for _, s := range p.Scalars {
		err = cmp.Or(err, kindErr("scalar", s.Kind))
	}
	for _, d := range p.Props {
		err = cmp.Or(err, kindErr("prop", d.Kind))
	}
	for _, a := range p.Aggs {
		err = cmp.Or(err, kindErr("agg", a.Kind))
	}
	for _, m := range p.Msgs {
		err = cmp.Or(err, kindErr("message field", m.Fields...))
	}
	if err != nil {
		return fmt.Errorf("machine: %v", err)
	}
	inRange := func(t int) bool { return t >= 0 && t < len(p.Nodes) }
	for i, n := range p.Nodes {
		switch {
		case n.Master == nil && n.Vertex == nil:
			return fmt.Errorf("machine: node %d is empty", i)
		case n.Master != nil && n.Vertex != nil:
			return fmt.Errorf("machine: node %d is both master and vertex", i)
		case n.Master != nil:
			t := n.Master.Term
			switch t.Kind {
			case TGoto:
				if !inRange(t.Then) {
					return fmt.Errorf("machine: node %d goto target %d out of range", i, t.Then)
				}
			case TCond:
				if !inRange(t.Then) || !inRange(t.Else) {
					return fmt.Errorf("machine: node %d cond targets (%d,%d) out of range", i, t.Then, t.Else)
				}
				if t.Cond == nil {
					return fmt.Errorf("machine: node %d cond terminator without condition", i)
				}
				if err := p.condErr(t.Cond, nil, -1); err != nil {
					return fmt.Errorf("machine: node %d condition: %v", i, err)
				}
			case THalt:
			default:
				return fmt.Errorf("machine: node %d has unknown terminator %d", i, t.Kind)
			}
			if err := p.validateStmts(n.Master.Stmts, nil, -1); err != nil {
				return fmt.Errorf("machine: master block %d: %v", i, err)
			}
		case n.Vertex != nil:
			if !inRange(n.Vertex.Next) {
				return fmt.Errorf("machine: vertex state %d next %d out of range", i, n.Vertex.Next)
			}
			for _, s := range n.Vertex.ReadScalars {
				if s < 0 || s >= len(p.Scalars) {
					return fmt.Errorf("machine: vertex state %d reads bad scalar %d", i, s)
				}
			}
			if err = kindErr("local", n.Vertex.Locals...); err == nil {
				err = p.validateStmts(n.Vertex.Body, n.Vertex, -1)
			}
			if err != nil {
				return fmt.Errorf("machine: vertex state %d: %v", i, err)
			}
		}
	}
	return nil
}

// validateStmts checks ss as master code (vs nil) or as the body of
// vertex state vs; msg is the message type of the enclosing receive
// loop, -1 outside one.
func (p *Program) validateStmts(ss []ir.Stmt, vs *VertexState, msg int) error {
	for _, s := range ss {
		var master bool
		switch s.(type) {
		case ir.SetScalar, ir.FoldAgg, ir.Return:
			master = true
		case ir.If:
			master = vs == nil
		}
		if master != (vs == nil) {
			return fmt.Errorf("statement %T out of context", s)
		}
		var exprs []ir.Expr
		var cond ir.Expr // must be Bool
		var err error
		switch s := s.(type) {
		case ir.SetScalar:
			exprs, err = []ir.Expr{s.RHS}, slotErr("scalar", s.Slot, len(p.Scalars))
		case ir.FoldAgg:
			err = cmp.Or(slotErr("scalar", s.Scalar, len(p.Scalars)), slotErr("agg", s.Agg, len(p.Aggs)))
		case ir.Return:
			if s.Value != nil {
				exprs = []ir.Expr{s.Value}
			}
		case ir.SetProp:
			err = cmp.Or(slotErr("prop", s.Slot, len(p.Props)), slotErr("assignment operator", int(s.Op), int(ast.OpOr)+1))
			exprs = []ir.Expr{s.RHS}
		case ir.SetLocal:
			exprs, err = []ir.Expr{s.RHS}, slotErr("local", s.Slot, len(vs.Locals))
		case ir.ContribAgg:
			exprs, err = []ir.Expr{s.RHS}, slotErr("agg", s.Agg, len(p.Aggs))
		case ir.SendToNbrs:
			exprs, err = s.Payload, p.sendErr(s.MsgType, s.Payload)
			cond = s.EdgeCond
		case ir.SendTo:
			err = p.sendErr(s.MsgType, s.Payload)
			exprs = append(s.Payload[:len(s.Payload):len(s.Payload)], s.Target)
		case ir.SendToInNbrs:
			exprs, err = s.Payload, p.sendErr(s.MsgType, s.Payload)
		case ir.CollectInNbrs:
			err = slotErr("message type", s.MsgType, len(p.Msgs))
		case ir.ForMsgs:
			if err = slotErr("message type", s.MsgType, len(p.Msgs)); err == nil {
				err = p.validateStmts(s.Body, vs, s.MsgType)
			}
		case ir.If:
			err, cond = cmp.Or(p.validateStmts(s.Then, vs, msg), p.validateStmts(s.Else, vs, msg)), s.Cond
		default:
			err = fmt.Errorf("unknown statement %T", s)
		}
		for _, e := range exprs {
			err = cmp.Or(err, p.validateExpr(e, vs, msg))
		}
		if err == nil && cond != nil {
			err = p.condErr(cond, vs, msg)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// validateExpr checks e in the context validateStmts describes.
func (p *Program) validateExpr(e ir.Expr, vs *VertexState, msg int) error {
	vertexOnly := false
	switch e := e.(type) {
	case ir.LocalRef, ir.PropRef, ir.EdgePropRef, ir.CurNode, ir.MsgField:
		vertexOnly = true
	case ir.Builtin:
		vertexOnly = e.Op == ir.BDegree || e.Op == ir.BNodeId
	case ir.AggRef:
		if vs != nil {
			return fmt.Errorf("expression %T out of context", e)
		}
	}
	if vertexOnly && vs == nil {
		return fmt.Errorf("expression %T out of context", e)
	}
	switch e := e.(type) {
	case nil:
		return fmt.Errorf("missing expression")
	case ir.Const:
		return kindErr("constant", e.V.K)
	case ir.CurNode:
		return nil
	case ir.ScalarRef:
		return slotErr("scalar", e.Slot, len(p.Scalars))
	case ir.AggRef:
		return slotErr("agg", e.Slot, len(p.Aggs))
	case ir.LocalRef:
		return slotErr("local", e.Slot, len(vs.Locals))
	case ir.PropRef:
		return p.propErr(e.Slot, false)
	case ir.EdgePropRef:
		return p.propErr(e.Slot, true)
	case ir.MsgField:
		if msg < 0 {
			return fmt.Errorf("message field %d read outside a receive loop", e.Idx)
		}
		return cmp.Or(kindErr("message field", e.K), slotErr("message field", e.Idx, len(p.Msgs[msg].Fields)))
	case ir.Builtin:
		return slotErr("builtin", int(e.Op), int(ir.BNodeId)+1)
	case ir.Binary:
		if e.Op == ast.BinAnd || e.Op == ast.BinOr { // each operand walked once
			return cmp.Or(p.condErr(e.L, vs, msg), p.condErr(e.R, vs, msg))
		}
		err := cmp.Or(slotErr("binary operator", int(e.Op), int(ast.BinMod)+1), p.validateExpr(e.L, vs, msg), p.validateExpr(e.R, vs, msg))
		if err == nil && e.Op == ast.BinMod && (exprKind(p, vs, e.L) == ir.KFloat || exprKind(p, vs, e.R) == ir.KFloat) {
			err = fmt.Errorf("%s has a Float operand", e)
		}
		return err
	case ir.Unary:
		if e.Op == ast.UnNot {
			return p.condErr(e.X, vs, msg)
		}
		return p.validateExpr(e.X, vs, msg)
	case ir.Ternary:
		return cmp.Or(p.condErr(e.Cond, vs, msg), p.validateExpr(e.Then, vs, msg), p.validateExpr(e.Else, vs, msg))
	}
	return fmt.Errorf("unknown expression %T", e)
}

// condErr checks e as a condition: valid, and Bool (AsBool reads I,
// which is 0 in every float).
func (p *Program) condErr(e ir.Expr, vs *VertexState, msg int) error {
	if err := p.validateExpr(e, vs, msg); err != nil {
		return err
	}
	if k := exprKind(p, vs, e); k != ir.KBool {
		return fmt.Errorf("condition %s is %s, not %s", e, k, ir.KBool)
	}
	return nil
}

// kindErr reports the first of ks that is not Int, Float, Bool or Node,
// the kinds Value.Convert and the typed closures read alike.
func kindErr(what string, ks ...ir.Kind) error {
	for _, k := range ks {
		if k > ir.KNode {
			return fmt.Errorf("%s of bad kind %d", what, k)
		}
	}
	return nil
}

// slotErr reports a slot outside the n declared.
func slotErr(what string, slot, n int) error {
	if slot < 0 || slot >= n {
		return fmt.Errorf("bad %s slot %d", what, slot)
	}
	return nil
}

// propErr checks a reference to property slot, which must be an edge
// property exactly when edge is set.
func (p *Program) propErr(slot int, edge bool) error {
	if err := slotErr("prop", slot, len(p.Props)); err != nil {
		return err
	}
	if p.Props[slot].IsEdge != edge {
		return fmt.Errorf("prop %d read as the wrong kind (edge %v)", slot, edge)
	}
	return nil
}

// sendErr checks a send's message type and payload width.
func (p *Program) sendErr(t int, payload []ir.Expr) error {
	if err := slotErr("message type", t, len(p.Msgs)); err != nil {
		return err
	}
	if len(payload) != len(p.Msgs[t].Fields) {
		return fmt.Errorf("message type %d sent with %d fields, declared with %d", t, len(payload), len(p.Msgs[t].Fields))
	}
	return nil
}

// String renders a readable listing of the program (used by the CLI's
// -dump-machine and by debugging tests).
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	fmt.Fprintf(&b, "  scalars:")
	for i, s := range p.Scalars {
		fmt.Fprintf(&b, " [%d]%s:%s", i, s.Name, s.Kind)
	}
	fmt.Fprintf(&b, "\n  props:")
	for i, pr := range p.Props {
		tag := "node"
		if pr.IsEdge {
			tag = "edge"
		}
		fmt.Fprintf(&b, " [%d]%s:%s(%s)", i, pr.Name, pr.Kind, tag)
	}
	fmt.Fprintf(&b, "\n  aggs:")
	for i, a := range p.Aggs {
		fmt.Fprintf(&b, " [%d]%s:%s %s", i, a.Name, a.Kind, a.Op)
	}
	fmt.Fprintf(&b, "\n  msgs:")
	for i, m := range p.Msgs {
		fmt.Fprintf(&b, " [%d]%s%v", i, m.Name, m.Fields)
	}
	fmt.Fprintf(&b, "\n  entry: node %d\n", p.Entry)
	for i, n := range p.Nodes {
		if n.Master != nil {
			fmt.Fprintf(&b, "  node %d (master):\n", i)
			for _, s := range n.Master.Stmts {
				fmt.Fprintf(&b, "    %s\n", s)
			}
			switch n.Master.Term.Kind {
			case TGoto:
				fmt.Fprintf(&b, "    goto %d\n", n.Master.Term.Then)
			case TCond:
				fmt.Fprintf(&b, "    if %s goto %d else %d\n", n.Master.Term.Cond, n.Master.Term.Then, n.Master.Term.Else)
			case THalt:
				fmt.Fprintf(&b, "    halt\n")
			}
		} else {
			v := n.Vertex
			fmt.Fprintf(&b, "  node %d (vertex %q, next=%d, reads=%v):\n", i, v.Name, v.Next, v.ReadScalars)
			for _, s := range v.Body {
				fmt.Fprintf(&b, "    %s\n", s)
			}
		}
	}
	return b.String()
}
