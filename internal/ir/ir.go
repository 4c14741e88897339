package ir

import (
	"fmt"
	"strings"

	"gmpregel/internal/gm/ast"
)

// ---- Expressions ----

// Expr is a resolved expression.
type Expr interface {
	irExpr()
	String() string
}

// Const is a literal value.
type Const struct{ V Value }

func (Const) irExpr()          {}
func (c Const) String() string { return c.V.String() }

// ScalarRef reads master scalar slot (broadcast to vertices).
type ScalarRef struct {
	Slot int
	Name string // for printing
}

func (ScalarRef) irExpr()          {}
func (s ScalarRef) String() string { return "$" + s.Name }

// LocalRef reads a vertex-compute-local temporary slot.
type LocalRef struct {
	Slot int
	Name string
}

func (LocalRef) irExpr()          {}
func (l LocalRef) String() string { return "%" + l.Name }

// PropRef reads the current vertex's property slot.
type PropRef struct {
	Slot int
	Name string
}

func (PropRef) irExpr()          {}
func (p PropRef) String() string { return "this." + p.Name }

// EdgePropRef reads the current out-edge's property (valid inside a
// neighbor send loop).
type EdgePropRef struct {
	Slot int
	Name string
}

func (EdgePropRef) irExpr()          {}
func (e EdgePropRef) String() string { return "edge." + e.Name }

// CurNode is the current vertex's ID as a node value.
type CurNode struct{}

func (CurNode) irExpr()        {}
func (CurNode) String() string { return "this.id" }

// MsgField reads field Idx of the message being processed (valid inside
// ForMsgs).
type MsgField struct {
	Idx int
	K   Kind
}

func (MsgField) irExpr()          {}
func (m MsgField) String() string { return fmt.Sprintf("msg.f%d", m.Idx) }

// AggRef reads aggregator slot (master context, value contributed during
// the previous superstep).
type AggRef struct {
	Slot int
	Name string
}

func (AggRef) irExpr()          {}
func (a AggRef) String() string { return "agg." + a.Name }

// BuiltinOp enumerates builtin value sources.
type BuiltinOp int

// Builtins.
const (
	BNumNodes BuiltinOp = iota // graph size (master and vertex)
	BNumEdges
	BDegree     // out-degree of the current vertex (vertex only)
	BPickRandom // uniform random node
	BNodeId     // the current vertex's ID as an integer (vertex only)
)

var builtinNames = [...]string{"NumNodes", "NumEdges", "Degree", "PickRandom", "Id"}

// Builtin evaluates a builtin.
type Builtin struct{ Op BuiltinOp }

func (Builtin) irExpr()          {}
func (b Builtin) String() string { return builtinNames[b.Op] + "()" }

// Binary applies op after numeric promotion (int64 unless either side is
// float; comparisons yield Bool).
type Binary struct {
	Op   ast.BinOp
	L, R Expr
}

func (Binary) irExpr() {}
func (b Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Unary applies ! or -.
type Unary struct {
	Op ast.UnOp
	X  Expr
}

func (Unary) irExpr() {}
func (u Unary) String() string {
	if u.Op == ast.UnNot {
		return "!" + u.X.String()
	}
	return "-" + u.X.String()
}

// Ternary is cond ? a : b.
type Ternary struct{ Cond, Then, Else Expr }

func (Ternary) irExpr() {}
func (t Ternary) String() string {
	return fmt.Sprintf("(%s ? %s : %s)", t.Cond, t.Then, t.Else)
}

// ---- Statements ----

// Stmt is a resolved statement. Vertex statements run inside
// vertex.compute; master statements inside master.compute. The doc
// comment of each type notes its valid context.
type Stmt interface {
	irStmt()
	String() string
}

// SetScalar assigns (or reduce-assigns) a master scalar. Master context.
type SetScalar struct {
	Slot int
	Name string
	Op   ast.AssignOp
	RHS  Expr
}

func (SetScalar) irStmt() {}
func (s SetScalar) String() string {
	return fmt.Sprintf("$%s %s %s", s.Name, s.Op, s.RHS)
}

// FoldAgg folds an aggregator value contributed last superstep into a
// master scalar, if any vertex contributed. Master context.
type FoldAgg struct {
	Scalar     int
	ScalarName string
	Agg        int
	AggName    string
	Op         ast.AssignOp
}

func (FoldAgg) irStmt() {}
func (f FoldAgg) String() string {
	return fmt.Sprintf("$%s %s agg.%s?", f.ScalarName, f.Op, f.AggName)
}

// SetLocal assigns a vertex-compute-local temporary. Vertex context.
type SetLocal struct {
	Slot int
	Name string
	RHS  Expr
}

func (SetLocal) irStmt() {}
func (s SetLocal) String() string {
	return fmt.Sprintf("%%%s = %s", s.Name, s.RHS)
}

// SetProp assigns (or reduce-assigns) the current vertex's property.
// Vertex context.
type SetProp struct {
	Slot int
	Name string
	Op   ast.AssignOp
	RHS  Expr
}

func (SetProp) irStmt() {}
func (s SetProp) String() string {
	return fmt.Sprintf("this.%s %s %s", s.Name, s.Op, s.RHS)
}

// ContribAgg contributes a value to an aggregator. Vertex context.
type ContribAgg struct {
	Agg  int
	Name string
	RHS  Expr
}

func (ContribAgg) irStmt() {}
func (c ContribAgg) String() string {
	return fmt.Sprintf("agg.%s <- %s", c.Name, c.RHS)
}

// SendToNbrs sends one message per out-edge, evaluating EdgeCond (nil =
// always) and the payload per edge; EdgePropRef is valid inside both.
// Vertex context.
type SendToNbrs struct {
	MsgType  int
	EdgeCond Expr
	Payload  []Expr
}

func (SendToNbrs) irStmt() {}
func (s SendToNbrs) String() string {
	return fmt.Sprintf("sendToNbrs(type=%d, cond=%v, payload=%s)", s.MsgType, s.EdgeCond, exprList(s.Payload))
}

// SendTo sends one message to the node-valued Target (skipped when the
// target evaluates to NIL). Vertex context.
type SendTo struct {
	Target  Expr
	MsgType int
	Payload []Expr
}

func (SendTo) irStmt() {}
func (s SendTo) String() string {
	return fmt.Sprintf("sendTo(%s, type=%d, payload=%s)", s.Target, s.MsgType, exprList(s.Payload))
}

// SendToInNbrs sends one message per stored incoming neighbor (the list
// built by the program's CollectInNbrs prologue — the paper's §4.3
// "Incoming Neighbors" support). Edge properties are not available.
// Vertex context.
type SendToInNbrs struct {
	MsgType int
	Payload []Expr
}

func (SendToInNbrs) irStmt() {}
func (s SendToInNbrs) String() string {
	return fmt.Sprintf("sendToInNbrs(type=%d, payload=%s)", s.MsgType, exprList(s.Payload))
}

// CollectInNbrs stores the node ID in field 0 of each received message
// of MsgType into this vertex's incoming-neighbor list. Vertex context.
type CollectInNbrs struct {
	MsgType int
}

func (CollectInNbrs) irStmt() {}
func (c CollectInNbrs) String() string {
	return fmt.Sprintf("collectInNbrs(type=%d)", c.MsgType)
}

// ForMsgs iterates the received messages of MsgType; MsgField is valid
// in the body. Vertex context. The compiler emits it only as a receive
// handler at the top of a state body, but a decoded artifact may nest it
// under an If or in another ForMsgs.
type ForMsgs struct {
	MsgType int
	Body    []Stmt
}

func (ForMsgs) irStmt() {}
func (f ForMsgs) String() string {
	return fmt.Sprintf("for msgs(type=%d) { %s }", f.MsgType, stmtList(f.Body))
}

// If branches on Cond. Valid in both contexts.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (If) irStmt() {}
func (i If) String() string {
	s := fmt.Sprintf("if %s { %s }", i.Cond, stmtList(i.Then))
	if len(i.Else) > 0 {
		s += fmt.Sprintf(" else { %s }", stmtList(i.Else))
	}
	return s
}

// Return records the program's return value and halts. Master context.
type Return struct{ Value Expr } // nil Value = bare halt

func (Return) irStmt() {}
func (r Return) String() string {
	if r.Value == nil {
		return "return"
	}
	return "return " + r.Value.String()
}

func exprList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func stmtList(ss []Stmt) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}
