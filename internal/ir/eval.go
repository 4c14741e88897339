package ir

import (
	"fmt"
	"math"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/graph"
)

// Env supplies the runtime state Eval reads. The machine package
// implements it twice: once for master context and once for vertex
// context; operations invalid in a context panic with a descriptive
// message (a compiler bug, not a user error).
type Env interface {
	Scalar(slot int) Value
	Local(slot int) Value
	Prop(slot int) Value
	EdgeProp(slot int) Value
	CurNode() Value
	MsgField(idx int) Value
	Agg(slot int) (Value, bool)
	BuiltinVal(op BuiltinOp) Value
	// Kind is the static kind of e: the kind its value has, whichever
	// way its ternaries go.
	Kind(e Expr) Kind
}

// Eval evaluates e in env. Arithmetic follows the runtime promotion
// rule: float if either operand is float, else 64-bit integer; division
// between integers truncates.
func Eval(e Expr, env Env) Value {
	switch e := e.(type) {
	case Const:
		return e.V
	case ScalarRef:
		return env.Scalar(e.Slot)
	case LocalRef:
		return env.Local(e.Slot)
	case PropRef:
		return env.Prop(e.Slot)
	case EdgePropRef:
		return env.EdgeProp(e.Slot)
	case CurNode:
		return env.CurNode()
	case MsgField:
		// The environment returns the raw 64-bit payload slot; its
		// interpretation depends on the schema field kind.
		raw := env.MsgField(e.Idx)
		switch e.K {
		case KFloat:
			return Float(math.Float64frombits(uint64(raw.I)))
		case KBool:
			return Bool(raw.I != 0)
		case KNode:
			return Node(graph.NodeID(int32(uint32(raw.I))))
		default:
			return Int(raw.I)
		}
	case AggRef:
		v, _ := env.Agg(e.Slot)
		return v
	case Builtin:
		return env.BuiltinVal(e.Op)
	case Binary:
		return evalBinary(e, env)
	case Unary:
		x := Eval(e.X, env)
		if e.Op == ast.UnNot {
			return Bool(!x.AsBool())
		}
		if x.K == KFloat {
			return Float(-x.F)
		}
		return Value{K: x.K, I: -x.I}
	case Ternary:
		// The branch taken converts to the promoted kind of both, so
		// (c ? int : float) is a float either way.
		x := e.Else
		if Eval(e.Cond, env).AsBool() {
			x = e.Then
		}
		return Eval(x, env).Convert(env.Kind(e))
	}
	panic(fmt.Sprintf("ir: cannot evaluate %T", e))
}

func evalBinary(e Binary, env Env) Value {
	// Short-circuit logical operators.
	switch e.Op {
	case ast.BinAnd:
		if !Eval(e.L, env).AsBool() {
			return Bool(false)
		}
		return Bool(Eval(e.R, env).AsBool())
	case ast.BinOr:
		if Eval(e.L, env).AsBool() {
			return Bool(true)
		}
		return Bool(Eval(e.R, env).AsBool())
	}
	l := Eval(e.L, env)
	r := Eval(e.R, env)
	switch e.Op {
	case ast.BinEq:
		return Bool(Equal(l, r))
	case ast.BinNeq:
		return Bool(!Equal(l, r))
	case ast.BinLt:
		return Bool(Less(l, r))
	case ast.BinGt:
		return Bool(Less(r, l))
	case ast.BinLe:
		return Bool(!Less(r, l))
	case ast.BinGe:
		return Bool(!Less(l, r))
	}
	if l.K == KFloat || r.K == KFloat {
		a, b := l.AsFloat(), r.AsFloat()
		switch e.Op {
		case ast.BinAdd:
			return Float(a + b)
		case ast.BinSub:
			return Float(a - b)
		case ast.BinMul:
			return Float(a * b)
		case ast.BinDiv:
			return Float(a / b)
		}
		panic(fmt.Sprintf("ir: float operands for %s", e.Op))
	}
	a, b := l.AsInt(), r.AsInt()
	switch e.Op {
	case ast.BinAdd:
		return Int(a + b)
	case ast.BinSub:
		return Int(a - b)
	case ast.BinMul:
		return Int(a * b)
	case ast.BinDiv:
		if b == 0 {
			return Int(0)
		}
		return Int(a / b)
	case ast.BinMod:
		if b == 0 {
			return Int(0)
		}
		return Int(a % b)
	}
	panic(fmt.Sprintf("ir: unknown binary op %s", e.Op))
}

// WalkExprs visits e and all sub-expressions pre-order.
func WalkExprs(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case Binary:
		WalkExprs(e.L, f)
		WalkExprs(e.R, f)
	case Unary:
		WalkExprs(e.X, f)
	case Ternary:
		WalkExprs(e.Cond, f)
		WalkExprs(e.Then, f)
		WalkExprs(e.Else, f)
	}
}

// WalkStmtExprs visits every expression in the statement list.
func WalkStmtExprs(ss []Stmt, f func(Expr)) {
	for _, s := range ss {
		switch s := s.(type) {
		case SetScalar:
			WalkExprs(s.RHS, f)
		case SetLocal:
			WalkExprs(s.RHS, f)
		case SetProp:
			WalkExprs(s.RHS, f)
		case ContribAgg:
			WalkExprs(s.RHS, f)
		case SendToNbrs:
			WalkExprs(s.EdgeCond, f)
			for _, p := range s.Payload {
				WalkExprs(p, f)
			}
		case SendTo:
			WalkExprs(s.Target, f)
			for _, p := range s.Payload {
				WalkExprs(p, f)
			}
		case SendToInNbrs:
			for _, p := range s.Payload {
				WalkExprs(p, f)
			}
		case ForMsgs:
			WalkStmtExprs(s.Body, f)
		case If:
			WalkExprs(s.Cond, f)
			WalkStmtExprs(s.Then, f)
			WalkStmtExprs(s.Else, f)
		case Return:
			WalkExprs(s.Value, f)
		}
	}
}
