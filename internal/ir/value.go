// Package ir defines the resolved intermediate representation executed by
// the machine interpreter and printed by the GPS code generator: a small
// slot-based expression/statement language over master scalars,
// vertex-local temporaries, vertex/edge properties, message payload
// fields, and aggregator contributions.
package ir

import (
	"fmt"
	"math"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/graph"
	"gmpregel/internal/pregel"
)

// Kind is the runtime kind of a value. The source kinds Int/Long collapse
// to KInt (int64) and Float/Double to KFloat (float64), matching the
// widths GPS programs actually ship over the wire.
type Kind uint8

// Runtime value kinds.
const (
	KInt Kind = iota
	KFloat
	KBool
	KNode
)

var kindNames = [...]string{"Int", "Float", "Bool", "Node"}

func (k Kind) String() string { return kindNames[k] }

// KindOfType maps a source type kind to its runtime kind.
func KindOfType(k ast.TypeKind) Kind {
	switch k {
	case ast.TInt, ast.TLong:
		return KInt
	case ast.TFloat, ast.TDouble:
		return KFloat
	case ast.TBool:
		return KBool
	case ast.TNode:
		return KNode
	default:
		return KInt
	}
}

// AggKind maps the kind to the engine's: the kind of a message field,
// fold, aggregator or global, whose WireBytes is its serialized size.
func (k Kind) AggKind() pregel.AggKind {
	return [...]pregel.AggKind{KInt: pregel.AggKindInt, KFloat: pregel.AggKindFloat,
		KBool: pregel.AggKindBool, KNode: pregel.AggKindNode}[k]
}

// Value is a runtime value: I holds ints, bools (0/1), and node IDs;
// F holds floats.
type Value struct {
	K Kind
	I int64
	F float64
}

// Int constructs an integer value.
//
//gm:noalloc
func Int(v int64) Value { return Value{K: KInt, I: v} }

// Float constructs a float value.
//
//gm:noalloc
func Float(v float64) Value { return Value{K: KFloat, F: v} }

// Bool constructs a boolean value.
//
//gm:noalloc
func Bool(v bool) Value {
	if v {
		return Value{K: KBool, I: 1}
	}
	return Value{K: KBool}
}

// Node constructs a node-ID value.
//
//gm:noalloc
func Node(v graph.NodeID) Value { return Value{K: KNode, I: int64(v)} }

// Zero returns the zero value of kind k (NIL for nodes).
//
//gm:noalloc
func Zero(k Kind) Value {
	if k == KNode {
		return Value{K: KNode, I: int64(graph.NilNode)}
	}
	return Value{K: k}
}

// Inf returns the positive infinity of kind k.
//
//gm:noalloc
func Inf(k Kind) Value {
	if k == KFloat {
		return Float(math.Inf(1))
	}
	return Value{K: k, I: math.MaxInt64}
}

// AsBool interprets the value as a boolean.
//
//gm:noalloc
func (v Value) AsBool() bool { return v.I != 0 }

// AsInt interprets the value as an int64 (truncating floats).
//
//gm:noalloc
func (v Value) AsInt() int64 {
	if v.K == KFloat {
		return int64(v.F)
	}
	return v.I
}

// AsFloat interprets the value as a float64.
//
//gm:noalloc
func (v Value) AsFloat() float64 {
	if v.K == KFloat {
		return v.F
	}
	return float64(v.I)
}

// AsNode interprets the value as a node ID.
//
//gm:noalloc
func (v Value) AsNode() graph.NodeID { return graph.NodeID(v.I) }

// Convert coerces the value to kind k (numeric conversions; identity
// otherwise).
//
//gm:noalloc
func (v Value) Convert(k Kind) Value {
	if v.K == k {
		return v
	}
	switch k {
	case KFloat:
		return Float(v.AsFloat())
	case KInt:
		return Int(v.AsInt())
	case KBool:
		return Bool(v.AsBool())
	case KNode:
		return Value{K: KNode, I: v.I}
	}
	return v
}

// String renders the value for debugging.
func (v Value) String() string {
	switch v.K {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%g", v.F)
	case KBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		if v.I == int64(graph.NilNode) {
			return "NIL"
		}
		return fmt.Sprintf("n%d", v.I)
	}
}

// Equal compares two values after numeric promotion.
//
//gm:noalloc
func Equal(a, b Value) bool {
	if a.K == KFloat || b.K == KFloat {
		return a.AsFloat() == b.AsFloat()
	}
	return a.I == b.I
}

// Less compares two numeric values after promotion.
//
//gm:noalloc
func Less(a, b Value) bool {
	if a.K == KFloat || b.K == KFloat {
		return a.AsFloat() < b.AsFloat()
	}
	return a.I < b.I
}

// Reduce applies the reduction op to old and contribution values,
// returning the new stored value. RSet overwrites.
//
//gm:noalloc
func Reduce(op ast.AssignOp, old, v Value) Value {
	switch op {
	case ast.OpSet:
		return v.Convert(old.K)
	case ast.OpAdd:
		if old.K == KFloat {
			return Float(old.F + v.AsFloat())
		}
		return Value{K: old.K, I: old.I + v.AsInt()}
	case ast.OpSub:
		if old.K == KFloat {
			return Float(old.F - v.AsFloat())
		}
		return Value{K: old.K, I: old.I - v.AsInt()}
	case ast.OpMul:
		if old.K == KFloat {
			return Float(old.F * v.AsFloat())
		}
		return Value{K: old.K, I: old.I * v.AsInt()}
	case ast.OpMin:
		if Less(v, old) {
			return v.Convert(old.K)
		}
		return old
	case ast.OpMax:
		if Less(old, v) {
			return v.Convert(old.K)
		}
		return old
	case ast.OpAnd:
		return Bool(old.AsBool() && v.AsBool())
	case ast.OpOr:
		return Bool(old.AsBool() || v.AsBool())
	}
	return old
}
