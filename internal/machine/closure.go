// Closure compilation: vertex-state bodies are compiled once per run
// into trees of Go closures, each of one result type (float64, int64 or
// bool) fixed by its expression's static kind (exprKind): no closure
// boxes a value or branches on its kind, and each computes, bit for bit,
// what the reference interpreter (ir.Eval on ir.Value) does. The GPS
// Java the paper measures is javac-compiled; this is our equivalent,
// keeping Figure 6 about the programming model, not interpretation.
package machine

import (
	"fmt"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/graph"
	"gmpregel/internal/ir"
	"gmpregel/internal/pregel"
)

type (
	floatFn func(env *vertexEnv) float64
	intFn   func(env *vertexEnv) int64
	boolFn  func(env *vertexEnv) bool
	stmtFn  func(env *vertexEnv)
)

// compileStmts compiles a statement list of vertex state vs.
func (ex *exec) compileStmts(ss []ir.Stmt, vs *VertexState) []stmtFn {
	out := make([]stmtFn, 0, len(ss))
	for _, s := range ss {
		out = append(out, ex.compileStmt(s, vs))
	}
	return out
}

func runAll(fns []stmtFn, env *vertexEnv) {
	for _, f := range fns {
		f(env)
	}
}

func (ex *exec) compileStmt(s ir.Stmt, vs *VertexState) stmtFn {
	switch s := s.(type) {
	case ir.SetLocal:
		slot := s.Slot
		if k := vs.Locals[slot]; k != ir.KFloat {
			rhs := ex.compileTo(s.RHS, vs, k)
			return func(env *vertexEnv) { env.ints[slot] = rhs(env) }
		}
		rhs := ex.compileFloat(s.RHS, vs)
		return func(env *vertexEnv) { env.floats[slot] = rhs(env) }
	case ir.SetProp:
		return ex.compileSetProp(s, vs)
	case ir.ContribAgg:
		agg := s.Agg
		switch ex.p.Aggs[agg].Kind {
		case ir.KFloat:
			rhs := ex.compileFloat(s.RHS, vs)
			return func(env *vertexEnv) { env.vc.AggFloat(agg, rhs(env)) }
		case ir.KBool:
			rhs := ex.compileBool(s.RHS, vs)
			return func(env *vertexEnv) { env.vc.AggBool(agg, rhs(env)) }
		}
		rhs := ex.compileInt(s.RHS, vs)
		return func(env *vertexEnv) { env.vc.AggInt(agg, rhs(env)) }
	case ir.SendToNbrs:
		return ex.compileSendToNbrs(s, vs)
	case ir.SendTo:
		target := ex.compileTo(s.Target, vs, ir.KNode)
		build := ex.compileMsgBuilder(s.MsgType, s.Payload, vs)
		return func(env *vertexEnv) {
			if tgt := graph.NodeID(target(env)); tgt != graph.NilNode {
				build.fill(env)
				env.vc.Send(tgt, env.msg)
			}
		}
	case ir.SendToInNbrs:
		build := ex.compileMsgBuilder(s.MsgType, s.Payload, vs)
		return func(env *vertexEnv) {
			for _, src := range ex.inNbrs[env.vc.ID()] {
				build.fill(env)
				env.vc.Send(src, env.msg)
			}
		}
	case ir.CollectInNbrs:
		mt := uint8(s.MsgType)
		return func(env *vertexEnv) {
			v := env.vc.ID()
			msgs := env.vc.Messages()
			for i := range msgs {
				if msgs[i].Type == mt {
					ex.inNbrs[v] = append(ex.inNbrs[v], msgs[i].Node(0))
				}
			}
		}
	case ir.ForMsgs:
		mt := uint8(s.MsgType)
		body := ex.compileStmts(s.Body, vs)
		return func(env *vertexEnv) {
			msgs := env.vc.Messages()
			for i := range msgs {
				if msgs[i].Type != mt {
					continue
				}
				env.curMsg = &msgs[i]
				runAll(body, env)
			}
			env.curMsg = nil
		}
	case ir.If:
		cond := ex.compileBool(s.Cond, vs)
		thenFns := ex.compileStmts(s.Then, vs)
		elseFns := ex.compileStmts(s.Else, vs)
		return func(env *vertexEnv) {
			if cond(env) {
				runAll(thenFns, env)
			} else {
				runAll(elseFns, env)
			}
		}
	default:
		panic(fmt.Sprintf("machine: statement %T is not valid in vertex context", s))
	}
}

// compileSetProp specializes a property update by the kinds of column
// and right side and by the reduction, storing what ir.Reduce stores.
func (ex *exec) compileSetProp(s ir.SetProp, vs *VertexState) stmtFn {
	ck, rk := ex.p.Props[s.Slot].Kind, exprKind(ex.p, vs, s.RHS)
	f, i := ex.cols[s.Slot].f, ex.cols[s.Slot].i
	switch {
	case f != nil && s.Op <= ast.OpMax: // =, +=, -=, *=, min=, max=
		return reduce(s.Op, f, ex.compileFloat(s.RHS, vs))
	case f == nil && s.Op == ast.OpSet:
		return reduce(s.Op, i, ex.compileTo(s.RHS, vs, ck))
	case f == nil && (s.Op <= ast.OpMul || s.Op <= ast.OpMax && rk != ir.KFloat && (ck != ir.KBool || rk == ir.KBool)):
		return reduce(s.Op, i, ex.compileInt(s.RHS, vs))
	}
	// &=, |=, and min=/max= that convert across kinds: no workload
	// reaches them, so they apply ir.Reduce to the unboxed operands.
	op := s.Op
	var rf floatFn
	var ri intFn
	if rk == ir.KFloat {
		rf = ex.compileFloat(s.RHS, vs)
	} else {
		ri = ex.compileInt(s.RHS, vs)
	}
	return func(env *vertexEnv) {
		v := ir.Value{K: rk}
		if rf != nil {
			v.F = rf(env)
		} else {
			v.I = ri(env)
		}
		if id := env.vc.ID(); f != nil {
			f[id] = ir.Reduce(op, ir.Float(f[id]), v).F
		} else {
			i[id] = ir.Reduce(op, ir.Value{K: ck, I: i[id]}, v).I
		}
	}
}

// reduce stores rhs into this vertex's element of col under op, one of
// =, +=, -=, *=, min= and max= (ir.Reduce on operands of col's kind).
func reduce[T int64 | float64](op ast.AssignOp, col []T, rhs func(*vertexEnv) T) stmtFn {
	switch op {
	case ast.OpSet:
		return func(env *vertexEnv) { col[env.vc.ID()] = rhs(env) }
	case ast.OpAdd:
		return func(env *vertexEnv) { col[env.vc.ID()] += rhs(env) }
	case ast.OpSub:
		return func(env *vertexEnv) { col[env.vc.ID()] -= rhs(env) }
	case ast.OpMul:
		return func(env *vertexEnv) { col[env.vc.ID()] *= rhs(env) }
	case ast.OpMin:
		return func(env *vertexEnv) {
			if v, id := rhs(env), env.vc.ID(); v < col[id] {
				col[id] = v
			}
		}
	case ast.OpMax:
		return func(env *vertexEnv) {
			if v, id := rhs(env), env.vc.ID(); v > col[id] {
				col[id] = v
			}
		}
	}
	panic(fmt.Sprintf("machine: no typed reduction %s", op))
}

func (ex *exec) compileSendToNbrs(s ir.SendToNbrs, vs *VertexState) stmtFn {
	if ex.edgeAdds[s.MsgType] >= 0 {
		// The payload is X + edge.p and the engine adds edge.p as it
		// delivers (edgeAddProps): send X, once per vertex.
		x, _, _ := edgeAddBase(ex.p, vs, s)
		s.Payload = []ir.Expr{x}
	}
	var cond boolFn
	if s.EdgeCond != nil {
		cond = ex.compileBool(s.EdgeCond, vs)
	}
	build := ex.compileMsgBuilder(s.MsgType, s.Payload, vs)

	// When neither the payload nor the condition reads edge properties,
	// the message is identical on every edge: build it once per vertex,
	// exactly as hand-written code does.
	if !exprsUseEdgeProps(append(append([]ir.Expr(nil), s.Payload...), s.EdgeCond)) {
		return func(env *vertexEnv) {
			if cond == nil || cond(env) {
				build.fill(env)
				env.vc.SendToAllNbrs(env.msg)
			}
		}
	}
	return func(env *vertexEnv) {
		lo, hi := env.vc.OutEdgeRange()
		nbrs := env.vc.OutNbrs()
		for e := lo; e < hi; e++ {
			env.curEdge = e
			if cond == nil || cond(env) {
				build.fill(env)
				env.vc.Send(nbrs[e-lo], env.msg)
			}
		}
		env.curEdge = -1
	}
}

// exprsUseEdgeProps reports whether any expression reads an edge
// property.
func exprsUseEdgeProps(es []ir.Expr) bool {
	found := false
	for _, e := range es {
		ir.WalkExprs(e, func(x ir.Expr) {
			if _, ok := x.(ir.EdgePropRef); ok {
				found = true
			}
		})
	}
	return found
}

// msgBuilder builds one send's message in env.msg, one typed field
// after another in payload order.
type msgBuilder struct {
	mt     uint8
	fields []stmtFn
}

func (b msgBuilder) fill(env *vertexEnv) {
	env.msg = pregel.Msg{Type: b.mt}
	runAll(b.fields, env)
}

func (ex *exec) compileMsgBuilder(msgType int, payload []ir.Expr, vs *VertexState) msgBuilder {
	fields := make([]stmtFn, len(payload))
	for i, e := range payload {
		switch ex.p.Msgs[msgType].Fields[i] {
		case ir.KFloat:
			x := ex.compileFloat(e, vs)
			fields[i] = func(env *vertexEnv) { env.msg.SetFloat(i, x(env)) }
		case ir.KBool:
			x := ex.compileBool(e, vs)
			fields[i] = func(env *vertexEnv) { env.msg.SetBool(i, x(env)) }
		case ir.KNode:
			x := ex.compileTo(e, vs, ir.KNode)
			fields[i] = func(env *vertexEnv) { env.msg.SetNode(i, graph.NodeID(x(env))) }
		default:
			x := ex.compileInt(e, vs)
			fields[i] = func(env *vertexEnv) { env.msg.SetInt(i, x(env)) }
		}
	}
	return msgBuilder{uint8(msgType), fields}
}

// compileTo compiles e to Value.Convert(k).I for a k held in an int64:
// a Bool of another kind is 0/1, a Node of a float 0 (a float's I).
func (ex *exec) compileTo(e ir.Expr, vs *VertexState, k ir.Kind) intFn {
	switch ek := exprKind(ex.p, vs, e); {
	case k == ir.KBool && ek != ir.KBool:
		x := ex.compileBool(e, vs)
		return func(env *vertexEnv) int64 { return b2i(x(env)) }
	case k == ir.KNode && ek == ir.KFloat:
		x := ex.compileFloat(e, vs)
		return func(env *vertexEnv) int64 { x(env); return 0 }
	}
	return ex.compileInt(e, vs)
}

// compileFloat compiles e to Value.AsFloat of its value.
func (ex *exec) compileFloat(e ir.Expr, vs *VertexState) floatFn {
	if c, ok := e.(ir.Const); ok {
		v := c.V.AsFloat()
		return func(*vertexEnv) float64 { return v }
	}
	if exprKind(ex.p, vs, e) != ir.KFloat {
		x := ex.compileInt(e, vs)
		return func(env *vertexEnv) float64 { return float64(x(env)) }
	}
	switch e := e.(type) {
	case ir.ScalarRef:
		slot := 1 + e.Slot
		return func(env *vertexEnv) float64 { return env.vc.GlobalFloat(slot) }
	case ir.LocalRef:
		slot := e.Slot
		return func(env *vertexEnv) float64 { return env.floats[slot] }
	case ir.PropRef:
		f := ex.cols[e.Slot].f
		return func(env *vertexEnv) float64 { return f[env.vc.ID()] }
	case ir.EdgePropRef:
		f := ex.cols[e.Slot].f
		return func(env *vertexEnv) float64 { return f[env.curEdge] }
	case ir.MsgField:
		idx := e.Idx
		return func(env *vertexEnv) float64 { return env.curMsg.Float(idx) }
	case ir.Binary:
		return arith(e.Op, ex.compileFloat(e.L, vs), ex.compileFloat(e.R, vs))
	case ir.Unary:
		return neg(ex.compileFloat(e.X, vs))
	case ir.Ternary:
		return ternary(ex.compileBool(e.Cond, vs), ex.compileFloat(e.Then, vs), ex.compileFloat(e.Else, vs))
	}
	panic(fmt.Sprintf("machine: cannot compile %s as a float", e))
}

// compileInt compiles e to its value's I: the int, the node's ID or the
// bool's 0/1, or Value.AsInt of a float.
func (ex *exec) compileInt(e ir.Expr, vs *VertexState) intFn {
	k := exprKind(ex.p, vs, e)
	switch e := e.(type) {
	case ir.Const:
		v := e.V.AsInt()
		return func(*vertexEnv) int64 { return v }
	case ir.ScalarRef:
		switch slot := 1 + e.Slot; k {
		case ir.KFloat:
		case ir.KBool:
			return func(env *vertexEnv) int64 { return b2i(env.vc.GlobalBool(slot)) }
		case ir.KNode:
			return func(env *vertexEnv) int64 { return int64(env.vc.GlobalNode(slot)) }
		default:
			return func(env *vertexEnv) int64 { return env.vc.GlobalInt(slot) }
		}
	case ir.LocalRef:
		if slot := e.Slot; k != ir.KFloat {
			return func(env *vertexEnv) int64 { return env.ints[slot] }
		}
	case ir.PropRef:
		if i := ex.cols[e.Slot].i; i != nil {
			return func(env *vertexEnv) int64 { return i[env.vc.ID()] }
		}
	case ir.EdgePropRef:
		if i := ex.cols[e.Slot].i; i != nil {
			return func(env *vertexEnv) int64 { return i[env.curEdge] }
		}
	case ir.CurNode:
		return func(env *vertexEnv) int64 { return int64(env.vc.ID()) }
	case ir.MsgField:
		switch idx := e.Idx; k {
		case ir.KFloat:
		case ir.KBool:
			return func(env *vertexEnv) int64 { return b2i(env.curMsg.Bool(idx)) }
		case ir.KNode:
			return func(env *vertexEnv) int64 { return int64(env.curMsg.Node(idx)) }
		default:
			return func(env *vertexEnv) int64 { return env.curMsg.Int(idx) }
		}
	case ir.Builtin:
		switch e.Op {
		case ir.BNumNodes:
			return func(env *vertexEnv) int64 { return int64(env.vc.NumNodes()) }
		case ir.BNumEdges:
			m := ex.g.NumEdges()
			return func(*vertexEnv) int64 { return m }
		case ir.BDegree:
			return func(env *vertexEnv) int64 { return int64(env.vc.OutDegree()) }
		case ir.BPickRandom:
			return func(env *vertexEnv) int64 { return int64(env.vc.Rand().Intn(env.vc.NumNodes())) }
		case ir.BNodeId:
			return func(env *vertexEnv) int64 { return int64(env.vc.ID()) }
		}
	case ir.Binary:
		if k != ir.KInt {
			break
		}
		l, r := ex.compileInt(e.L, vs), ex.compileInt(e.R, vs)
		if mod := e.Op == ast.BinMod; mod || e.Op == ast.BinDiv {
			return func(env *vertexEnv) int64 {
				switch x, y := l(env), r(env); {
				case y == 0:
					return 0
				case mod:
					return x % y
				default:
					return x / y
				}
			}
		}
		return arith(e.Op, l, r)
	case ir.Unary:
		if e.Op != ast.UnNot && k != ir.KFloat {
			return neg(ex.compileInt(e.X, vs))
		}
	case ir.Ternary:
		if k != ir.KFloat {
			return ternary(ex.compileBool(e.Cond, vs), ex.compileInt(e.Then, vs), ex.compileInt(e.Else, vs))
		}
	}
	// A float, or a comparison, logic or ! operator: convert.
	switch k {
	case ir.KFloat:
		x := ex.compileFloat(e, vs)
		return func(env *vertexEnv) int64 { return int64(x(env)) }
	case ir.KBool:
		x := ex.compileBool(e, vs)
		return func(env *vertexEnv) int64 { return b2i(x(env)) }
	}
	panic(fmt.Sprintf("machine: cannot compile %s as an int", e))
}

// compileBool compiles e to Value.AsBool of its value.
func (ex *exec) compileBool(e ir.Expr, vs *VertexState) boolFn {
	switch e := e.(type) {
	case ir.Const:
		v := e.V.AsBool()
		return func(*vertexEnv) bool { return v }
	case ir.Binary:
		switch e.Op {
		case ast.BinAnd:
			l, r := ex.compileBool(e.L, vs), ex.compileBool(e.R, vs)
			return func(env *vertexEnv) bool { return l(env) && r(env) }
		case ast.BinOr:
			l, r := ex.compileBool(e.L, vs), ex.compileBool(e.R, vs)
			return func(env *vertexEnv) bool { return l(env) || r(env) }
		case ast.BinEq, ast.BinNeq, ast.BinLt, ast.BinGt, ast.BinLe, ast.BinGe:
			// In float when either side is a float (ir.Equal, ir.Less).
			if exprKind(ex.p, vs, e.L) == ir.KFloat || exprKind(ex.p, vs, e.R) == ir.KFloat {
				return compare(e.Op, ex.compileFloat(e.L, vs), ex.compileFloat(e.R, vs))
			}
			return compare(e.Op, ex.compileInt(e.L, vs), ex.compileInt(e.R, vs))
		}
	case ir.Unary:
		if e.Op == ast.UnNot {
			x := ex.compileBool(e.X, vs)
			return func(env *vertexEnv) bool { return !x(env) }
		}
	case ir.PropRef:
		if i := ex.cols[e.Slot].i; i != nil {
			return func(env *vertexEnv) bool { return i[env.vc.ID()] != 0 }
		}
	case ir.ScalarRef:
		if slot := 1 + e.Slot; ex.p.Scalars[e.Slot].Kind == ir.KBool {
			return func(env *vertexEnv) bool { return env.vc.GlobalBool(slot) }
		}
	case ir.MsgField:
		if idx := e.Idx; e.K == ir.KBool {
			return func(env *vertexEnv) bool { return env.curMsg.Bool(idx) }
		}
	}
	if exprKind(ex.p, vs, e) == ir.KFloat {
		// AsBool reads I, which is 0 in a float (ir.Float).
		x := ex.compileFloat(e, vs)
		return func(env *vertexEnv) bool { x(env); return false }
	}
	x := ex.compileInt(e, vs)
	return func(env *vertexEnv) bool { return x(env) != 0 }
}

// arith and the helpers after it build one closure per operator, so no
// two float operations share an expression a compiler could fuse (FMA)
// and round differently from ir.Eval.
func arith[T int64 | float64](op ast.BinOp, l, r func(*vertexEnv) T) func(*vertexEnv) T {
	switch op {
	case ast.BinAdd:
		return func(env *vertexEnv) T { return l(env) + r(env) }
	case ast.BinSub:
		return func(env *vertexEnv) T { return l(env) - r(env) }
	case ast.BinMul:
		return func(env *vertexEnv) T { return l(env) * r(env) }
	case ast.BinDiv: // a float's: compileInt tests an int divisor for 0
		return func(env *vertexEnv) T { return l(env) / r(env) }
	}
	panic(fmt.Sprintf("machine: no typed arithmetic %s", op))
}

// compare evaluates l, then r; <= and >= negate ir.Less as it does,
// which differs from Go's <= and >= when an operand is NaN.
func compare[T int64 | float64](op ast.BinOp, l, r func(*vertexEnv) T) boolFn {
	switch op {
	case ast.BinEq:
		return func(env *vertexEnv) bool { return l(env) == r(env) }
	case ast.BinNeq:
		return func(env *vertexEnv) bool { return l(env) != r(env) }
	case ast.BinLt:
		return func(env *vertexEnv) bool { return l(env) < r(env) }
	case ast.BinGt:
		return func(env *vertexEnv) bool { return l(env) > r(env) }
	case ast.BinLe:
		return func(env *vertexEnv) bool { x := l(env); return !(r(env) < x) }
	case ast.BinGe:
		return func(env *vertexEnv) bool { return !(l(env) < r(env)) }
	}
	panic(fmt.Sprintf("machine: no typed comparison %s", op))
}

func neg[T int64 | float64](x func(*vertexEnv) T) func(*vertexEnv) T {
	return func(env *vertexEnv) T { return -x(env) }
}

func ternary[T int64 | float64 | bool](cond boolFn, a, b func(*vertexEnv) T) func(*vertexEnv) T {
	return func(env *vertexEnv) T {
		if cond(env) {
			return a(env)
		}
		return b(env)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
