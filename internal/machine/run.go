package machine

import (
	"context"
	"fmt"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/graph"
	"gmpregel/internal/ir"
	"gmpregel/internal/pregel"
)

// Bindings supplies values for the program's parameters: scalars by name
// and property columns by name. Property slices must have length
// NumNodes (node props) or NumEdges (edge props, indexed by out-edge
// position). Missing entries default to zero / NIL.
type Bindings struct {
	Int   map[string]int64
	Float map[string]float64
	Bool  map[string]bool
	Node  map[string]graph.NodeID

	NodePropInt   map[string][]int64
	NodePropFloat map[string][]float64
	NodePropBool  map[string][]bool
	NodePropNode  map[string][]graph.NodeID

	EdgePropInt   map[string][]int64
	EdgePropFloat map[string][]float64
}

// Result gives access to the final state of a program run.
type Result struct {
	Stats  pregel.Stats
	Ret    ir.Value
	HasRet bool

	prog *Program
	cols []column
}

type column struct {
	i []int64
	f []float64
}

func (r *Result) propSlot(name string) (int, error) {
	for i, p := range r.prog.Props {
		if p.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("machine: no property %q", name)
}

// NodePropInt returns the final values of an Int/Node-kind node property.
func (r *Result) NodePropInt(name string) ([]int64, error) {
	s, err := r.propSlot(name)
	if err != nil {
		return nil, err
	}
	if r.cols[s].i == nil {
		return nil, fmt.Errorf("machine: property %q is not integer-kinded", name)
	}
	return r.cols[s].i, nil
}

// NodePropFloat returns the final values of a Float-kind node property.
func (r *Result) NodePropFloat(name string) ([]float64, error) {
	s, err := r.propSlot(name)
	if err != nil {
		return nil, err
	}
	if r.cols[s].f == nil {
		return nil, fmt.Errorf("machine: property %q is not float-kinded", name)
	}
	return r.cols[s].f, nil
}

// Run executes the program on g with the given bindings.
func Run(p *Program, g *graph.Directed, b Bindings, cfg pregel.Config) (*Result, error) {
	return run(context.Background(), p, g, b, cfg, RunOptions{})
}

// RunContext is Run under a cancellation context: the run aborts at the
// next superstep barrier once ctx is done (see pregel.RunContext).
func RunContext(ctx context.Context, p *Program, g *graph.Directed, b Bindings, cfg pregel.Config) (*Result, error) {
	return run(ctx, p, g, b, cfg, RunOptions{})
}

func run(ctx context.Context, p *Program, g *graph.Directed, b Bindings, cfg pregel.Config, ro RunOptions) (*Result, error) {
	ex, err := newExec(p, g, b, cfg, ro)
	if err != nil {
		return nil, err
	}
	return ex.result(pregel.RunContext(ctx, g, ex, cfg))
}

// newExec binds p to g and b: property columns, scalar parameters, and
// the closure-compiled vertex states with one environment per worker.
func newExec(p *Program, g *graph.Directed, b Bindings, cfg pregel.Config, ro RunOptions) (*exec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ex := &exec{p: p, g: g, opts: ro}
	ex.scalars = make([]ir.Value, len(p.Scalars))
	for i, s := range p.Scalars {
		ex.scalars[i] = ir.Zero(s.Kind)
		if !s.IsParam {
			continue
		}
		switch s.Kind {
		case ir.KInt:
			if v, ok := b.Int[s.Name]; ok {
				ex.scalars[i] = ir.Int(v)
			}
		case ir.KFloat:
			if v, ok := b.Float[s.Name]; ok {
				ex.scalars[i] = ir.Float(v)
			}
		case ir.KBool:
			if v, ok := b.Bool[s.Name]; ok {
				ex.scalars[i] = ir.Bool(v)
			}
		case ir.KNode:
			if v, ok := b.Node[s.Name]; ok {
				ex.scalars[i] = ir.Node(v)
			}
		}
	}
	ex.cols = make([]column, len(p.Props))
	for i, pd := range p.Props {
		n := g.NumNodes()
		if pd.IsEdge {
			n = int(g.NumEdges())
		}
		switch pd.Kind {
		case ir.KFloat:
			col := make([]float64, n)
			if !pd.IsEdge {
				copy(col, b.NodePropFloat[pd.Name])
			} else {
				copy(col, b.EdgePropFloat[pd.Name])
			}
			ex.cols[i].f = col
		default:
			col := make([]int64, n)
			switch {
			case pd.Kind == ir.KNode && !pd.IsEdge:
				if src, ok := b.NodePropNode[pd.Name]; ok {
					for j := range src {
						if j < n {
							col[j] = int64(src[j])
						}
					}
				} else {
					for j := range col {
						col[j] = int64(graph.NilNode)
					}
				}
			case pd.Kind == ir.KBool && !pd.IsEdge:
				for j, v := range b.NodePropBool[pd.Name] {
					if j < n && v {
						col[j] = 1
					}
				}
			case !pd.IsEdge:
				copy(col, b.NodePropInt[pd.Name])
			default:
				copy(col, b.EdgePropInt[pd.Name])
			}
			ex.cols[i].i = col
		}
	}
	ex.cur = p.Entry
	ex.edgeAdds = edgeAddProps(p)
	if programUsesInNbrs(p) {
		ex.inNbrs = make([][]graph.NodeID, g.NumNodes())
	}
	// Closure-compile every vertex state once; allocate one reusable
	// environment per executor.
	ex.compiled = make([][]stmtFn, len(p.Nodes))
	maxLocals := 0
	for i, n := range p.Nodes {
		if n.Vertex != nil {
			ex.compiled[i] = ex.compileStmts(n.Vertex.Body, n.Vertex)
			if len(n.Vertex.Locals) > maxLocals {
				maxLocals = len(n.Vertex.Locals)
			}
		}
	}
	ex.envs = make([]*vertexEnv, cfg.Workers(g.NumNodes()))
	for w := range ex.envs {
		ex.envs[w] = &vertexEnv{ex: ex, curEdge: -1, locals: pregel.Padded[ir.Value](maxLocals),
			ints: pregel.Padded[int64](maxLocals), floats: pregel.Padded[float64](maxLocals)}
	}
	return ex, nil
}

// result wraps a finished run. On an abort error the Result is partial:
// Stats (and whatever the program computed so far) stay readable
// alongside the error.
func (ex *exec) result(st pregel.Stats, err error) (*Result, error) {
	return &Result{Stats: st, prog: ex.p, cols: ex.cols, Ret: ex.ret, HasRet: ex.retSet}, err
}

// exec is the interpreter; it implements pregel.Job.
type exec struct {
	p       *Program
	g       *graph.Directed
	scalars []ir.Value
	cols    []column
	cur     int              // current CFG node
	state   int              // vertex state running this superstep
	inNbrs  [][]graph.NodeID // per-vertex incoming-neighbor lists (§4.3)
	ret     ir.Value
	retSet  bool
	opts    RunOptions
	// edgeAdds is the edge property slot the engine adds to each message
	// type's broadcasts, or -1 (edgeAddProps).
	edgeAdds []int

	// compiled holds the closure-compiled body of each vertex state
	// (indexed by CFG node); envs holds one reusable vertex environment
	// per worker and menv the reusable master environment — neither is
	// reallocated per superstep.
	compiled [][]stmtFn
	envs     []*vertexEnv
	menv     masterEnv
}

// Schema implements pregel.Job: p's schema, plus the bound column of
// every edge property the engine adds to a type's broadcasts.
func (ex *exec) Schema() pregel.Schema {
	s := ex.p.Schema()
	for t, slot := range ex.edgeAdds {
		if slot < 0 {
			continue
		}
		if col := ex.cols[slot]; col.f != nil {
			s.Messages[t].EdgeAdd = col.f
		} else {
			s.Messages[t].EdgeAdd = col.i
		}
	}
	return s
}

// Schema declares the communication shape the engine runs p with: one
// message type per compiled message, its fields in order (setField
// writes field i to payload slot i) and, when every handler of the type
// is a pure reduction (combinableOps), its delivery fold; the
// aggregators; and the broadcast globals. The types' edge columns
// (MessageType.EdgeAdd) are bound data, so a run's exec adds them.
func (p *Program) Schema() pregel.Schema {
	var s pregel.Schema
	ops := combinableOps(p)
	for i, m := range p.Msgs {
		t := pregel.MessageType{Fields: make([]pregel.AggKind, len(m.Fields))}
		for f, k := range m.Fields {
			t.Fields[f] = k.AggKind()
		}
		if ops[i] >= 0 {
			t.Fold = foldFor(m.Fields[0], ops[i])
		}
		s.Messages = append(s.Messages, t)
	}
	for _, a := range p.Aggs {
		spec := pregel.AggSpec{Name: a.Name, Kind: a.Kind.AggKind()}
		switch a.Op {
		case ast.OpAdd, ast.OpSub:
			spec.Op = pregel.AggSum
		case ast.OpMin:
			spec.Op = pregel.AggMin
		case ast.OpMax:
			spec.Op = pregel.AggMax
		case ast.OpAnd:
			spec.Op = pregel.AggAnd
		case ast.OpOr:
			spec.Op = pregel.AggOr
		default:
			spec.Op = pregel.AggAny
		}
		s.Aggregators = append(s.Aggregators, spec)
	}
	// Global slot 0 broadcasts the state number; slots 1+i broadcast
	// scalar i when a state reads it.
	s.Globals = append(s.Globals, pregel.GlobalSpec{Name: "_state", Size: 4})
	for _, sc := range p.Scalars {
		s.Globals = append(s.Globals, pregel.GlobalSpec{Name: sc.Name, Size: sc.Kind.AggKind().WireBytes()})
	}
	return s
}

// PhaseLabel implements pregel.PhaseLabeler: the engine attaches the
// name of the vertex state picked by the master for the current
// superstep to that superstep's trace spans, so traces read in terms of
// the compiled state machine ("bfs_fw", "pagerank_iter") rather than
// anonymous superstep numbers.
func (ex *exec) PhaseLabel() string {
	if ex.state < 0 || ex.state >= len(ex.p.Nodes) {
		return ""
	}
	if vs := ex.p.Nodes[ex.state].Vertex; vs != nil {
		return vs.Name
	}
	return ""
}

// maxMasterChain bounds sequential master work per superstep, guarding
// against non-terminating sequential loops.
const maxMasterChain = 50_000_000

// MasterCompute walks master blocks until a vertex state or halt.
func (ex *exec) MasterCompute(mc *pregel.MasterContext) {
	ex.menv.ex, ex.menv.mc = ex, mc
	env := &ex.menv
	for iter := 0; ; iter++ {
		if iter >= maxMasterChain {
			panic("machine: master did not reach a vertex state (sequential loop does not terminate?)")
		}
		node := ex.p.Nodes[ex.cur]
		if node.Vertex != nil {
			ex.state = ex.cur
			mc.SetGlobalInt(0, int64(ex.cur))
			for _, s := range node.Vertex.ReadScalars {
				ex.broadcastScalar(mc, s)
			}
			ex.cur = node.Vertex.Next
			return
		}
		mb := node.Master
		if halted := ex.execMaster(mb.Stmts, env); halted {
			mc.Halt()
			return
		}
		switch mb.Term.Kind {
		case TGoto:
			ex.cur = mb.Term.Then
		case TCond:
			if ir.Eval(mb.Term.Cond, env).AsBool() {
				ex.cur = mb.Term.Then
			} else {
				ex.cur = mb.Term.Else
			}
		case THalt:
			ex.reportReturn(mc)
			mc.Halt()
			return
		}
	}
}

func (ex *exec) reportReturn(mc *pregel.MasterContext) {
	if !ex.retSet {
		return
	}
	if ex.ret.K == ir.KFloat {
		mc.ReturnFloat(ex.ret.F)
	} else {
		mc.ReturnInt(ex.ret.I)
	}
}

func (ex *exec) broadcastScalar(mc *pregel.MasterContext, slot int) {
	v := ex.scalars[slot]
	switch v.K {
	case ir.KFloat:
		mc.SetGlobalFloat(1+slot, v.F)
	case ir.KBool:
		mc.SetGlobalBool(1+slot, v.AsBool())
	case ir.KNode:
		mc.SetGlobalNode(1+slot, v.AsNode())
	default:
		mc.SetGlobalInt(1+slot, v.I)
	}
}

// execMaster runs master statements; it reports true when a Return
// executed (the caller halts).
func (ex *exec) execMaster(ss []ir.Stmt, env *masterEnv) bool {
	for _, s := range ss {
		switch s := s.(type) {
		case ir.SetScalar:
			v := ir.Eval(s.RHS, env)
			old := ex.scalars[s.Slot]
			if s.Op == ast.OpSet {
				ex.scalars[s.Slot] = v.Convert(old.K)
			} else {
				ex.scalars[s.Slot] = ir.Reduce(s.Op, old, v)
			}
		case ir.FoldAgg:
			v, set := env.Agg(s.Agg)
			if !set {
				continue
			}
			old := ex.scalars[s.Scalar]
			ex.scalars[s.Scalar] = ir.Reduce(s.Op, old, v)
		case ir.If:
			var halted bool
			if ir.Eval(s.Cond, env).AsBool() {
				halted = ex.execMaster(s.Then, env)
			} else {
				halted = ex.execMaster(s.Else, env)
			}
			if halted {
				return true
			}
		case ir.Return:
			if s.Value != nil {
				ex.ret = ir.Eval(s.Value, env)
				ex.retSet = true
				if ex.p.HasReturn {
					ex.ret = ex.ret.Convert(ex.p.ReturnKind)
				}
			}
			ex.reportReturn(env.mc)
			return true
		default:
			panic(fmt.Sprintf("machine: statement %T is not valid in master context", s))
		}
	}
	return false
}

// VertexCompute runs the closure-compiled body of the current vertex
// state (or the reference interpreter under RunOptions.Interpret),
// reusing this executor's environment. Environments are indexed by
// executor, not worker: under work stealing one goroutine may run
// vertices owned by several workers, and two goroutines must never
// share scratch.
func (ex *exec) VertexCompute(vc *pregel.VertexContext) {
	state := ex.state
	vs := ex.p.Nodes[state].Vertex
	env := ex.envs[vc.ExecutorIndex()]
	env.vc = vc
	env.vs = vs
	env.curEdge = -1
	env.curMsg = nil
	if ex.opts.Interpret {
		for i, k := range vs.Locals {
			env.locals[i] = ir.Zero(k)
		}
		ex.execVertex(vs.Body, env)
		return
	}
	for i, k := range vs.Locals {
		env.ints[i], env.floats[i] = ir.Zero(k).I, 0
	}
	runAll(ex.compiled[state], env)
}

func (ex *exec) execVertex(ss []ir.Stmt, env *vertexEnv) {
	for _, s := range ss {
		switch s := s.(type) {
		case ir.SetLocal:
			env.locals[s.Slot] = ir.Eval(s.RHS, env).Convert(env.vs.Locals[s.Slot])
		case ir.SetProp:
			v := ir.Eval(s.RHS, env)
			li := int64(env.vc.ID())
			col := &ex.cols[s.Slot]
			ex.applyProp(col, s.Slot, li, s.Op, v)
		case ir.ContribAgg:
			v := ir.Eval(s.RHS, env)
			switch ex.p.Aggs[s.Agg].Kind {
			case ir.KFloat:
				env.vc.AggFloat(s.Agg, v.AsFloat())
			case ir.KBool:
				env.vc.AggBool(s.Agg, v.AsBool())
			default:
				env.vc.AggInt(s.Agg, v.AsInt())
			}
		case ir.SendToNbrs:
			ex.sendToNbrs(s, env)
		case ir.SendTo:
			tgt := ir.Eval(s.Target, env).AsNode()
			if tgt == graph.NilNode {
				continue
			}
			m := ex.buildMsg(s.MsgType, s.Payload, env)
			env.vc.Send(tgt, m)
		case ir.SendToInNbrs:
			if ex.inNbrs == nil {
				panic("machine: SendToInNbrs without an incoming-neighbor prologue")
			}
			for _, src := range ex.inNbrs[env.vc.ID()] {
				m := ex.buildMsg(s.MsgType, s.Payload, env)
				env.vc.Send(src, m)
			}
		case ir.CollectInNbrs:
			if ex.inNbrs == nil {
				panic("machine: CollectInNbrs without allocated storage")
			}
			v := env.vc.ID()
			for i := range env.vc.Messages() {
				m := &env.vc.Messages()[i]
				if int(m.Type) != s.MsgType {
					continue
				}
				ex.inNbrs[v] = append(ex.inNbrs[v], m.Node(0))
			}
		case ir.ForMsgs:
			for i := range env.vc.Messages() {
				m := &env.vc.Messages()[i]
				if int(m.Type) != s.MsgType {
					continue
				}
				env.curMsg = m
				ex.execVertex(s.Body, env)
			}
			env.curMsg = nil
		case ir.If:
			if ir.Eval(s.Cond, env).AsBool() {
				ex.execVertex(s.Then, env)
			} else {
				ex.execVertex(s.Else, env)
			}
		default:
			panic(fmt.Sprintf("machine: statement %T is not valid in vertex context", s))
		}
	}
}

//gm:noalloc
func (ex *exec) applyProp(col *column, slot int, idx int64, op ast.AssignOp, v ir.Value) {
	kind := ex.p.Props[slot].Kind
	if col.f != nil {
		old := ir.Float(col.f[idx])
		col.f[idx] = ir.Reduce(op, old, v).F
		return
	}
	old := ir.Value{K: kind, I: col.i[idx]}
	col.i[idx] = ir.Reduce(op, old, v).I
}

func (ex *exec) sendToNbrs(s ir.SendToNbrs, env *vertexEnv) {
	lo, hi := env.vc.OutEdgeRange()
	nbrs := env.vc.OutNbrs()
	for i := lo; i < hi; i++ {
		env.curEdge = i
		if s.EdgeCond != nil && !ir.Eval(s.EdgeCond, env).AsBool() {
			continue
		}
		m := ex.buildMsg(s.MsgType, s.Payload, env)
		env.vc.Send(nbrs[i-lo], m)
	}
	env.curEdge = -1
}

func (ex *exec) buildMsg(msgType int, payload []ir.Expr, env *vertexEnv) pregel.Msg {
	var m pregel.Msg
	m.Type = uint8(msgType)
	fields := ex.p.Msgs[msgType].Fields
	for i, pe := range payload {
		v := ir.Eval(pe, env)
		switch fields[i] {
		case ir.KFloat:
			m.SetFloat(i, v.AsFloat())
		case ir.KBool:
			m.SetBool(i, v.AsBool())
		case ir.KNode:
			m.SetNode(i, v.AsNode())
		default:
			m.SetInt(i, v.AsInt())
		}
	}
	return m
}

// ---- Environments ----

type masterEnv struct {
	ex *exec
	mc *pregel.MasterContext
}

func (e *masterEnv) Scalar(slot int) ir.Value { return e.ex.scalars[slot] }
func (e *masterEnv) Local(int) ir.Value       { panic("machine: local read in master context") }
func (e *masterEnv) Prop(int) ir.Value        { panic("machine: property read in master context") }
func (e *masterEnv) EdgeProp(int) ir.Value    { panic("machine: edge property read in master context") }
func (e *masterEnv) CurNode() ir.Value        { panic("machine: current node in master context") }
func (e *masterEnv) MsgField(int) ir.Value    { panic("machine: message field in master context") }
func (e *masterEnv) Kind(x ir.Expr) ir.Kind   { return exprKind(e.ex.p, nil, x) }

func (e *masterEnv) Agg(slot int) (ir.Value, bool) {
	if !e.mc.AggIsSet(slot) {
		return ir.Zero(e.ex.p.Aggs[slot].Kind), false
	}
	switch e.ex.p.Aggs[slot].Kind {
	case ir.KFloat:
		return ir.Float(e.mc.AggFloat(slot)), true
	case ir.KBool:
		return ir.Bool(e.mc.AggBool(slot)), true
	case ir.KNode:
		return ir.Node(graph.NodeID(e.mc.AggInt(slot))), true
	default:
		return ir.Int(e.mc.AggInt(slot)), true
	}
}

func (e *masterEnv) BuiltinVal(op ir.BuiltinOp) ir.Value {
	switch op {
	case ir.BNumNodes:
		return ir.Int(int64(e.mc.NumNodes()))
	case ir.BNumEdges:
		return ir.Int(e.mc.NumEdges())
	case ir.BPickRandom:
		return ir.Node(e.mc.PickRandomNode())
	}
	panic(fmt.Sprintf("machine: builtin %v in master context", op))
}

// vertexEnv is one executor's reusable environment for vertex compute.
// The executor writes it and its locals for every vertex, so both sit
// on blocks no other allocation shares, by the engine's rule
// (pregel.BlockPad, pregel.Padded; docs/ENGINE.md).
type vertexEnv struct {
	_       pregel.BlockPad
	ex      *exec
	vc      *pregel.VertexContext
	vs      *VertexState
	locals  []ir.Value // by slot, the interpreter's
	ints    []int64    // by slot, the closures' non-float locals
	floats  []float64  // by slot, the closures' float locals
	msg     pregel.Msg // the message a send builds
	curMsg  *pregel.Msg
	curEdge int64
	_       pregel.BlockPad
}

func (e *vertexEnv) Scalar(slot int) ir.Value {
	k := e.ex.p.Scalars[slot].Kind
	switch k {
	case ir.KFloat:
		return ir.Float(e.vc.GlobalFloat(1 + slot))
	case ir.KBool:
		return ir.Bool(e.vc.GlobalBool(1 + slot))
	case ir.KNode:
		return ir.Node(e.vc.GlobalNode(1 + slot))
	default:
		return ir.Int(e.vc.GlobalInt(1 + slot))
	}
}

func (e *vertexEnv) Local(slot int) ir.Value { return e.locals[slot] }
func (e *vertexEnv) Kind(x ir.Expr) ir.Kind  { return exprKind(e.ex.p, e.vs, x) }

func (e *vertexEnv) Prop(slot int) ir.Value {
	col := &e.ex.cols[slot]
	idx := int64(e.vc.ID())
	if col.f != nil {
		return ir.Float(col.f[idx])
	}
	return ir.Value{K: e.ex.p.Props[slot].Kind, I: col.i[idx]}
}

func (e *vertexEnv) EdgeProp(slot int) ir.Value {
	if e.curEdge < 0 {
		panic("machine: edge property read outside a neighbor send loop")
	}
	col := &e.ex.cols[slot]
	if col.f != nil {
		return ir.Float(col.f[e.curEdge])
	}
	return ir.Value{K: e.ex.p.Props[slot].Kind, I: col.i[e.curEdge]}
}

func (e *vertexEnv) CurNode() ir.Value { return ir.Node(e.vc.ID()) }

func (e *vertexEnv) MsgField(idx int) ir.Value {
	if e.curMsg == nil {
		panic("machine: message field read outside a receive loop")
	}
	return ir.Int(e.curMsg.Int(idx)) // caller converts via MsgField.K
}

func (e *vertexEnv) Agg(int) (ir.Value, bool) { panic("machine: aggregator read in vertex context") }

func (e *vertexEnv) BuiltinVal(op ir.BuiltinOp) ir.Value {
	switch op {
	case ir.BNumNodes:
		return ir.Int(int64(e.vc.NumNodes()))
	case ir.BNumEdges:
		return ir.Int(e.ex.g.NumEdges())
	case ir.BDegree:
		return ir.Int(int64(e.vc.OutDegree()))
	case ir.BPickRandom:
		return ir.Node(graph.NodeID(e.vc.Rand().Intn(e.vc.NumNodes())))
	case ir.BNodeId:
		return ir.Int(int64(e.vc.ID()))
	}
	panic(fmt.Sprintf("machine: builtin %v in vertex context", op))
}

// programUsesInNbrs reports whether any vertex state stores or sends
// along incoming-neighbor lists.
func programUsesInNbrs(p *Program) bool {
	used := false
	for _, n := range p.Nodes {
		if n.Vertex != nil {
			ir.WalkStmts(n.Vertex.Body, func(s ir.Stmt) {
				switch s.(type) {
				case ir.SendToInNbrs, ir.CollectInNbrs:
					used = true
				}
			})
		}
	}
	return used
}
