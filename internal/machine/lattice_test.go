package machine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/ir"
	"gmpregel/internal/pregel"
)

var latticeKinds = []ir.Kind{ir.KInt, ir.KFloat, ir.KBool, ir.KNode}

// latticeLeaves reads one property of each kind: props 0..3 of every
// latticeProgram.
var latticeLeaves = []ir.Expr{
	ir.PropRef{Slot: 0, Name: "i"}, ir.PropRef{Slot: 1, Name: "f"},
	ir.PropRef{Slot: 2, Name: "b"}, ir.PropRef{Slot: 3, Name: "n"},
}

// latticeProgram stores e everywhere a vertex can put a value: a
// property of each kind under each assignment operator, a local of each
// kind (copied out to a property), a payload field of each kind sent
// to the vertex itself and along its out-edges (stored by the
// receiver), and an aggregator of each kind (folded into a scalar).
// Source props 0..3 are latticeLeaves; scalars 0..3 are parameters of
// the four kinds.
func latticeProgram(e ir.Expr) *Program {
	p := &Program{Name: "lattice"}
	prop := func(k ir.Kind, name string) int {
		p.Props = append(p.Props, PropDecl{Name: name, Kind: k, IsParam: true})
		return len(p.Props) - 1
	}
	store := &VertexState{Name: "store", Next: 2}
	recv := &VertexState{Name: "recv", Next: 4}
	fold := &MasterBlock{Term: Term{Kind: TGoto, Then: 3}}
	for _, k := range latticeKinds {
		prop(k, "src"+k.String())
		p.Scalars = append(p.Scalars, ScalarDecl{Name: "s" + k.String(), Kind: k, IsParam: true})
		store.ReadScalars = append(store.ReadScalars, len(p.Scalars)-1)
	}
	for _, k := range latticeKinds {
		for op := ast.OpSet; op <= ast.OpOr; op++ {
			store.Body = append(store.Body, ir.SetProp{Slot: prop(k, fmt.Sprintf("%s %s", k, op)), Op: op, RHS: e})
		}
		store.Locals = append(store.Locals, k)
		l := len(store.Locals) - 1
		store.Body = append(store.Body, ir.SetLocal{Slot: l, RHS: e},
			ir.SetProp{Slot: prop(k, "local "+k.String()), RHS: ir.LocalRef{Slot: l}})
		for _, send := range []ir.Stmt{
			ir.SendTo{Target: ir.CurNode{}, MsgType: len(p.Msgs), Payload: []ir.Expr{e}},
			ir.SendToNbrs{MsgType: len(p.Msgs) + 1, Payload: []ir.Expr{e}},
		} {
			p.Msgs = append(p.Msgs, MsgSchema{Fields: []ir.Kind{k}})
			t := len(p.Msgs) - 1
			store.Body = append(store.Body, send)
			recv.Body = append(recv.Body, ir.ForMsgs{MsgType: t, Body: []ir.Stmt{
				ir.SetProp{Slot: prop(k, fmt.Sprintf("msg %d", t)), RHS: ir.MsgField{K: k}},
			}})
		}
		if k != ir.KNode {
			p.Aggs = append(p.Aggs, AggDecl{Name: k.String(), Kind: k, Op: [...]ast.AssignOp{ast.OpMax, ast.OpAdd, ast.OpOr}[k]})
			p.Scalars = append(p.Scalars, ScalarDecl{Name: "agg " + k.String(), Kind: k})
			store.Body = append(store.Body, ir.ContribAgg{Agg: len(p.Aggs) - 1, RHS: e})
			fold.Stmts = append(fold.Stmts, ir.FoldAgg{Scalar: len(p.Scalars) - 1, Agg: len(p.Aggs) - 1, Op: ast.OpSet})
		}
	}
	p.Nodes = []CFGNode{
		{Master: &MasterBlock{Term: Term{Kind: TGoto, Then: 1}}},
		{Vertex: store},
		{Master: fold},
		{Vertex: recv},
		{Master: &MasterBlock{Term: Term{Kind: THalt}}},
	}
	return p
}

// latticeBindings gives every property of p six values of its kind:
// negative, zero and large ints, a NaN, an infinity and a negative
// zero, NIL nodes.
func latticeBindings(p *Program) Bindings {
	b := Bindings{
		Int: map[string]int64{"sInt": -7}, Float: map[string]float64{"sFloat": 2.5},
		Bool: map[string]bool{"sBool": true}, Node: map[string]graph.NodeID{"sNode": 4},
		NodePropInt: map[string][]int64{}, NodePropFloat: map[string][]float64{},
		NodePropBool: map[string][]bool{}, NodePropNode: map[string][]graph.NodeID{},
	}
	for i, d := range p.Props {
		switch d.Kind {
		case ir.KInt:
			b.NodePropInt[d.Name] = []int64{-3, 0, 7, 1 << 40, -1, 2 + int64(i)}
		case ir.KFloat:
			b.NodePropFloat[d.Name] = []float64{-2.5, 0, math.NaN(), 1.5, math.Copysign(0, -1), math.Inf(1)}
		case ir.KBool:
			b.NodePropBool[d.Name] = []bool{false, true, true, false, i%2 == 0, true}
		case ir.KNode:
			b.NodePropNode[d.Name] = []graph.NodeID{graph.NilNode, 0, 5, 2, graph.NilNode, graph.NodeID(i % 6)}
		}
	}
	return b
}

// runBoth runs p on g through the typed closures and through the
// reference interpreter, and reports the first difference in Stats,
// property bits or scalar bits.
func runBoth(p *Program, g *graph.Directed, b Bindings) error {
	var cols [2][]column
	var scalars [2][]ir.Value
	var stats [2]pregel.Stats
	for i, interp := range []bool{false, true} {
		cfg := pregel.Config{NumWorkers: 1, Seed: 3}
		ex, err := newExec(p, g, b, cfg, RunOptions{Interpret: interp})
		if err != nil {
			return err
		}
		if stats[i], err = pregel.Run(g, ex, cfg); err != nil {
			return err
		}
		cols[i], scalars[i] = ex.cols, ex.scalars
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		return fmt.Errorf("stats: closures %+v, interpreter %+v", stats[0], stats[1])
	}
	for s, d := range p.Props {
		fc, ic := cols[0][s], cols[1][s]
		for v := range fc.i {
			if fc.i[v] != ic.i[v] {
				return fmt.Errorf("%s[%d]: closures %d, interpreter %d", d.Name, v, fc.i[v], ic.i[v])
			}
		}
		for v := range fc.f {
			if !sameFloat(fc.f[v], ic.f[v]) {
				return fmt.Errorf("%s[%d]: closures %v, interpreter %v", d.Name, v, fc.f[v], ic.f[v])
			}
		}
	}
	for s, d := range p.Scalars {
		c, i := scalars[0][s], scalars[1][s]
		if c.K != i.K || c.I != i.I || !sameFloat(c.F, i.F) {
			return fmt.Errorf("scalar %s: closures %+v, interpreter %+v", d.Name, c, i)
		}
	}
	return nil
}

// sameFloat reports whether a and b have the same bits, or are both
// NaN: which NaN an operation on two NaNs yields is the hardware's
// choice of operand, and Go leaves the operand order of a commutative
// operation to the compiler.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// The typed closures and the reference interpreter agree bit for bit
// across the kind lattice: every binary operator over every operand
// kind pair the validator accepts, unary - and !, ternaries with equal
// and mixed branch kinds, leaves of every kind, and nested mixes, each
// stored everywhere latticeProgram stores.
func TestKindLatticeBothExecutors(t *testing.T) {
	exprs := append([]ir.Expr{
		ir.Const{V: ir.Int(-4)}, ir.Const{V: ir.Float(0.75)}, ir.Const{V: ir.Bool(true)}, ir.Const{V: ir.Node(3)},
		ir.ScalarRef{Slot: 0}, ir.ScalarRef{Slot: 1}, ir.ScalarRef{Slot: 2}, ir.ScalarRef{Slot: 3}, ir.CurNode{},
		ir.Builtin{Op: ir.BNumNodes}, ir.Builtin{Op: ir.BNumEdges}, ir.Builtin{Op: ir.BDegree},
		ir.Builtin{Op: ir.BPickRandom}, ir.Builtin{Op: ir.BNodeId},
		ir.Unary{Op: ast.UnNot, X: latticeLeaves[2]},
		// (k > 1 ? k : 2.5) / 2, the mixed ternary sema types as Double.
		ir.Binary{Op: ast.BinDiv, R: ir.Const{V: ir.Int(2)}, L: ir.Ternary{
			Cond: ir.Binary{Op: ast.BinGt, L: latticeLeaves[0], R: ir.Const{V: ir.Int(1)}},
			Then: latticeLeaves[0], Else: ir.Const{V: ir.Float(2.5)}}},
		ir.Binary{Op: ast.BinLe, L: ir.Binary{Op: ast.BinMul, L: latticeLeaves[1], R: ir.ScalarRef{Slot: 0}},
			R: ir.Unary{Op: ast.UnNeg, X: ir.Builtin{Op: ir.BDegree}}},
	}, latticeLeaves...)
	for _, x := range latticeLeaves {
		exprs = append(exprs, ir.Unary{Op: ast.UnNeg, X: x})
		for _, y := range latticeLeaves {
			exprs = append(exprs, ir.Ternary{Cond: latticeLeaves[2], Then: x, Else: y})
			for op := ast.BinOr; op <= ast.BinMod; op++ {
				exprs = append(exprs, ir.Binary{Op: op, L: x, R: y})
			}
		}
	}
	g := gen.Ring(6)
	ran := 0
	for _, e := range exprs {
		p := latticeProgram(e)
		if p.Validate() != nil {
			continue // a kind error: % of a float, or && of a non-Bool
		}
		ran++
		if err := runBoth(p, g, latticeBindings(p)); err != nil {
			t.Errorf("%s: %v", e, err)
		}
	}
	// 4 leaves, 4 negations, 16 ternaries and 13 operators over 16
	// pairs, less 7 pairs with a float under % and 15 non-Bool pairs
	// under each of && and ||, plus the 17 others.
	if want := 4 + 4 + 16 + 13*16 - 7 - 2*15 + 17; ran != want {
		t.Errorf("%d expressions validated, want %d", ran, want)
	}
}

// A send's target converts to a node as ir.Value.AsNode does, from a
// value of each kind: a node, an int, a bool's 0/1, a float's 0 and
// a mixed ternary.
func TestSendTargetKindsBothExecutors(t *testing.T) {
	targets := []ir.Expr{
		latticeLeaves[3], ir.Builtin{Op: ir.BNodeId}, latticeLeaves[2], latticeLeaves[1],
		ir.Ternary{Cond: latticeLeaves[2], Then: latticeLeaves[3], Else: ir.Builtin{Op: ir.BNodeId}},
	}
	p := latticeProgram(ir.Const{V: ir.Int(0)})
	store, recv := p.Nodes[1].Vertex, p.Nodes[3].Vertex
	for _, tgt := range targets {
		t := len(p.Msgs)
		p.Msgs = append(p.Msgs, MsgSchema{Fields: []ir.Kind{ir.KNode}})
		p.Props = append(p.Props, PropDecl{Name: fmt.Sprintf("from %s", tgt), Kind: ir.KInt})
		store.Body = append(store.Body, ir.SendTo{Target: tgt, MsgType: t, Payload: []ir.Expr{ir.CurNode{}}})
		recv.Body = append(recv.Body, ir.ForMsgs{MsgType: t, Body: []ir.Stmt{
			ir.SetProp{Slot: len(p.Props) - 1, Op: ast.OpAdd, RHS: ir.Const{V: ir.Int(1)}},
			ir.SetProp{Slot: len(p.Props) - 1, Op: ast.OpMul, RHS: ir.MsgField{K: ir.KNode}},
		}})
	}
	if err := runBoth(p, gen.Ring(6), latticeBindings(p)); err != nil {
		t.Fatal(err)
	}
}

// A ternary with branches of two kinds has the promoted kind of both
// (Int or Float), checked against values worked out by hand rather than
// against exprKind, which both executors share. k is [0 3 5] and c is
// k > 1, so vertex 0 takes the else branch and vertices 1 and 2 the
// then branch.
func TestMixedTernaryKindsMatchHandValues(t *testing.T) {
	k := ir.PropRef{Slot: 0, Name: "k"}
	c := ir.Binary{Op: ast.BinGt, L: k, R: ir.Const{V: ir.Int(1)}}
	tern := func(then, els ir.Expr) ir.Expr { return ir.Ternary{Cond: c, Then: then, Else: els} }
	bin := func(op ast.BinOp, l ir.Expr, r ir.Value) ir.Expr { return ir.Binary{Op: op, L: l, R: ir.Const{V: r}} }
	cases := []struct {
		name string
		rhs  ir.Expr
		want []float64 // stored into a Float property
	}{
		{"(c ? k : 2.5) / 2", bin(ast.BinDiv, tern(k, ir.Const{V: ir.Float(2.5)}), ir.Int(2)), []float64{1.25, 1.5, 2.5}},
		{"(c ? 2.5 : k) / 2", bin(ast.BinDiv, tern(ir.Const{V: ir.Float(2.5)}, k), ir.Int(2)), []float64{0, 1.25, 1.25}},
		{"(c ? id : 0.5) / 4", bin(ast.BinDiv, tern(ir.CurNode{}, ir.Const{V: ir.Float(0.5)}), ir.Int(4)), []float64{0.125, 0.25, 0.5}},
		{"(c ? c : 0.5) / 4", bin(ast.BinDiv, tern(c, ir.Const{V: ir.Float(0.5)}), ir.Int(4)), []float64{0.125, 0.25, 0.25}},
		{"(c ? id : k + 10) / 2", bin(ast.BinDiv, tern(ir.CurNode{}, bin(ast.BinAdd, k, ir.Int(10))), ir.Int(2)), []float64{5, 0, 1}},
		{"(c ? true : k) - 2", bin(ast.BinSub, tern(ir.Const{V: ir.Bool(true)}, k), ir.Int(2)), []float64{-2, -1, -1}},
		{"(c ? k : id) * 2", bin(ast.BinMul, tern(k, ir.CurNode{}), ir.Int(2)), []float64{0, 6, 10}},
	}
	p := &Program{Name: "tern", Props: []PropDecl{{Name: "k", Kind: ir.KInt, IsParam: true}}}
	vs := &VertexState{Name: "store", Next: 2}
	for _, tc := range cases {
		p.Props = append(p.Props, PropDecl{Name: tc.name, Kind: ir.KFloat})
		vs.Body = append(vs.Body, ir.SetProp{Slot: len(p.Props) - 1, RHS: tc.rhs})
	}
	p.Nodes = []CFGNode{
		{Master: &MasterBlock{Term: Term{Kind: TGoto, Then: 1}}},
		{Vertex: vs},
		{Master: &MasterBlock{Term: Term{Kind: THalt}}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(3, nil)
	b := Bindings{NodePropInt: map[string][]int64{"k": {0, 3, 5}}}
	for _, interp := range []bool{false, true} {
		cfg := pregel.Config{NumWorkers: 1}
		ex, err := newExec(p, g, b, cfg, RunOptions{Interpret: interp})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pregel.Run(g, ex, cfg); err != nil {
			t.Fatal(err)
		}
		for i, tc := range cases {
			if got := ex.cols[1+i].f; !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Interpret=%v: %s = %v, want %v", interp, tc.name, got, tc.want)
			}
		}
	}
}
