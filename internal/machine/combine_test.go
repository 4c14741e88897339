package machine

import (
	"math"
	"reflect"
	"testing"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/graph"
	"gmpregel/internal/ir"
	"gmpregel/internal/pregel"
)

// reduceProgram sends each vertex's val along its out-edges and folds
// what arrives into acc with `acc op= msg.f0`: the handler shape
// combinableOps classifies, over one kind.
func reduceProgram(kind ir.Kind, op ast.AssignOp) *Program {
	return &Program{
		Name: "reduce",
		Props: []PropDecl{
			{Name: "val", Kind: kind, IsParam: true},
			{Name: "acc", Kind: kind, IsParam: true},
		},
		Msgs: []MsgSchema{{Name: "v", Fields: []ir.Kind{kind}}},
		Nodes: []CFGNode{
			{Vertex: &VertexState{
				Name: "send",
				Body: []ir.Stmt{ir.SendToNbrs{MsgType: 0, Payload: []ir.Expr{ir.PropRef{Slot: 0, Name: "val"}}}},
				Next: 1,
			}},
			{Vertex: &VertexState{
				Name: "recv",
				Body: []ir.Stmt{ir.ForMsgs{MsgType: 0, Body: []ir.Stmt{
					ir.SetProp{Slot: 1, Name: "acc", Op: op, RHS: ir.MsgField{Idx: 0, K: kind}},
				}}},
				Next: 2,
			}},
			{Master: &MasterBlock{Term: Term{Kind: THalt}}},
		},
	}
}

// unfolded runs an exec with its delivery folds stripped from the
// schema: the same handlers then see every message one by one.
type unfolded struct{ *exec }

func (u unfolded) Schema() pregel.Schema {
	s := u.exec.Schema()
	s.Folds = nil
	return s
}

// The fold the compiler declares for a reduction handler delivers what
// the handler computes message by message: each case runs the program
// with its fold declared and with it stripped, at one and three workers,
// and requires the same acc bits and Stats. Vertices 1..6 all send to
// vertex 0. Two cases guard the word-level traps: a NIL node id, stored
// zero-extended, must fold as the smallest id rather than a large int
// (acc ends at NIL, not 0), and a NaN must never win a min the handler's
// < would skip it in (acc ends at 3, not 100).
func TestFoldMatchesHandler(t *testing.T) {
	b := graph.NewBuilder(7)
	for v := graph.NodeID(1); v < 7; v++ {
		b.AddEdge(v, 0)
	}
	g := b.Build()
	nan := math.NaN()
	cases := []struct {
		name string
		kind ir.Kind
		op   ast.AssignOp
		fold pregel.Fold
		bind Bindings
		want int64 // acc[0]'s bits, as the column holds them
	}{
		{"int min", ir.KInt, ast.OpMin, pregel.Fold{Op: pregel.AggMin, Kind: pregel.AggKindInt},
			Bindings{NodePropInt: map[string][]int64{"val": {0, 9, -4, 7, -4, 12, 3}, "acc": {50, 0, 0, 0, 0, 0, 0}}}, -4},
		{"int max", ir.KInt, ast.OpMax, pregel.Fold{Op: pregel.AggMax, Kind: pregel.AggKindInt},
			Bindings{NodePropInt: map[string][]int64{"val": {0, -9, -4, -7, -1, -12, -3}, "acc": {-50, 0, 0, 0, 0, 0, 0}}}, -1},
		{"int sum", ir.KInt, ast.OpAdd, pregel.Fold{Op: pregel.AggSum, Kind: pregel.AggKindInt},
			Bindings{NodePropInt: map[string][]int64{"val": {0, math.MaxInt64, 2, -7, 1, 12, 3}, "acc": {5, 0, 0, 0, 0, 0, 0}}},
			math.MinInt64 + 15}, // 5 + MaxInt64 + 11, wrapped
		{"node min with a NIL", ir.KNode, ast.OpMin, pregel.Fold{Op: pregel.AggMin, Kind: pregel.AggKindNode},
			Bindings{NodePropNode: map[string][]graph.NodeID{"val": {0, graph.NilNode, 5, 0, 6, 5, 2}, "acc": {7, 7, 7, 7, 7, 7, 7}}},
			int64(graph.NilNode)},
		{"float min with a NaN", ir.KFloat, ast.OpMin, pregel.Fold{Op: pregel.AggMin, Kind: pregel.AggKindFloat},
			Bindings{NodePropFloat: map[string][]float64{"val": {0, nan, 3, 5, nan, 4, 6}, "acc": {100, 0, 0, 0, 0, 0, 0}}},
			int64(math.Float64bits(3))},
		{"float sum from zero", ir.KFloat, ast.OpAdd, pregel.Fold{Op: pregel.AggSum, Kind: pregel.AggKindFloat},
			Bindings{NodePropFloat: map[string][]float64{"val": {0, 0.1, 1e16, 0.2, -1e16, 0.3, 1.0 / 3}}}, 0},
		{"bool or", ir.KBool, ast.OpOr, pregel.Fold{Op: pregel.AggOr, Kind: pregel.AggKindBool},
			Bindings{NodePropBool: map[string][]bool{"val": {false, false, false, true, false, false, false}}}, 1},
		{"bool and", ir.KBool, ast.OpAnd, pregel.Fold{Op: pregel.AggAnd, Kind: pregel.AggKindBool},
			Bindings{NodePropBool: map[string][]bool{"val": {true, true, true, false, true, true, true}, "acc": {true}}}, 0},
	}
	for _, tc := range cases {
		p := reduceProgram(tc.kind, tc.op)
		if f := p.Schema().Folds; len(f) != 1 || f[0] == nil || *f[0] != tc.fold {
			t.Fatalf("%s: schema declares folds %v, want [%v]", tc.name, f, tc.fold)
		}
		for _, w := range []int{1, 3} {
			cfg := pregel.Config{NumWorkers: w, Seed: 1}
			acc := func(res *Result) []int64 {
				if tc.kind != ir.KFloat {
					col, _ := res.NodePropInt("acc")
					return col
				}
				col, _ := res.NodePropFloat("acc")
				bits := make([]int64, len(col))
				for i, f := range col {
					bits[i] = int64(math.Float64bits(f))
				}
				return bits
			}
			folded, err := Run(p, g, tc.bind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := newExec(p, g, tc.bind, cfg, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := ex.result(pregel.Run(g, unfolded{ex}, cfg))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := acc(folded), acc(plain); !reflect.DeepEqual(got, want) {
				t.Errorf("%s W=%d: folded acc %v, handler %v", tc.name, w, got, want)
			}
			if !reflect.DeepEqual(folded.Stats, plain.Stats) {
				t.Errorf("%s W=%d: folded Stats %+v, handler %+v", tc.name, w, folded.Stats, plain.Stats)
			}
			if tc.kind != ir.KFloat || tc.op != ast.OpAdd {
				if got := acc(folded)[0]; got != tc.want {
					t.Errorf("%s W=%d: acc[0] = %d, want %d", tc.name, w, got, tc.want)
				}
			}
		}
	}
}

// relaxProgram duplicates the SSSP-style relax machine used in
// machine_test.go, with the min= receive handler.
func relaxProgram() *Program {
	return &Program{
		Name: "relax2",
		Props: []PropDecl{
			{Name: "dist", Kind: ir.KInt, IsParam: true},
			{Name: "dist_nxt", Kind: ir.KInt},
			{Name: "len", Kind: ir.KInt, IsEdge: true, IsParam: true},
		},
		Msgs: []MsgSchema{{Name: "relax", Fields: []ir.Kind{ir.KInt}}},
		Nodes: []CFGNode{
			{Vertex: &VertexState{
				Name: "init",
				Body: []ir.Stmt{
					ir.SetProp{Slot: 1, Name: "dist_nxt", Op: 0 /* set */, RHS: ir.Const{V: ir.Int(1 << 62)}},
				},
				Next: 1,
			}},
			{Vertex: &VertexState{
				Name: "send",
				Body: []ir.Stmt{
					ir.SendToNbrs{MsgType: 0, Payload: []ir.Expr{
						ir.Binary{Op: binAdd(), L: ir.PropRef{Slot: 0, Name: "dist"}, R: ir.EdgePropRef{Slot: 2, Name: "len"}},
					}},
				},
				Next: 2,
			}},
			{Vertex: &VertexState{
				Name: "recv",
				Body: []ir.Stmt{
					ir.ForMsgs{MsgType: 0, Body: []ir.Stmt{
						ir.SetProp{Slot: 1, Name: "dist_nxt", Op: opMin(), RHS: ir.MsgField{Idx: 0, K: ir.KInt}},
					}},
				},
				Next: 3,
			}},
			{Master: &MasterBlock{Term: Term{Kind: THalt}}},
		},
	}
}

func TestCombinableOpsDetection(t *testing.T) {
	p := relaxProgram()
	ops := combinableOps(p)
	if len(ops) != 1 || ops[0] != opMin() {
		t.Errorf("ops = %v, want [min=]", ops)
	}
	// A two-field message is never combinable.
	p2 := relaxProgram()
	p2.Msgs[0].Fields = []ir.Kind{ir.KInt, ir.KInt}
	if ops := combinableOps(p2); ops[0] >= 0 {
		t.Errorf("two-field message marked combinable")
	}
	// A handler with extra statements is not combinable.
	p3 := relaxProgram()
	recv := p3.Nodes[2].Vertex
	fm := recv.Body[0].(ir.ForMsgs)
	fm.Body = append(fm.Body, ir.SetProp{Slot: 0, Name: "dist", Op: 0, RHS: ir.Const{V: ir.Int(0)}})
	recv.Body[0] = fm
	if ops := combinableOps(p3); ops[0] >= 0 {
		t.Errorf("multi-statement handler marked combinable")
	}
	// A handler whose property kind differs from the field's converts each
	// message on the way in, which a fold would do once: not combinable.
	p4 := relaxProgram()
	p4.Props[1].Kind = ir.KFloat
	if ops := combinableOps(p4); ops[0] >= 0 {
		t.Errorf("kind-converting handler marked combinable")
	}
	// A reduction the engine has no fold for (sum over a node id).
	if ops := combinableOps(reduceProgram(ir.KNode, ast.OpAdd)); ops[0] >= 0 {
		t.Errorf("node sum marked combinable")
	}
}

func binAdd() ast.BinOp   { return ast.BinAdd }
func opMin() ast.AssignOp { return ast.OpMin }
