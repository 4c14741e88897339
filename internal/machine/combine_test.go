package machine

import (
	"math"
	"reflect"
	"testing"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
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
	for t := range s.Messages {
		s.Messages[t].Fold = nil
	}
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
		if m := p.Schema().Messages; len(m) != 1 || m[0].Fold == nil || (pregel.Fold{Op: *m[0].Fold, Kind: m[0].Fields[0]}) != tc.fold {
			t.Fatalf("%s: schema declares message types %+v, want one folding by %v", tc.name, m, tc.fold)
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

// A handler nested in another handler consumes its type too, so it is
// classified like a top-level one. Vertices 1..6 send types 0 and 1 to
// vertex 0, whose `for msgs(1) { acc += f0 }` alone would fold; its
// `for msgs(0) { for msgs(1) { cnt += 1 } }` counts every pair, 36, and
// a fold of type 1 would leave it at 6.
func TestFoldRefusesNestedHandler(t *testing.T) {
	b := graph.NewBuilder(7)
	for v := graph.NodeID(1); v < 7; v++ {
		b.AddEdge(v, 0)
	}
	g := b.Build()
	val := ir.PropRef{Slot: 0, Name: "val"}
	p := &Program{
		Name: "nested",
		Props: []PropDecl{
			{Name: "val", Kind: ir.KInt, IsParam: true},
			{Name: "acc", Kind: ir.KInt, IsParam: true},
			{Name: "cnt", Kind: ir.KInt, IsParam: true},
		},
		Msgs: []MsgSchema{{Name: "a", Fields: []ir.Kind{ir.KInt}}, {Name: "b", Fields: []ir.Kind{ir.KInt}}},
		Nodes: []CFGNode{
			{Vertex: &VertexState{
				Name: "send",
				Body: []ir.Stmt{
					ir.SendToNbrs{MsgType: 0, Payload: []ir.Expr{val}},
					ir.SendToNbrs{MsgType: 1, Payload: []ir.Expr{val}},
				},
				Next: 1,
			}},
			{Vertex: &VertexState{
				Name: "recv",
				Body: []ir.Stmt{
					ir.ForMsgs{MsgType: 1, Body: []ir.Stmt{
						ir.SetProp{Slot: 1, Name: "acc", Op: ast.OpAdd, RHS: ir.MsgField{Idx: 0, K: ir.KInt}},
					}},
					ir.ForMsgs{MsgType: 0, Body: []ir.Stmt{
						ir.ForMsgs{MsgType: 1, Body: []ir.Stmt{
							ir.SetProp{Slot: 2, Name: "cnt", Op: ast.OpAdd, RHS: ir.Const{V: ir.Int(1)}},
						}},
					}},
				},
				Next: 2,
			}},
			{Master: &MasterBlock{Term: Term{Kind: THalt}}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bind := Bindings{NodePropInt: map[string][]int64{"val": {0, 1, 2, 3, 4, 5, 6}}}
	for _, w := range []int{1, 3} {
		cfg := pregel.Config{NumWorkers: w, Seed: 1}
		folded, err := Run(p, g, bind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := newExec(p, g, bind, cfg, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := ex.result(pregel.Run(g, unfolded{ex}, cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, prop := range []string{"acc", "cnt"} {
			got, _ := folded.NodePropInt(prop)
			want, _ := plain.NodePropInt(prop)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("W=%d: folded %s %v, handler %v", w, prop, got, want)
			}
		}
		if cnt, _ := folded.NodePropInt("cnt"); cnt[0] != 36 {
			t.Errorf("W=%d: cnt[0] = %d, want 36", w, cnt[0])
		}
		if !reflect.DeepEqual(folded.Stats, plain.Stats) {
			t.Errorf("W=%d: folded Stats %+v, handler %+v", w, folded.Stats, plain.Stats)
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

// relaxSend returns relaxProgram with its send's payload (and edge
// condition) replaced, and a second Int edge property "w" beside len.
func relaxSend(payload, cond ir.Expr) *Program {
	p := relaxProgram()
	p.Props = append(p.Props, PropDecl{Name: "w", Kind: ir.KInt, IsEdge: true, IsParam: true})
	p.Nodes[1].Vertex.Body[0] = ir.SendToNbrs{MsgType: 0, EdgeCond: cond, Payload: []ir.Expr{payload}}
	return p
}

// The engine adds an edge property to a broadcast only when that is
// exactly what the per-edge sends compute. relaxProgram's `dist +
// edge.len` into an int min lowers, either way round; the lowering
// declines an edge condition, a product, an X that reads another edge
// property, an X of another kind, an unfolded type, and an edge
// property some statement writes — here in an artifact decoded from
// JSON, which no compiler check has seen. Whatever it decides, the
// closure-compiled run and the per-edge interpreter agree on every
// output and on Stats.
func TestEdgeAddLowering(t *testing.T) {
	dist, lenp, w := ir.PropRef{Slot: 0, Name: "dist"}, ir.EdgePropRef{Slot: 2, Name: "len"}, ir.EdgePropRef{Slot: 3, Name: "w"}
	add := func(l, r ir.Expr) ir.Expr { return ir.Binary{Op: ast.BinAdd, L: l, R: r} }
	unfolded := relaxSend(add(dist, lenp), nil)
	recv := unfolded.Nodes[2].Vertex.Body[0].(ir.ForMsgs)
	recv.Body = []ir.Stmt{ir.SetProp{Slot: 1, Name: "dist_nxt", Op: ast.OpSet, RHS: ir.MsgField{Idx: 0, K: ir.KInt}}}
	unfolded.Nodes[2].Vertex.Body[0] = recv
	writes := relaxSend(add(dist, lenp), nil)
	init := writes.Nodes[0].Vertex
	init.Body = append(init.Body, ir.SetProp{Slot: 2, Name: "len", Op: ast.OpAdd, RHS: ir.Const{V: ir.Int(1)}})
	art, err := EncodeProgram(writes)
	if err != nil {
		t.Fatal(err)
	}
	if writes, err = DecodeProgram(art); err != nil {
		t.Fatal(err)
	}
	g := gen.TwitterLike(80, 4, 2)
	bind := Bindings{
		NodePropInt: map[string][]int64{"dist": seqInts(g.NumNodes(), 50)},
		EdgePropInt: map[string][]int64{"len": seqInts(int(g.NumEdges()), 12), "w": seqInts(int(g.NumEdges()), 5)},
	}
	for _, tc := range []struct {
		name  string
		p     *Program
		lower bool
	}{
		{"X + edge.p", relaxSend(add(dist, lenp), nil), true},
		{"edge.p + X", relaxSend(add(lenp, dist), nil), true},
		{"edge condition", relaxSend(add(dist, lenp), ir.Binary{Op: ast.BinGt, L: lenp, R: ir.Const{V: ir.Int(3)}}), false},
		{"X * edge.p", relaxSend(ir.Binary{Op: ast.BinMul, L: dist, R: lenp}, nil), false},
		{"X reads edge.w", relaxSend(add(add(dist, w), lenp), nil), false},
		{"float X", relaxSend(add(ir.Const{V: ir.Float(2)}, lenp), nil), false},
		{"unfolded type", unfolded, false},
		{"decoded artifact writes p", writes, false},
	} {
		for _, workers := range []int{1, 3} {
			cfg := pregel.Config{NumWorkers: workers, Seed: 1}
			ex, err := newExec(tc.p, g, bind, cfg, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s := ex.Schema()
			if lowered := s.Messages[0].EdgeAdd != nil; lowered != tc.lower {
				t.Errorf("%s: lowered = %v, want %v", tc.name, lowered, tc.lower)
			}
			if tc.lower && !reflect.DeepEqual(s.Messages[0].EdgeAdd, ex.cols[2].i) {
				t.Errorf("%s: the schema's edge column is not the bound len", tc.name)
			}
			fast, err := ex.result(pregel.Run(g, ex, cfg))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			slow, err := RunWithOptions(tc.p, g, bind, cfg, RunOptions{Interpret: true})
			if err != nil {
				t.Fatalf("%s interpreted: %v", tc.name, err)
			}
			if !reflect.DeepEqual(fast.cols, slow.cols) || !reflect.DeepEqual(fast.Stats, slow.Stats) {
				t.Errorf("%s W=%d: the compiled run and the interpreter disagree:\n%+v\n%+v", tc.name, workers, fast.Stats, slow.Stats)
			}
		}
	}
}
