package core

import (
	"slices"
	"strings"
	"testing"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/gm/parser"
	"gmpregel/internal/graph"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
)

// canonicalOf runs the normalization pipeline only (no translation) and
// returns the canonical source plus the trace.
func canonicalOf(t *testing.T, src string) (string, *Trace, error) {
	t.Helper()
	proc, err := parser.ParseProcedure(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	work := proc.Clone()
	trace := &Trace{}
	nz := &normalizer{proc: work, nm: newNamer(work), trace: trace}
	nz.lowerBFS()
	nz.lowerBulkAssigns()
	nz.lowerSeqReduces()
	nz.lowerParReduces()
	nz.lowerRandomAccess()
	nz.canonicalize()
	if nz.err != nil {
		return "", trace, nz.err
	}
	return ast.Print(work), trace, nil
}

func mustCanonical(t *testing.T, src string) (string, *Trace) {
	t.Helper()
	out, tr, err := canonicalOf(t, src)
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	return out, tr
}

func TestBulkAssignLowering(t *testing.T) {
	out, _ := mustCanonical(t, `Procedure f(G: Graph, root: Node, dist: Node_Prop<Int>) {
		G.dist = (G == root) ? 0 : INF;
	}`)
	if !strings.Contains(out, "Foreach (_b0: G.Nodes)") {
		t.Errorf("bulk assign not lowered to a loop:\n%s", out)
	}
	if !strings.Contains(out, "_b0 == root") {
		t.Errorf("graph identifier not rewritten to the iterator:\n%s", out)
	}
}

func TestBulkAssignKeepsGraphBuiltins(t *testing.T) {
	out, _ := mustCanonical(t, `Procedure f(G: Graph, pr: Node_Prop<Double>) {
		G.pr = 1.0 / G.NumNodes();
	}`)
	if !strings.Contains(out, "G.NumNodes()") {
		t.Errorf("G.NumNodes() must stay a graph call:\n%s", out)
	}
}

func TestSeqReduceLoweringForms(t *testing.T) {
	out, _ := mustCanonical(t, `Procedure f(G: Graph, x: Node_Prop<Int>) : Double {
		Int s = Sum(a: G.Nodes)[a.x > 0](a.x);
		Int c = Count(b: G.Nodes)(b.x == 1);
		Bool e = Exist(d: G.Nodes)[d.x < 0];
		Int mx = Max(m: G.Nodes)(m.x);
		Int mn = Min(q: G.Nodes)(q.x);
		Int p = Product(r: G.Nodes)(r.x);
		Double av = Avg(w: G.Nodes)(w.x);
		Return av;
	}`)
	for _, want := range []string{
		"_r0 += a.x",  // Sum
		"_r1 += 1",    // Count
		"_r2 |= True", // Exist
		"max= m.x",    // Max
		"min= q.x",    // Min
		"*= r.x",      // Product
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing lowered form %q in:\n%s", want, out)
		}
	}
	// Avg produces sum and count accumulators plus a guard expression.
	if !strings.Contains(out, "+= 1") || !strings.Contains(out, "== 0 ? 0.0 :") {
		t.Errorf("Avg lowering incomplete:\n%s", out)
	}
	// Max init must be -INF, Min init INF.
	if !strings.Contains(out, "= -INF") || !strings.Contains(out, "= INF") {
		t.Errorf("Max/Min initializers wrong:\n%s", out)
	}
}

func TestDissectionIntroducesTempProperty(t *testing.T) {
	out, tr := mustCanonical(t, `Procedure f(G: Graph, age: Node_Prop<Int>, cnt: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Int c = 0;
			Foreach (t: n.InNbrs)(t.age >= 13) {
				c += 1;
			}
			n.cnt = c;
		}
	}`)
	if !tr.Applied(RuleDissectLoops) {
		t.Error("dissection did not fire")
	}
	if !strings.Contains(out, "Node_Prop<Int> _t") {
		t.Errorf("no temporary property introduced:\n%s", out)
	}
	// The loop must be split into three.
	if got := strings.Count(out, "Foreach (n: G.Nodes)"); got != 2 {
		// init segment + tail segment; the middle is flipped so its
		// outer iterator becomes t.
		t.Errorf("expected 2 surviving n-loops after split+flip, got %d:\n%s", got, out)
	}
}

// A scalar declared before a pull loop and used after it, or inside
// it, spans the split dissection makes there, so it becomes a temporary
// property like one the pull loop writes. Each program computes its b
// from a over each vertex's in-neighbours at every worker count.
func TestDissectionHoistsScalarUsedAcrossSplit(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 3, Dst: 1},
		{Src: 1, Dst: 4}, {Src: 4, Dst: 0}, {Src: 4, Dst: 4}, {Src: 0, Dst: 2}, {Src: 0, Dst: 2}})
	a := []int64{3, -5, 7, 11, 2}
	for _, tc := range []struct {
		name, body string
		term       func(u, v int64) int64 // b[v] sums term(a[u], a[v]) over its in-neighbours u
	}{
		{"used after", `Int s = 0;
			Int m;
			Foreach (t: n.InNbrs) { s += t.a; }
			m = s * 2;
			n.b = m;`, func(u, _ int64) int64 { return 2 * u }},
		{"read inside", `Int k = n.a + 1;
			n.b = 0;
			Foreach (t: n.InNbrs) { n.b += t.a * k; }`, func(u, v int64) int64 { return u * (v + 1) }},
	} {
		c := compileOK(t, `Procedure f(G: Graph, a: Node_Prop<Int>, b: Node_Prop<Int>) {
			Foreach (n: G.Nodes) {
				`+tc.body+`
			}
		}`, Options{})
		want := make([]int64, g.NumNodes())
		for v := range want {
			for _, u := range g.InNbrs(graph.NodeID(v)) {
				want[v] += tc.term(a[u], a[v])
			}
		}
		for _, w := range []int{1, 2} {
			res, err := machine.Run(c.Program, g, machine.Bindings{NodePropInt: map[string][]int64{"a": a}}, pregel.Config{NumWorkers: w})
			if err != nil {
				t.Fatalf("%s, W=%d: %v", tc.name, w, err)
			}
			if got, _ := res.NodePropInt("b"); !slices.Equal(got, want) {
				t.Errorf("%s, W=%d: b = %v, want %v", tc.name, w, got, want)
			}
		}
	}
}

func TestFlipInNbrsToPush(t *testing.T) {
	out, tr := mustCanonical(t, `Procedure f(G: Graph, foo: Node_Prop<Int>, bar: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.InNbrs) {
				n.foo += t.bar;
			}
		}
	}`)
	if !tr.Applied(RuleFlipEdges) {
		t.Fatal("flip did not fire")
	}
	// The paper's example: the loops swap and InNbrs becomes Nbrs.
	if !strings.Contains(out, "Foreach (t: G.Nodes)") {
		t.Errorf("outer loop should now iterate t over all nodes:\n%s", out)
	}
	if !strings.Contains(out, "Foreach (n: t.Nbrs)") {
		t.Errorf("inner loop should push along out-edges:\n%s", out)
	}
	if tr.Applied(RuleIncomingNbrs) {
		t.Error("flipping InNbrs yields plain pushes; no in-neighbor lists needed")
	}
}

func TestFlipOutNbrsNeedsInNbrLists(t *testing.T) {
	out, tr := mustCanonical(t, `Procedure f(G: Graph, foo: Node_Prop<Int>, bar: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) {
				n.foo += t.bar;
			}
		}
	}`)
	if !tr.Applied(RuleFlipEdges) || !tr.Applied(RuleIncomingNbrs) {
		t.Fatalf("flip of an out-neighbor pull must mark Incoming Neighbors:\n%s", out)
	}
	if !strings.Contains(out, "Foreach (n: t.InNbrs)") {
		t.Errorf("flipped loop should push along in-edges:\n%s", out)
	}
}

func TestFlipSplitsFilterConjuncts(t *testing.T) {
	out, _ := mustCanonical(t, `Procedure f(G: Graph, a: Node_Prop<Int>, b: Node_Prop<Int>) {
		Foreach (n: G.Nodes)(n.a > 0) {
			Foreach (t: n.InNbrs)(t.b == 1 && n.a < t.b) {
				n.a += t.b;
			}
		}
	}`)
	// t-only conjunct moves to the new outer (sender) loop; the old
	// outer filter and the mixed conjunct move to the new inner loop.
	outerIdx := strings.Index(out, "Foreach (t: G.Nodes) (t.b == 1)")
	if outerIdx < 0 {
		t.Errorf("sender-side filter wrong:\n%s", out)
	}
	if !strings.Contains(out, "(n.a > 0) && (n.a < t.b)") && !strings.Contains(out, "n.a > 0 && n.a < t.b") {
		t.Errorf("receiver-side filter wrong:\n%s", out)
	}
}

func TestRandomAccessLowering(t *testing.T) {
	out, tr := mustCanonical(t, `Procedure f(G: Graph, s: Node, sig: Node_Prop<Double>) {
		s.sig = 1.0;
		Double x = 0.0;
		x = s.sig;
	}`)
	if tr.Count(RuleRandomAccessSeq) != 2 {
		t.Errorf("random access should fire twice, got %d:\n%s", tr.Count(RuleRandomAccessSeq), out)
	}
	if !strings.Contains(out, "== s)") {
		t.Errorf("identity filter missing:\n%s", out)
	}
}

func TestBFSLoweringStructure(t *testing.T) {
	out, tr := mustCanonical(t, `Procedure f(G: Graph, s: Node, sig: Node_Prop<Double>) {
		InBFS (v: G.Nodes From s) {
			v.sig += Sum(w: v.UpNbrs)(w.sig);
		}
		InReverse {
			v.sig = 0.5 * v.sig;
		}
	}`)
	if !tr.Applied(RuleBFSTraversal) {
		t.Fatal("BFS lowering did not fire")
	}
	for _, want := range []string{
		"Node_Prop<Int> _lev", // level property
		"While (!_fin",        // forward frontier loop
		"min= _curr",          // expansion assigns the next level
		"While (_curr",        // reverse sweep
	} {
		if !strings.Contains(out, want) {
			t.Errorf("BFS lowering missing %q:\n%s", want, out)
		}
	}
	// UpNbrs is rewritten into a level-filtered InNbrs iteration, which
	// then flips into a push from the previous level.
	if strings.Contains(out, "UpNbrs") || strings.Contains(out, "DownNbrs") {
		t.Errorf("Up/DownNbrs survived lowering:\n%s", out)
	}
}

func TestCanonicalFormsAreStable(t *testing.T) {
	// Canonicalizing an already-canonical program must be a no-op
	// (idempotence of the pipeline).
	src := `Procedure f(G: Graph, foo: Node_Prop<Int>, bar: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) {
				t.foo += n.bar;
			}
		}
	}`
	once, _ := mustCanonical(t, src)
	twice, _ := mustCanonical(t, once)
	if once != twice {
		t.Errorf("pipeline not idempotent:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
	}
}

func TestGlobalWritesInsideInnerLoopAllowed(t *testing.T) {
	// Reduction writes to globals are aggregator contributions, legal at
	// any depth (the BFS expansion relies on this).
	_, _, err := canonicalOf(t, `Procedure f(G: Graph, x: Node_Prop<Int>) {
		Int total = 0;
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) {
				t.x += 1;
				total += 1;
			}
		}
	}`)
	if err != nil {
		t.Fatalf("global reduction in inner loop should canonicalize: %v", err)
	}
}
