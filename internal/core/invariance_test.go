package core

import (
	"math"
	"testing"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
	"gmpregel/internal/seq"
)

// TestWorkerCountInvariance: compiled programs must produce the same
// results regardless of how vertices are partitioned across workers.
// Deterministic-output algorithms must match exactly (floats up to
// summation-order jitter); the randomized ones must stay valid.
func TestWorkerCountInvariance(t *testing.T) {
	workers := []int{1, 2, 5, 8}

	t.Run("sssp", func(t *testing.T) {
		g := gen.WebLike(8, 5, 7)
		lengths := make([]int64, g.NumEdges())
		for e := range lengths {
			lengths[e] = int64(1 + e%9)
		}
		c := compileOK(t, algorithms.SSSP, Options{})
		want := seq.SSSP(g, 1, lengths)
		for _, w := range workers {
			res, err := machine.Run(c.Program, g, machine.Bindings{
				Node:        map[string]graph.NodeID{"root": 1},
				EdgePropInt: map[string][]int64{"len": lengths},
			}, pregel.Config{NumWorkers: w})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := res.NodePropInt("dist")
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("workers=%d: dist[%d] = %d, want %d", w, v, got[v], want[v])
				}
			}
		}
	})

	t.Run("pagerank", func(t *testing.T) {
		g := gen.TwitterLike(150, 5, 3)
		c := compileOK(t, algorithms.PageRank, Options{})
		want := seq.PageRank(g, 1e-10, 0.85, 15)
		for _, w := range workers {
			res, err := machine.Run(c.Program, g, machine.Bindings{
				Float: map[string]float64{"e": 1e-10, "d": 0.85},
				Int:   map[string]int64{"max_iter": 15},
			}, pregel.Config{NumWorkers: w})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := res.NodePropFloat("pg_rank")
			for v := range want {
				// Message arrival order varies with partitioning, so
				// float sums differ by rounding only.
				if math.Abs(got[v]-want[v]) > 1e-9 {
					t.Fatalf("workers=%d: pg_rank[%d] = %v, want %v", w, v, got[v], want[v])
				}
			}
		}
	})

	t.Run("bipartite", func(t *testing.T) {
		const boys, girls = 50, 55
		g := gen.Bipartite(boys, girls, 3, 8)
		isBoy := make([]bool, boys+girls)
		for v := 0; v < boys; v++ {
			isBoy[v] = true
		}
		c := compileOK(t, algorithms.Bipartite, Options{})
		for _, w := range workers {
			res, err := machine.Run(c.Program, g, machine.Bindings{
				NodePropBool: map[string][]bool{"is_boy": isBoy},
			}, pregel.Config{NumWorkers: w})
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := res.NodePropInt("match")
			match := make([]graph.NodeID, len(raw))
			for v, m := range raw {
				match[v] = graph.NodeID(m)
			}
			// Last-writer-wins depends on partitioning, so the matching
			// itself may differ — but it must always be valid & maximal.
			if msg := seq.ValidateMatching(g, isBoy, match); msg != "" {
				t.Fatalf("workers=%d: %s", w, msg)
			}
		}
	})

	t.Run("wcc", func(t *testing.T) {
		g := gen.Random(150, 200, 5)
		c := compileOK(t, algorithms.WCC, Options{})
		want := seq.WCC(g)
		for _, w := range workers {
			res, err := machine.Run(c.Program, g, machine.Bindings{}, pregel.Config{NumWorkers: w})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := res.NodePropInt("comp")
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("workers=%d: comp[%d] = %d, want %d", w, v, got[v], want[v])
				}
			}
		}
	})
}

// TestSeedDeterminism: same seed, same everything.
func TestSeedDeterminism(t *testing.T) {
	g := gen.WebLike(7, 5, 2)
	c := compileOK(t, algorithms.BC, Options{})
	run := func() []float64 {
		res, err := machine.Run(c.Program, g, machine.Bindings{Int: map[string]int64{"K": 3}},
			pregel.Config{NumWorkers: 4, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		bc, _ := res.NodePropFloat("BC")
		out := make([]float64, len(bc))
		copy(out, bc)
		return out
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("BC[%d] differs across identical runs: %v vs %v", v, a[v], b[v])
		}
	}
	// Different seed → different sources → (almost surely) different BC.
	res, err := machine.Run(c.Program, g, machine.Bindings{Int: map[string]int64{"K": 3}},
		pregel.Config{NumWorkers: 4, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := res.NodePropFloat("BC")
	same := true
	for v := range a {
		if a[v] != c2[v] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds picked identical BC sources (suspicious)")
	}
}

// TestSSSPOverflowSafety: INF distances must never participate in
// relaxation arithmetic (the updated-filter guards it), so no wraparound
// distances appear even on graphs with unreachable regions.
func TestSSSPOverflowSafety(t *testing.T) {
	b := graph.NewBuilder(10)
	// Reachable chain 0→1→2; unreachable cluster 5..9 heavily connected.
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	for v := graph.NodeID(5); v < 9; v++ {
		b.AddEdge(v, v+1)
		b.AddEdge(v+1, v)
	}
	g := b.Build()
	lengths := make([]int64, g.NumEdges())
	for e := range lengths {
		lengths[e] = 1000
	}
	c := compileOK(t, algorithms.SSSP, Options{})
	res, err := machine.Run(c.Program, g, machine.Bindings{
		Node:        map[string]graph.NodeID{"root": 0},
		EdgePropInt: map[string][]int64{"len": lengths},
	}, pregel.Config{NumWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.NodePropInt("dist")
	for v := 5; v < 10; v++ {
		if got[v] != seq.Inf {
			t.Errorf("unreachable dist[%d] = %d, want INF (overflow?)", v, got[v])
		}
	}
	if got[0] != 0 || got[1] != 1000 || got[2] != 2000 {
		t.Errorf("reachable distances wrong: %v", got[:3])
	}
}

// TestDifferentialExecutorsOnAllAlgorithms cross-checks the
// closure-compiled executor against the reference interpreter for every
// bundled algorithm.
func TestDifferentialExecutorsOnAllAlgorithms(t *testing.T) {
	g := gen.TwitterLike(120, 5, 6)
	gB := gen.Bipartite(40, 50, 3, 6)
	gW := gen.WebLike(7, 5, 6)
	lengths := make([]int64, gW.NumEdges())
	for e := range lengths {
		lengths[e] = int64(1 + e%5)
	}
	isBoy := make([]bool, 90)
	for v := 0; v < 40; v++ {
		isBoy[v] = true
	}
	ages := make([]int64, 120)
	member := make([]int64, 120)
	for v := range ages {
		ages[v] = int64(10 + v%50)
		member[v] = int64(v % 2)
	}
	cases := []struct {
		src string
		g   *graph.Directed
		b   machine.Bindings
	}{
		{algorithms.AvgTeen, g, machine.Bindings{Int: map[string]int64{"K": 25}, NodePropInt: map[string][]int64{"age": ages}}},
		{algorithms.PageRank, g, machine.Bindings{Float: map[string]float64{"e": 1e-7, "d": 0.85}, Int: map[string]int64{"max_iter": 8}}},
		{algorithms.Conductance, g, machine.Bindings{Int: map[string]int64{"num": 1}, NodePropInt: map[string][]int64{"member": member}}},
		{algorithms.SSSP, gW, machine.Bindings{Node: map[string]graph.NodeID{"root": 0}, EdgePropInt: map[string][]int64{"len": lengths}}},
		{algorithms.Bipartite, gB, machine.Bindings{NodePropBool: map[string][]bool{"is_boy": isBoy}}},
		{algorithms.BC, gW, machine.Bindings{Int: map[string]int64{"K": 2}}},
		{algorithms.WCC, gW, machine.Bindings{}},
		{algorithms.HITS, g, machine.Bindings{Int: map[string]int64{"max_iter": 6}}},
	}
	for i, tc := range cases {
		c := compileOK(t, tc.src, Options{})
		cfg := pregel.Config{NumWorkers: 4, Seed: 21}
		fast, err := machine.RunWithOptions(c.Program, tc.g, tc.b, cfg, machine.RunOptions{})
		if err != nil {
			t.Fatalf("case %d compiled: %v", i, err)
		}
		slow, err := machine.RunWithOptions(c.Program, tc.g, tc.b, cfg, machine.RunOptions{Interpret: true})
		if err != nil {
			t.Fatalf("case %d interpreted: %v", i, err)
		}
		if fast.Stats.Supersteps != slow.Stats.Supersteps || fast.Stats.MessagesSent != slow.Stats.MessagesSent {
			t.Errorf("case %d (%s): stats diverge", i, c.Program.Name)
		}
		for _, pd := range c.Program.Props {
			if pd.IsEdge {
				continue
			}
			if fv, err := fast.NodePropInt(pd.Name); err == nil {
				sv, _ := slow.NodePropInt(pd.Name)
				for v := range fv {
					if fv[v] != sv[v] {
						t.Fatalf("case %d (%s): %s[%d] = %d vs %d", i, c.Program.Name, pd.Name, v, fv[v], sv[v])
					}
				}
			} else if fv, err := fast.NodePropFloat(pd.Name); err == nil {
				sv, _ := slow.NodePropFloat(pd.Name)
				for v := range fv {
					if fv[v] != sv[v] {
						t.Fatalf("case %d (%s): %s[%d] = %v vs %v", i, c.Program.Name, pd.Name, v, fv[v], sv[v])
					}
				}
			}
		}
	}
}

// A ternary has the promoted kind of its branches: sema types
// (n.k > 1) ? n.k : 2.5 as Double, so the / after it divides floats
// whichever branch runs, in both executors (and in the printed Java).
func TestMixedKindTernaryPromotes(t *testing.T) {
	const src = `Procedure tern(G: Graph, k: Node_Prop<Int>, out: Node_Prop<Double>) {
    Foreach (n: G.Nodes) { n.out = ((n.k > 1) ? n.k : 2.5) / 2; }
}`
	c := compileOK(t, src, Options{})
	g := graph.FromEdges(3, nil)
	b := machine.Bindings{NodePropInt: map[string][]int64{"k": {0, 3, 5}}}
	want := []float64{1.25, 1.5, 2.5}
	for _, ro := range []machine.RunOptions{{}, {Interpret: true}} {
		res, err := machine.RunWithOptions(c.Program, g, b, pregel.Config{NumWorkers: 1}, ro)
		if err != nil {
			t.Fatal(err)
		}
		out, err := res.NodePropFloat("out")
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if out[v] != want[v] {
				t.Errorf("Interpret=%v: out = %v, want %v", ro.Interpret, out, want)
				break
			}
		}
	}
}
