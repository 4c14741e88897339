package algorithms

import (
	"fmt"
	"math/rand"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/machine"
)

// GraphSpec describes one evaluation input graph, a scaled-down
// structural stand-in for the paper's Table 1 datasets.
type GraphSpec struct {
	Name        string
	Description string
	// PaperNodes/PaperEdges are the original dataset sizes, reported for
	// context in Table 1.
	PaperNodes, PaperEdges string
	Build                  func(scale int) *graph.Directed
	// BipartiteBoys is the boy-partition size (bipartite graph only).
	BipartiteBoys func(scale int) int
}

// MaxScale is the largest scale at which every evaluation graph stays
// within graph.MaxNodes vertices: sk2005, the largest, rounds 6000·scale
// up to a power of two, so it has fewer than 12000·scale.
const MaxScale = graph.MaxNodes / 12000

// Graphs returns the three evaluation graphs at the given scale
// (scale 1 ≈ 5-8k vertices; node counts grow linearly with scale,
// 1..MaxScale).
func Graphs() []GraphSpec {
	return []GraphSpec{
		{
			Name:        "twitter",
			Description: "Twitter-like follower network (preferential attachment)",
			PaperNodes:  "42M", PaperEdges: "1.5B",
			Build: func(scale int) *graph.Directed {
				return gen.TwitterLike(5000*scale, 16, 101)
			},
		},
		{
			Name:        "bipartite",
			Description: "Synthetic uniform-random bipartite",
			PaperNodes:  "75M", PaperEdges: "1.5B",
			Build: func(scale int) *graph.Directed {
				return gen.Bipartite(3750*scale, 3750*scale, 10, 202)
			},
			BipartiteBoys: func(scale int) int { return 3750 * scale },
		},
		{
			Name:        "sk2005",
			Description: "Web-graph-like (RMAT, skewed quadrants)",
			PaperNodes:  "51M", PaperEdges: "1.9B",
			Build: func(scale int) *graph.Directed {
				// RMAT sizes are powers of two; pick the closest scale.
				s := 13
				for (1 << uint(s)) < 6000*scale {
					s++
				}
				return gen.WebLike(s, 18, 303)
			},
		},
	}
}

// GraphByName returns the named evaluation graph spec.
func GraphByName(name string) (GraphSpec, error) {
	for _, g := range Graphs() {
		if g.Name == name {
			return g, nil
		}
	}
	return GraphSpec{}, fmt.Errorf("algorithms: unknown graph %q (want twitter, bipartite, or sk2005)", name)
}

// Inputs holds the per-algorithm input data derived deterministically
// from a graph and seed.
type Inputs struct {
	Age     []int64
	Member  []int64
	EdgeLen []int64
	IsBoy   []bool
	Root    graph.NodeID
}

// MakeInputs builds deterministic inputs for all algorithms on g: the
// first boys vertices are the bipartite boy partition.
func MakeInputs(g *graph.Directed, boys int, seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	in := &Inputs{
		Age:     make([]int64, n),
		Member:  make([]int64, n),
		EdgeLen: make([]int64, g.NumEdges()),
		IsBoy:   make([]bool, n),
	}
	for v := 0; v < n; v++ {
		in.Age[v] = int64(8 + rng.Intn(70))
		in.Member[v] = int64(rng.Intn(4))
		if v < boys {
			in.IsBoy[v] = true
		}
	}
	for e := range in.EdgeLen {
		in.EdgeLen[e] = int64(1 + rng.Intn(16))
	}
	if n > 0 {
		// Pick a root that actually reaches something, so SSSP exercises
		// the full relaxation (RMAT graphs have many sink vertices).
		in.Root = graph.NodeID(rng.Intn(n))
		for tries := 0; tries < 100 && g.OutDegree(in.Root) == 0; tries++ {
			in.Root = graph.NodeID(rng.Intn(n))
		}
	}
	return in
}

// Params are the algorithm parameters used throughout the evaluation.
type Params struct {
	AvgTeenK   int64
	PRBeps     float64
	PRDamping  float64
	PRMaxIter  int
	ConductNum int64
	BCSamples  int64
}

// DefaultParams mirror the paper's setups (ε and damping from the
// PageRank literature; K and num arbitrary but fixed).
func DefaultParams() Params {
	return Params{
		AvgTeenK:   40,
		PRBeps:     1e-4,
		PRDamping:  0.85,
		PRMaxIter:  20,
		ConductNum: 1,
		BCSamples:  4,
	}
}

// Bindings binds the named paper algorithm's parameters to p and its
// input properties to the columns of in (which BC, needing none, may
// leave nil).
func Bindings(name string, in *Inputs, p Params) machine.Bindings {
	switch name {
	case "avgteen":
		return machine.Bindings{
			Int:         map[string]int64{"K": p.AvgTeenK},
			NodePropInt: map[string][]int64{"age": in.Age},
		}
	case "pagerank":
		return machine.Bindings{
			Float: map[string]float64{"e": p.PRBeps, "d": p.PRDamping},
			Int:   map[string]int64{"max_iter": int64(p.PRMaxIter)},
		}
	case "conductance":
		return machine.Bindings{
			Int:         map[string]int64{"num": p.ConductNum},
			NodePropInt: map[string][]int64{"member": in.Member},
		}
	case "sssp":
		return machine.Bindings{
			Node:        map[string]graph.NodeID{"root": in.Root},
			EdgePropInt: map[string][]int64{"len": in.EdgeLen},
		}
	case "bipartite":
		return machine.Bindings{
			NodePropBool: map[string][]bool{"is_boy": in.IsBoy},
		}
	case "bc":
		return machine.Bindings{
			Int: map[string]int64{"K": p.BCSamples},
		}
	}
	return machine.Bindings{}
}
