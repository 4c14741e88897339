package algorithms

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"gmpregel/internal/core"
	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/machine"
	"gmpregel/internal/manual"
	"gmpregel/internal/pregel"
)

// TestPinnedOutputHashes pins the exact bits of PageRank's ranks and
// SSSP's distances at one and two workers, on a seeded web-like and a
// seeded twitter-like graph; the generated and the hand-written job must
// both produce them. The hashes were taken before the engine folded
// reductions at delivery, so they hold the fold to its contract: a float
// sum into an accumulator that starts at zero, and an int min, deliver
// results bit-identical to interpreting every message. (Float sums group
// by source worker, so the W=1 and W=2 ranks legitimately differ in
// their low bits.)
func TestPinnedOutputHashes(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Directed
	}{
		{"web", gen.WebLike(11, 8, 5)},
		{"twitter", gen.TwitterLike(3000, 8, 5)},
	}
	p := DefaultParams()
	for _, gr := range graphs {
		g := gr.g
		in := MakeInputs(g, 0, 9)
		for _, algo := range []string{"pagerank", "sssp"} {
			compiled, err := core.Compile(ByName[algo], core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2} {
				cfg := pregel.Config{NumWorkers: w, Seed: 1}
				res, err := machine.Run(compiled.Program, g, Bindings(algo, in, p), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var gen, man uint64
				switch algo {
				case "pagerank":
					ranks, err := res.NodePropFloat("pg_rank")
					if err != nil {
						t.Fatal(err)
					}
					gen = hashFloats(ranks)
					j := &manual.PageRank{Eps: p.PRBeps, D: p.PRDamping, MaxIter: p.PRMaxIter, PR: make([]float64, g.NumNodes())}
					if _, err := pregel.Run(g, j, cfg); err != nil {
						t.Fatal(err)
					}
					man = hashFloats(j.PR)
				case "sssp":
					dist, err := res.NodePropInt("dist")
					if err != nil {
						t.Fatal(err)
					}
					gen = hashInts(dist)
					j := &manual.SSSP{Root: in.Root, Len: in.EdgeLen, Dist: make([]int64, g.NumNodes())}
					if _, err := pregel.Run(g, j, cfg); err != nil {
						t.Fatal(err)
					}
					man = hashInts(j.Dist)
				}
				key := pinKey{algo, gr.name, w}
				for arm, got := range map[string]uint64{"generated": gen, "manual": man} {
					if want := pinnedOutputs[key]; got != want {
						t.Errorf("%+v %s: outputs hash to %#x, pinned %#x", key, arm, got, want)
					}
				}
			}
		}
	}
}

type pinKey struct {
	algo, graph string
	workers     int
}

// pinnedOutputs are fnv64a hashes of the little-endian output words.
var pinnedOutputs = map[pinKey]uint64{
	{"pagerank", "web", 1}:     0x4c5ddaf632c67bfd,
	{"pagerank", "web", 2}:     0x74153d2f58ebd9bb,
	{"pagerank", "twitter", 1}: 0x32d248a014eec8f7,
	{"pagerank", "twitter", 2}: 0x6b77aaf5e661fb18,
	{"sssp", "web", 1}:         0x72aa9232b6bb6534,
	{"sssp", "web", 2}:         0x72aa9232b6bb6534,
	{"sssp", "twitter", 1}:     0x3155b06637e5e46f,
	{"sssp", "twitter", 2}:     0x3155b06637e5e46f,
}

func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashInts(xs []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return h.Sum64()
}
