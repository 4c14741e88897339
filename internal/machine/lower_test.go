package machine_test

import (
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"gmpregel/internal/core"
	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/machine"
	"gmpregel/internal/manual"
	"gmpregel/internal/pregel"
)

// The compiled SSSP of testdata/sssp.gm sends `this.dist + edge.len`,
// which the executor lowers to one broadcast of dist with len as the
// message type's edge column — the broadcast manual.SSSP sends. At
// every (workers, partitioner, chunk size) point the generated run
// sends the hand-written job's messages and bytes and computes its
// distances, and its Stats equal, bit for bit, both the reference
// interpreter's, which sends per edge, and those of every other chunk
// size at the same workers and partitioner.
func TestEdgeAddLoweringOnSSSP(t *testing.T) {
	src, err := os.ReadFile("../../testdata/sssp.gm")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := core.Compile(string(src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.TwitterLike(300, 6, 3)
	rng := rand.New(rand.NewSource(4))
	lens := make([]int64, g.NumEdges())
	for e := range lens {
		lens[e] = 1 + rng.Int63n(20)
	}
	bind := machine.Bindings{
		Node:        map[string]graph.NodeID{"root": 0},
		EdgePropInt: map[string][]int64{"len": lens},
	}
	s, err := machine.ExecSchema(compiled.Program, g, bind)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Messages) != 1 || !reflect.DeepEqual(s.Messages[0].EdgeAdd, lens) {
		t.Fatalf("the exec's schema declares message types %+v, want len as the edge column of its one type", s.Messages)
	}
	traffic := func(st pregel.Stats) [4]int64 {
		return [4]int64{st.MessagesSent, st.NetworkMsgs, st.NetworkBytes, st.LocalBytes}
	}
	for _, w := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		for _, part := range []pregel.PartitionKind{pregel.PartitionMod, pregel.PartitionDegree} {
			var first pregel.Stats
			for i, chunk := range []int{1 << 30, 0, 1, 16, 64} {
				cfg := pregel.Config{NumWorkers: w, Partitioner: part, ChunkSize: chunk, Seed: 1, TraceSteps: true}
				res, err := machine.Run(compiled.Program, g, bind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := machine.RunWithOptions(compiled.Program, g, bind, cfg, machine.RunOptions{Interpret: true})
				if err != nil {
					t.Fatal(err)
				}
				j := &manual.SSSP{Root: 0, Len: lens, Dist: make([]int64, g.NumNodes())}
				man, err := pregel.Run(g, j, cfg)
				if err != nil {
					t.Fatal(err)
				}
				dist, _ := res.NodePropInt("dist")
				refDist, _ := ref.NodePropInt("dist")
				if i == 0 {
					first = res.Stats
				}
				switch {
				case !reflect.DeepEqual(res.Stats, ref.Stats):
					t.Errorf("%+v: lowered Stats %+v, interpreter's %+v", cfg, res.Stats, ref.Stats)
				case !reflect.DeepEqual(res.Stats, first):
					t.Errorf("%+v: Stats %+v differ from chunk size %d's %+v", cfg, res.Stats, 1<<30, first)
				case traffic(res.Stats) != traffic(man):
					t.Errorf("%+v: generated traffic %v, manual %v", cfg, traffic(res.Stats), traffic(man))
				case !reflect.DeepEqual(dist, refDist) || !reflect.DeepEqual(dist, j.Dist):
					t.Errorf("%+v: generated, interpreted and manual distances differ", cfg)
				}
			}
		}
	}
}
