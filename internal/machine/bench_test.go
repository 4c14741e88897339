package machine_test

import (
	"os"
	"testing"

	"gmpregel/internal/core"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
)

// BenchmarkGeneratedPageRank times the generated arm's vertex code: the
// compiled testdata/pagerank.gm at one worker on a fixed web-like graph
// (RMAT, 2^13 vertices, 8 edges each), with e = 0 so that every run
// takes all 20 iterations. The program is compiled once, untimed.
func BenchmarkGeneratedPageRank(b *testing.B) {
	src, err := os.ReadFile("../../testdata/pagerank.gm")
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.Compile(string(src), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := gen.WebLike(13, 8, 1)
	bind := machine.Bindings{
		Float: map[string]float64{"e": 0, "d": 0.85},
		Int:   map[string]int64{"max_iter": 20},
	}
	cfg := pregel.Config{NumWorkers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.Run(c.Program, g, bind, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
