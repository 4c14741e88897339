// Package bench regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (input graphs), Table 2 (lines of code),
// Table 3 (transformations applied per algorithm), Figure 6 (normalized
// runtime of compiler-generated vs. manual Pregel programs, with
// timestep and network-I/O comparison), and the §5.1 Betweenness
// Centrality compilation experiment. Inputs follow the convention in
// internal/algorithms; performance evidence comes from the benchmark
// spine (go run ./benchmark), not from here.
package bench

import (
	"math/rand"
	"time"
)

// timeRun measures fn's wall time, returning the minimum over trials.
func timeRun(trials int, fn func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < trials; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// masterRand mirrors the engine's master RNG construction so harness
// code can replay PickRandom sequences.
func masterRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
