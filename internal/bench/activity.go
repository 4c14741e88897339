package bench

import (
	"fmt"
	"io"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/manual"
	"gmpregel/internal/pregel"
)

// ActivityProfile reproduces the paper's §5.2 observation motivating
// voteToHalt: in SSSP, the fraction of active vertices collapses after
// the first few supersteps, so the generated program (which computes
// every vertex every superstep) wastes work in the long tail while the
// manual program skips converged vertices.
type ActivityProfile struct {
	Supersteps []int64 // vertex-compute calls per superstep (manual)
	NumNodes   int
	// TailActiveFraction is the active fraction of the final superstep,
	// the paper's "last timesteps" measure.
	TailActiveFraction float64
	// GeneratedCalls / ManualCalls are total vertex-compute invocations.
	GeneratedCalls, ManualCalls int64
}

// SSSPActivity measures the per-superstep active-vertex profile of
// manual SSSP (with voteToHalt) against the generated program's
// every-vertex-every-superstep schedule.
func SSSPActivity(w io.Writer, scale, workers int, seed int64) (*ActivityProfile, error) {
	spec, err := algorithms.GraphByName("twitter")
	if err != nil {
		return nil, err
	}
	g := spec.Build(scale)
	in := algorithms.MakeInputs(g, 0, seed+7)
	cfg := pregel.Config{NumWorkers: workers, Seed: seed}
	cfg.TraceSteps = true

	job := &manual.SSSP{Root: in.Root, Len: in.EdgeLen, Dist: make([]int64, g.NumNodes())}
	st, err := pregel.Run(g, job, cfg)
	if err != nil {
		return nil, err
	}
	prof := &ActivityProfile{NumNodes: g.NumNodes(), ManualCalls: st.VertexCalls}
	for _, s := range st.Steps {
		prof.Supersteps = append(prof.Supersteps, s.VertexCalls)
	}
	if n := len(prof.Supersteps); n > 0 {
		prof.TailActiveFraction = float64(prof.Supersteps[n-1]) / float64(g.NumNodes())
	}

	gen, err := RunGenerated("sssp", g, in, algorithms.DefaultParams(), cfg, 1)
	if err != nil {
		return nil, err
	}
	prof.GeneratedCalls = gen.Stats.VertexCalls

	fmt.Fprintf(w, "§5.2 SSSP vertex activity (twitter scale %d, %d nodes; paper: <1.5%% active in the tail)\n", scale, g.NumNodes())
	fmt.Fprintf(w, "  %-10s %12s %8s\n", "superstep", "active", "fraction")
	for i, c := range prof.Supersteps {
		fmt.Fprintf(w, "  %-10d %12d %7.2f%%\n", i, c, 100*float64(c)/float64(g.NumNodes()))
	}
	fmt.Fprintf(w, "  final-superstep active fraction: %.2f%%\n", 100*prof.TailActiveFraction)
	fmt.Fprintf(w, "  total vertex.compute() calls: manual (voteToHalt) %d vs generated %d (%.1fx)\n",
		prof.ManualCalls, prof.GeneratedCalls, float64(prof.GeneratedCalls)/float64(prof.ManualCalls))
	return prof, nil
}
