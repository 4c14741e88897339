package bench

import (
	"fmt"
	"io"
	"time"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/core"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
)

// AblationRow is one (algorithm, configuration) measurement.
type AblationRow struct {
	Algorithm  string
	Config     string
	Elapsed    time.Duration
	Supersteps int
	Messages   int64
	NetBytes   int64
}

// Ablation measures the two §4.2 compiler optimizations DESIGN.md calls
// out (none / state merging / both), per algorithm on the twitter-like
// graph. It returns the rows and writes a table.
func Ablation(w io.Writer, scale, workers, trials int, seed int64) ([]AblationRow, error) {
	spec, err := algorithms.GraphByName("twitter")
	if err != nil {
		return nil, err
	}
	g := spec.Build(scale)
	in := algorithms.MakeInputs(g, g.NumNodes()/2, seed+7)
	p := algorithms.DefaultParams()
	cfg := pregel.Config{NumWorkers: workers, Seed: seed}

	modes := []struct {
		name string
		opts core.Options
	}{
		{"no-opt", core.Options{DisableStateMerging: true, DisableIntraLoopMerge: true}},
		{"state-merge", core.Options{DisableIntraLoopMerge: true}},
		{"full", core.Options{}},
	}
	algos := []string{"avgteen", "pagerank", "conductance", "sssp"}

	fmt.Fprintf(w, "Ablation: compiler optimizations (graph: twitter scale %d, %d nodes / %d edges)\n",
		scale, g.NumNodes(), g.NumEdges())
	fmt.Fprintf(w, "%-12s %-15s %12s %8s %12s %14s\n", "algorithm", "config", "time", "steps", "messages", "net bytes")
	var rows []AblationRow
	for _, algo := range algos {
		for _, mode := range modes {
			c, err := core.Compile(algorithms.ByName[algo], mode.opts)
			if err != nil {
				return nil, err
			}
			b := algorithms.Bindings(algo, in, p)
			var stats pregel.Stats
			d, err := timeRun(trials, func() error {
				res, err := machine.Run(c.Program, g, b, cfg)
				if err != nil {
					return err
				}
				stats = res.Stats
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %v", algo, mode.name, err)
			}
			row := AblationRow{
				Algorithm: algo, Config: mode.name, Elapsed: d,
				Supersteps: stats.Supersteps, Messages: stats.MessagesSent, NetBytes: stats.NetworkBytes,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-12s %-15s %12s %8d %12d %14d\n",
				algo, mode.name, d.Round(time.Microsecond), row.Supersteps, row.Messages, row.NetBytes)
		}
	}
	return rows, nil
}
