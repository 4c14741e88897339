// Command gmbench regenerates the paper's evaluation artifacts:
//
//	gmbench -table 1       input graph statistics (Table 1)
//	gmbench -table 2       lines-of-code comparison (Table 2)
//	gmbench -table 3       transformations applied per algorithm (Table 3)
//	gmbench -figure6       generated-vs-manual runtime/steps/bytes (Figure 6)
//	gmbench -bc            the §5.1 Betweenness Centrality experiment
//	gmbench -ablation      compiler-optimization ablation table
//	gmbench -activity      SSSP per-superstep active-vertex profile (§5.2)
//	gmbench -all           every mode above
//
// -scale multiplies graph sizes (scale 1 ≈ 5-8k vertices per graph);
// -workers, -trials and -seed control the engine runs. The step, message
// and byte counts are exact and reproducible; the wall-time columns are
// context only — performance is measured by the benchmark spine
// (go run ./benchmark).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/bench"
)

// mode is one gmbench artifact generator. -all runs every entry of the
// table, so a mode added here is automatically part of -all.
type mode struct {
	enabled bool
	run     func(w io.Writer) error
}

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate table 1, 2, or 3")
		figure6  = flag.Bool("figure6", false, "regenerate Figure 6")
		bc       = flag.Bool("bc", false, "run the Betweenness Centrality compilation experiment")
		ablation = flag.Bool("ablation", false, "measure the compiler-optimization ablation")
		activity = flag.Bool("activity", false, "measure the SSSP per-superstep active-vertex profile (§5.2)")
		all      = flag.Bool("all", false, "regenerate everything")
		scale    = flag.Int("scale", 2, "graph scale multiplier")
		workers  = flag.Int("workers", 8, "engine workers")
		trials   = flag.Int("trials", 3, "timing trials (minimum is reported)")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *scale < 1 || *scale > algorithms.MaxScale || *workers < 1 || *trials < 1 {
		fmt.Fprintf(os.Stderr, "gmbench: -scale must be in 1..%d (graphs within graph.MaxNodes), -workers and -trials at least 1\n", algorithms.MaxScale)
		os.Exit(2)
	}

	modes := []mode{
		{*table == 1, func(w io.Writer) error { _, err := bench.Table1(w, *scale); return err }},
		{*table == 2, func(w io.Writer) error { _, err := bench.Table2(w); return err }},
		{*table == 3, func(w io.Writer) error { _, err := bench.Table3(w); return err }},
		{*figure6, func(w io.Writer) error { _, err := bench.Figure6(w, *scale, *workers, *trials, *seed); return err }},
		{*bc, func(w io.Writer) error { _, err := bench.BCExperiment(w, *scale, *workers, *seed); return err }},
		{*ablation, func(w io.Writer) error { _, err := bench.Ablation(w, *scale, *workers, *trials, *seed); return err }},
		{*activity, func(w io.Writer) error { _, err := bench.SSSPActivity(w, *scale, *workers, *seed); return err }},
	}
	ran := false
	for _, m := range modes {
		if !*all && !m.enabled {
			continue
		}
		ran = true
		if err := m.run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "gmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		flag.PrintDefaults()
		os.Exit(2)
	}
}
