// Command gmpc is the Green-Marl → Pregel compiler CLI.
//
// Usage:
//
//	gmpc [flags] file.gm          compile a Green-Marl procedure
//	gmpc -builtin pagerank ...    compile one of the paper's algorithms
//
// Flags select what to print: -java (generated GPS source), -machine
// (state-machine listing), -canonical (Pregel-canonical Green-Marl),
// -trace (applied transformations). With -run, the program is executed
// on a generated graph and its statistics printed.
//
// Static analysis: -analyze prints the diagnostics instead of the
// compile output — the analyses' findings and the compiler's verdict
// (-diag-format=text|json selects the rendering) — exiting nonzero if
// any errors — or, with -Werror, any warnings — were found. Without
// -Werror it exits nonzero exactly when a plain compile fails.
// Without -analyze, -Werror makes a normal compile fail when the
// analyzer reported warnings.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"gmpregel"
	"gmpregel/internal/algorithms"
	"gmpregel/internal/graph"
	"gmpregel/internal/pregel"
)

func main() {
	var (
		builtin    = flag.String("builtin", "", "compile a built-in algorithm (avgteen, pagerank, conductance, sssp, bipartite, bc)")
		java       = flag.Bool("java", false, "print the generated GPS-style Java source")
		giraph     = flag.Bool("giraph", false, "print the generated Giraph-style Java source")
		machineOut = flag.Bool("machine", false, "print the state-machine listing")
		canonical  = flag.Bool("canonical", false, "print the Pregel-canonical Green-Marl form")
		trace      = flag.Bool("trace", true, "print the applied-transformation checklist")
		noOpt      = flag.Bool("no-opt", false, "disable state merging and intra-loop merging")
		emit       = flag.String("emit", "", "write the compiled program as a JSON artifact to this file")
		analyze    = flag.Bool("analyze", false, "print the diagnostics, the compile verdict included, instead of the compile output")
		diagFormat = flag.String("diag-format", "text", "diagnostic rendering for -analyze: text or json")
		werror     = flag.Bool("Werror", false, "treat analysis warnings as errors (nonzero exit)")
		run        = flag.Bool("run", false, "run the program on a generated twitter-like graph")
		runNodes   = flag.Int("run-nodes", 10000, "graph size for -run")
		workers    = flag.Int("workers", 4, "engine workers for -run")
		httpAddr   = flag.String("http", "", "with -run: serve /metrics, /healthz, /run, /debug/pprof on this address during the run")
	)
	flag.Parse()
	if *runNodes < 1 || *runNodes > graph.MaxNodes || *workers < 1 {
		fmt.Fprintf(os.Stderr, "gmpc: -run-nodes must be in 1..%d (graph.MaxNodes) and -workers at least 1\n", graph.MaxNodes)
		os.Exit(2)
	}

	var src string
	switch {
	case *builtin != "":
		s, ok := algorithms.ByName[*builtin]
		if !ok {
			fatalf("unknown builtin %q; have %v", *builtin, algorithms.Names)
		}
		src = s
	case flag.NArg() == 1:
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		src = string(b)
	default:
		fmt.Fprintln(os.Stderr, "usage: gmpc [flags] file.gm  |  gmpc -builtin <name> [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if *analyze {
		analyzeOnly(src, *diagFormat, *werror)
		return
	}

	opts := gmpregel.Options{}
	if *noOpt {
		opts.DisableStateMerging = true
		opts.DisableIntraLoopMerge = true
	}
	prog, err := gmpregel.Compile(src, opts)
	if err != nil {
		fatalf("compile: %v", err)
	}
	if *werror && prog.Diagnostics().HasWarnings() {
		fmt.Fprint(os.Stderr, prog.Diagnostics().Text())
		fatalf("-Werror: analysis reported warnings")
	}
	fmt.Printf("compiled %s: %d vertex-centric kernels, %d message types\n",
		prog.Name(), prog.NumVertexStates(), prog.NumMessageTypes())
	if *trace {
		fmt.Println("\napplied transformations:")
		fmt.Println(prog.TransformationTable())
	}
	if *canonical {
		fmt.Println("\nPregel-canonical form:")
		fmt.Println(prog.CanonicalSource())
	}
	if *machineOut {
		fmt.Println("\nstate machine:")
		fmt.Println(prog.StateMachine())
	}
	if *java {
		fmt.Println("\ngenerated GPS Java:")
		fmt.Println(prog.JavaSource())
	}
	if *giraph {
		fmt.Println("\ngenerated Giraph Java:")
		fmt.Println(prog.GiraphSource())
	}
	if *emit != "" {
		f, err := os.Create(*emit)
		if err != nil {
			fatalf("%v", err)
		}
		if err := prog.SaveArtifact(f); err != nil {
			fatalf("emit: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("emit: %v", err)
		}
		fmt.Printf("wrote compiled artifact to %s\n", *emit)
	}
	if *run {
		runIt(prog, *builtin, *runNodes, *workers, *httpAddr)
	}
}

// analyzeOnly prints the diagnostics and exits: 0 when clean, 1 when
// the findings include errors (or warnings under -Werror).
func analyzeOnly(src, format string, werror bool) {
	diags := gmpregel.Diagnose(src)
	switch format {
	case "text":
		fmt.Print(diags.Text())
	case "json":
		data, err := diags.JSON()
		if err != nil {
			fatalf("analyze: %v", err)
		}
		fmt.Println(string(data))
	default:
		fatalf("unknown -diag-format %q (want text or json)", format)
	}
	if diags.HasErrors() || (werror && diags.HasWarnings()) {
		os.Exit(1)
	}
}

func runIt(prog *gmpregel.Compiled, builtin string, n, workers int, httpAddr string) {
	if builtin == "" {
		fatalf("-run requires -builtin (inputs are bound by the built-in algorithms' convention)")
	}
	cfg := pregel.Config{NumWorkers: workers, Seed: 7}
	if httpAddr != "" {
		// Live introspection (plus pprof) while the run is in flight.
		reg := gmpregel.NewMetricsRegistry()
		live := gmpregel.NewLiveObserver()
		cfg.Observer = gmpregel.MultiObserver(gmpregel.NewMetricsObserver(reg), live)
		go func() {
			if err := http.ListenAndServe(httpAddr, gmpregel.ObsHandler(reg, live)); err != nil {
				fmt.Fprintf(os.Stderr, "gmpc: http: %v\n", err)
			}
		}()
		fmt.Printf("serving introspection on http://%s\n", httpAddr)
	}
	g := gmpregel.TwitterLikeGraph(n, 16, 1)
	in := algorithms.MakeInputs(g, n/2, 7)
	start := time.Now()
	out, err := prog.Run(g, algorithms.Bindings(builtin, in, algorithms.DefaultParams()), cfg)
	if err != nil {
		fatalf("run: %v", err)
	}
	elapsed := time.Since(start)
	fmt.Printf("\nrun on %d nodes / %d edges with %d workers:\n", g.NumNodes(), g.NumEdges(), workers)
	fmt.Printf("  elapsed:       %v\n", elapsed)
	fmt.Printf("  supersteps:    %d\n", out.Stats.Supersteps)
	fmt.Printf("  messages:      %d\n", out.Stats.MessagesSent)
	fmt.Printf("  network bytes: %d\n", out.Stats.NetworkBytes)
	fmt.Printf("  control bytes: %d\n", out.Stats.ControlBytes)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "gmpc: "+format+"\n", args...)
	os.Exit(1)
}
