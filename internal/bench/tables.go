package bench

import (
	"fmt"
	"io"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/codegen"
	"gmpregel/internal/core"
	"gmpregel/internal/graph"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
	"gmpregel/internal/seq"
)

// Table1Row is one evaluation graph with its computed statistics.
type Table1Row struct {
	Name string `json:"name"`
	graph.Stats
}

// Table1 generates the evaluation graphs and prints their sizes next to
// the paper's original datasets.
func Table1(w io.Writer, scale int) ([]Table1Row, error) {
	fmt.Fprintf(w, "Table 1: input graphs (scaled stand-ins; paper originals in parentheses)\n")
	fmt.Fprintf(w, "%-10s %10s %12s %8s %10s  %s\n", "name", "nodes", "edges", "maxdeg", "avgdeg", "description")
	var out []Table1Row
	for _, spec := range algorithms.Graphs() {
		g := spec.Build(scale)
		st := graph.ComputeStats(g)
		out = append(out, Table1Row{Name: spec.Name, Stats: st})
		fmt.Fprintf(w, "%-10s %10d %12d %8d %10.1f  %s (paper: %s nodes / %s edges)\n",
			spec.Name, st.Nodes, st.Edges, st.MaxOutDeg, st.AvgOutDeg, spec.Description, spec.PaperNodes, spec.PaperEdges)
	}
	return out, nil
}

// Table2Row is one line-of-code comparison.
type Table2Row struct {
	Algorithm    string
	GreenMarlLoC int
	GeneratedLoC int
	PaperGM      int
	PaperGPS     string
}

// paperTable2 is the paper's reported numbers for context.
var paperTable2 = map[string][2]string{
	"avgteen":     {"13", "130"},
	"pagerank":    {"19", "110"},
	"conductance": {"12", "149"},
	"sssp":        {"29", "105"},
	"bipartite":   {"47", "225"},
	"bc":          {"25", "N/A"},
}

// Table2 compiles every algorithm and compares Green-Marl source lines
// against generated GPS (Java) lines, mirroring the paper's comparison
// of Green-Marl vs. native GPS implementations.
func Table2(w io.Writer) ([]Table2Row, error) {
	fmt.Fprintf(w, "Table 2: lines of code — Green-Marl vs generated GPS (paper's Green-Marl / native-GPS in parentheses)\n")
	fmt.Fprintf(w, "%-14s %12s %15s %18s\n", "algorithm", "Green-Marl", "generated GPS", "paper (GM/GPS)")
	var rows []Table2Row
	for _, name := range algorithms.Names {
		c, err := CompiledProgram(name)
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Algorithm:    name,
			GreenMarlLoC: codegen.CountLines(algorithms.ByName[name]),
			GeneratedLoC: codegen.CountLines(codegen.Java(c.Program)),
		}
		rows = append(rows, row)
		pp := paperTable2[name]
		fmt.Fprintf(w, "%-14s %12d %15d %13s/%s\n", name, row.GreenMarlLoC, row.GeneratedLoC, pp[0], pp[1])
	}
	return rows, nil
}

// Table3 compiles every algorithm and prints the applied-transformation
// matrix (✓ per rule per algorithm), the paper's Table 3.
func Table3(w io.Writer) (map[string]*core.Trace, error) {
	traces := map[string]*core.Trace{}
	warnFree := map[string]bool{}
	for _, name := range algorithms.Names {
		c, err := CompiledProgram(name)
		if err != nil {
			return nil, err
		}
		traces[name] = c.Trace
		warnFree[name] = c.Program.Analysis != nil && c.Program.Analysis.WarningFree
	}
	fmt.Fprintf(w, "Table 3: compiler transformations applied per algorithm\n")
	fmt.Fprintf(w, "%-22s", "transformation")
	for _, name := range algorithms.Names {
		fmt.Fprintf(w, " %-9s", shortName(name))
	}
	fmt.Fprintln(w)
	for _, r := range core.Rules() {
		fmt.Fprintf(w, "%-22s", r)
		for _, name := range algorithms.Names {
			mark := ""
			if traces[name].Applied(r) {
				mark = "x"
			}
			fmt.Fprintf(w, " %-9s", mark)
		}
		fmt.Fprintln(w)
	}
	// Static-analysis verdict footer: which programs compiled without
	// analyzer warnings (see internal/gm/analysis).
	fmt.Fprintf(w, "%-22s", "analysis warning-free")
	for _, name := range algorithms.Names {
		mark := ""
		if warnFree[name] {
			mark = "x"
		}
		fmt.Fprintf(w, " %-9s", mark)
	}
	fmt.Fprintln(w)
	return traces, nil
}

func shortName(name string) string {
	switch name {
	case "avgteen":
		return "AvgTeen"
	case "pagerank":
		return "PageRank"
	case "conductance":
		return "Conduct"
	case "sssp":
		return "SSSP"
	case "bipartite":
		return "Bipartite"
	case "bc":
		return "BC"
	}
	return name
}

// BCReport summarizes the §5.1 Betweenness Centrality experiment.
type BCReport struct {
	VertexKernels int
	MessageTypes  int
	Supersteps    int
	MaxAbsError   float64
}

// BCExperiment compiles Approximate Betweenness Centrality — the paper's
// headline "too hard to hand-code" program — reports the generated
// kernel/message structure, runs it, and validates against the
// sequential Brandes oracle using the same random sources.
func BCExperiment(w io.Writer, scale, workers int, seed int64) (*BCReport, error) {
	c, err := CompiledProgram("bc")
	if err != nil {
		return nil, err
	}
	spec, err := algorithms.GraphByName("sk2005")
	if err != nil {
		return nil, err
	}
	g := spec.Build(scale)
	p := algorithms.DefaultParams()
	cfg := pregel.Config{NumWorkers: workers, Seed: seed}
	res, err := machine.Run(c.Program, g, algorithms.Bindings("bc", nil, p), cfg)
	if err != nil {
		return nil, err
	}
	got, err := res.NodePropFloat("BC")
	if err != nil {
		return nil, err
	}
	// The compiled program draws sources from the master RNG; replay it.
	rng := masterRand(seed)
	sources := make([]graph.NodeID, p.BCSamples)
	for i := range sources {
		sources[i] = graph.NodeID(rng.Intn(g.NumNodes()))
	}
	want := seq.BCApprox(g, sources)
	maxErr := 0.0
	for v := range want {
		d := got[v] - want[v]
		if d < 0 {
			d = -d
		}
		rel := d / (1 + abs(want[v]))
		if rel > maxErr {
			maxErr = rel
		}
	}
	rep := &BCReport{
		VertexKernels: c.Program.NumVertexStates(),
		MessageTypes:  len(c.Program.Msgs),
		Supersteps:    res.Stats.Supersteps,
		MaxAbsError:   maxErr,
	}
	fmt.Fprintf(w, "§5.1 Betweenness Centrality compilation (paper: 9 vertex kernels, 4 message types)\n")
	fmt.Fprintf(w, "  graph: %s scale %d (%d nodes / %d edges), K=%d sources\n",
		spec.Name, scale, g.NumNodes(), g.NumEdges(), p.BCSamples)
	fmt.Fprintf(w, "  generated vertex kernels: %d\n", rep.VertexKernels)
	fmt.Fprintf(w, "  message types:            %d\n", rep.MessageTypes)
	fmt.Fprintf(w, "  supersteps:               %d\n", rep.Supersteps)
	fmt.Fprintf(w, "  max rel. error vs Brandes oracle: %.2e\n", rep.MaxAbsError)
	return rep, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
