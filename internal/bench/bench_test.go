package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/core"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
	"gmpregel/internal/seq"
)

// smallScale keeps test-time graphs tiny; benchmarks use larger scales.
const smallScale = 1

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	stats, err := Table1(&buf, smallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("want 3 graphs, got %d", len(stats))
	}
	for i, st := range stats {
		if st.Nodes < 1000 || st.Edges < 10000 {
			t.Errorf("graph %d too small: %+v", i, st)
		}
	}
	for _, want := range []string{"twitter", "bipartite", "sk2005", "42M", "1.9B"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table 1 output missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.GeneratedLoC <= r.GreenMarlLoC {
			t.Errorf("%s: generated %d LoC not larger than Green-Marl %d", r.Algorithm, r.GeneratedLoC, r.GreenMarlLoC)
		}
		// Paper's shape: Green-Marl is an order of magnitude shorter
		// than Pregel implementations (13-47 vs 105-225).
		if r.GreenMarlLoC > 60 {
			t.Errorf("%s: Green-Marl source unexpectedly long (%d lines)", r.Algorithm, r.GreenMarlLoC)
		}
	}
}

// TestTable3 pins the expected transformation matrix — the paper's
// Table 3 shape for our pipeline.
func TestTable3(t *testing.T) {
	var buf bytes.Buffer
	traces, err := Table3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Rules every algorithm uses.
	for _, name := range []string{"avgteen", "pagerank", "conductance", "sssp", "bipartite", "bc"} {
		tr := traces[name]
		for _, r := range []core.Rule{core.RuleStateMachine, core.RuleNeighborhoodComm, core.RuleMessageClassGen, core.RuleStateMerging} {
			if !tr.Applied(r) {
				t.Errorf("%s: rule %s should apply", name, r)
			}
		}
	}
	expect := map[string][]core.Rule{
		"avgteen":     {core.RuleFlipEdges, core.RuleDissectLoops, core.RuleGlobalObject},
		"pagerank":    {core.RuleFlipEdges, core.RuleDissectLoops, core.RuleIntraLoopMerge},
		"conductance": {core.RuleFlipEdges, core.RuleIncomingNbrs},
		"sssp":        {core.RuleEdgeProperty, core.RuleIntraLoopMerge},
		"bipartite":   {core.RuleRandomWrite, core.RuleMultipleComm},
		"bc":          {core.RuleBFSTraversal, core.RuleRandomAccessSeq, core.RuleIncomingNbrs, core.RuleFlipEdges},
	}
	notExpect := map[string][]core.Rule{
		"avgteen":   {core.RuleBFSTraversal, core.RuleRandomWrite, core.RuleIncomingNbrs},
		"pagerank":  {core.RuleBFSTraversal, core.RuleRandomWrite},
		"sssp":      {core.RuleBFSTraversal, core.RuleFlipEdges, core.RuleIncomingNbrs},
		"bipartite": {core.RuleBFSTraversal, core.RuleEdgeProperty},
	}
	for name, rules := range expect {
		for _, r := range rules {
			if !traces[name].Applied(r) {
				t.Errorf("%s: rule %s should apply", name, r)
			}
		}
	}
	for name, rules := range notExpect {
		for _, r := range rules {
			if traces[name].Applied(r) {
				t.Errorf("%s: rule %s should NOT apply", name, r)
			}
		}
	}
}

func TestFigure6SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 6 runs all nine pairs")
	}
	var buf bytes.Buffer
	rows, err := Figure6(&buf, smallScale, 4, 1, 5)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(rows) != 9 {
		t.Fatalf("want 9 bars, got %d", len(rows))
	}
	t.Logf("\n%s", buf.String())
	for _, r := range rows {
		// §5.2: generated and manual incur the same message traffic.
		if r.Generated.Stats.NetworkBytes != r.Manual.Stats.NetworkBytes {
			t.Errorf("%s/%s: network bytes differ: generated %d vs manual %d",
				r.Algorithm, r.Graph, r.Generated.Stats.NetworkBytes, r.Manual.Stats.NetworkBytes)
		}
		if r.Generated.Stats.MessagesSent != r.Manual.Stats.MessagesSent {
			t.Errorf("%s/%s: messages differ: generated %d vs manual %d",
				r.Algorithm, r.Graph, r.Generated.Stats.MessagesSent, r.Manual.Stats.MessagesSent)
		}
		// Timesteps: identical up to the compiler's separate
		// initialization state (at most +2).
		ds := r.Generated.Stats.Supersteps - r.Manual.Stats.Supersteps
		if ds < 0 || ds > 2 {
			t.Errorf("%s/%s: superstep mismatch: generated %d vs manual %d",
				r.Algorithm, r.Graph, r.Generated.Stats.Supersteps, r.Manual.Stats.Supersteps)
		}
	}
}

func TestBCExperiment(t *testing.T) {
	var buf bytes.Buffer
	rep, err := BCExperiment(&buf, smallScale, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", buf.String())
	// The paper reports 9 vertex-centric kernels and 4 message types for
	// its BC compilation; our pipeline's exact counts are pinned here.
	if rep.VertexKernels < 6 || rep.VertexKernels > 12 {
		t.Errorf("vertex kernels = %d, expected high single digits", rep.VertexKernels)
	}
	if rep.MessageTypes < 3 || rep.MessageTypes > 5 {
		t.Errorf("message types = %d, expected ~4", rep.MessageTypes)
	}
	if rep.MaxAbsError > 1e-6 {
		t.Errorf("BC deviates from oracle: max rel err %g", rep.MaxAbsError)
	}
}

func TestGeneratedMatchesOracleOnBenchGraphs(t *testing.T) {
	// End-to-end spot check on the evaluation graphs themselves.
	spec, _ := algorithms.GraphByName("twitter")
	g := spec.Build(1)
	in := algorithms.MakeInputs(g, 0, 99)
	p := algorithms.DefaultParams()
	cfg := pregel.Config{NumWorkers: 4, Seed: 1}

	c, err := CompiledProgram("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Run(c.Program, g, algorithms.Bindings("pagerank", in, p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.PageRank(g, p.PRBeps, p.PRDamping, p.PRMaxIter)
	got, err := res.NodePropFloat("pg_rank")
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("pg_rank[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs 12 configurations")
	}
	var buf bytes.Buffer
	rows, err := Ablation(&buf, smallScale, 4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("want 12 rows, got %d", len(rows))
	}
	t.Logf("\n%s", buf.String())
	// Per algorithm: supersteps must be non-increasing across the three
	// configs.
	byAlgo := map[string][]AblationRow{}
	for _, r := range rows {
		byAlgo[r.Algorithm] = append(byAlgo[r.Algorithm], r)
	}
	for algo, rs := range byAlgo {
		if rs[1].Supersteps > rs[0].Supersteps || rs[2].Supersteps > rs[1].Supersteps {
			t.Errorf("%s: supersteps not monotone: %d %d %d", algo, rs[0].Supersteps, rs[1].Supersteps, rs[2].Supersteps)
		}
	}
}

func TestSSSPActivityProfile(t *testing.T) {
	var buf bytes.Buffer
	prof, err := SSSPActivity(&buf, smallScale, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", buf.String())
	if len(prof.Supersteps) < 3 {
		t.Fatalf("too few supersteps: %d", len(prof.Supersteps))
	}
	// The paper's point: the active set collapses at the end of the
	// run (paper: <1.5% in the last timesteps), and the generated
	// (no-voteToHalt) program computes far more vertices overall.
	if prof.TailActiveFraction > 0.10 {
		t.Errorf("final active fraction = %.2f, expected a collapsed tail", prof.TailActiveFraction)
	}
	if ratio := float64(prof.GeneratedCalls) / float64(prof.ManualCalls); ratio < 1.3 {
		t.Errorf("generated/manual compute-call ratio = %.2f, expected voteToHalt to save work", ratio)
	}
}
