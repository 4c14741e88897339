package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"gmpregel/internal/core"
	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/machine"
	"gmpregel/internal/manual"
	"gmpregel/internal/pregel"
	"gmpregel/internal/seq"
)

// algorithm is one Figure-6 row: the Green-Marl program, the
// hand-written Pregel job it is normalised against, and the sequential
// oracle both are checked against.
type algorithm interface {
	// build generates the graph and returns it with the boy-partition
	// size (0 unless bipartite).
	build(smoke bool, seed int64) (*graph.Directed, int)
	bindings(in *inputs) machine.Bindings
	newManual(g *graph.Directed, in *inputs) pregel.Job
	// reference runs the internal/seq oracle and keeps its answer.
	reference(g *graph.Directed, in *inputs)
	// readGenerated is the generated job's last timed step: it reads the
	// result column or return value. manualOutput is its untimed
	// counterpart for the hand-written job, whose output is a field.
	readGenerated(res *machine.Result) (any, error)
	manualOutput(job pregel.Job) any
	// check compares an arm's output with the oracle; "" means correct.
	check(g *graph.Directed, in *inputs, out any) string
}

type pageRank struct{ want []float64 }

const (
	prEps     = 1e-4
	prDamping = 0.85
	prMaxIter = 20
)

func (*pageRank) build(smoke bool, seed int64) (*graph.Directed, int) {
	if smoke {
		return gen.WebLike(10, 8, seed), 0
	}
	return gen.WebLike(16, 18, seed), 0
}

func (*pageRank) bindings(*inputs) machine.Bindings {
	return machine.Bindings{
		Float: map[string]float64{"e": prEps, "d": prDamping},
		Int:   map[string]int64{"max_iter": prMaxIter},
	}
}

func (*pageRank) newManual(g *graph.Directed, _ *inputs) pregel.Job {
	return &manual.PageRank{Eps: prEps, D: prDamping, MaxIter: prMaxIter, PR: make([]float64, g.NumNodes())}
}

func (a *pageRank) reference(g *graph.Directed, _ *inputs) {
	a.want = seq.PageRank(g, prEps, prDamping, prMaxIter)
}

func (*pageRank) readGenerated(res *machine.Result) (any, error) {
	return res.NodePropFloat("pg_rank")
}

func (*pageRank) manualOutput(job pregel.Job) any { return job.(*manual.PageRank).PR }

func (a *pageRank) check(_ *graph.Directed, _ *inputs, out any) string {
	got := out.([]float64)
	if len(got) != len(a.want) {
		return fmt.Sprintf("pagerank: %d ranks, want %d", len(got), len(a.want))
	}
	for v, w := range a.want {
		if math.Abs(got[v]-w) > 1e-9*math.Abs(w) {
			return fmt.Sprintf("pagerank: rank[%d] = %g, oracle %g", v, got[v], w)
		}
	}
	return ""
}

type sssp struct{ want []int64 }

func (*sssp) build(smoke bool, seed int64) (*graph.Directed, int) {
	if smoke {
		return gen.TwitterLike(2000, 8, seed), 0
	}
	return gen.TwitterLike(160000, 16, seed), 0
}

func (*sssp) bindings(in *inputs) machine.Bindings {
	return machine.Bindings{
		Node:        map[string]graph.NodeID{"root": in.root},
		EdgePropInt: map[string][]int64{"len": in.edgeLen},
	}
}

func (*sssp) newManual(g *graph.Directed, in *inputs) pregel.Job {
	return &manual.SSSP{Root: in.root, Len: in.edgeLen, Dist: make([]int64, g.NumNodes())}
}

func (a *sssp) reference(g *graph.Directed, in *inputs) {
	a.want = seq.SSSP(g, in.root, in.edgeLen)
}

func (*sssp) readGenerated(res *machine.Result) (any, error) { return res.NodePropInt("dist") }

func (*sssp) manualOutput(job pregel.Job) any { return job.(*manual.SSSP).Dist }

func (a *sssp) check(_ *graph.Directed, _ *inputs, out any) string {
	got := out.([]int64)
	if len(got) != len(a.want) {
		return fmt.Sprintf("sssp: %d distances, want %d", len(got), len(a.want))
	}
	for v, w := range a.want {
		if got[v] != w {
			return fmt.Sprintf("sssp: dist[%d] = %d, oracle %d", v, got[v], w)
		}
	}
	return ""
}

type bipartite struct{}

// matching is a bipartite arm's output: the partner column and the
// matched-pair count the program returned.
type matching struct {
	match []graph.NodeID
	count int64
}

func (*bipartite) build(smoke bool, seed int64) (*graph.Directed, int) {
	if smoke {
		return gen.Bipartite(1500, 1500, 5, seed), 1500
	}
	return gen.Bipartite(240000, 240000, 10, seed), 240000
}

func (*bipartite) bindings(in *inputs) machine.Bindings {
	return machine.Bindings{NodePropBool: map[string][]bool{"is_boy": in.isBoy}}
}

func (*bipartite) newManual(g *graph.Directed, in *inputs) pregel.Job {
	return &manual.Bipartite{IsBoy: in.isBoy, Match: make([]graph.NodeID, g.NumNodes())}
}

// reference has nothing to keep: a random matching has no unique answer,
// so each arm's output is validated (mutual, along edges, maximal) on its
// own. seq.GreedyMatching still runs, as the sequential reference whose
// time pregel.cost_ratio divides by.
func (*bipartite) reference(g *graph.Directed, in *inputs) { seq.GreedyMatching(g, in.isBoy) }

func (*bipartite) readGenerated(res *machine.Result) (any, error) {
	col, err := res.NodePropInt("match")
	if err != nil {
		return nil, err
	}
	m := matching{match: make([]graph.NodeID, len(col)), count: res.Stats.ReturnedInt}
	for v, p := range col {
		m.match[v] = graph.NodeID(p)
	}
	return m, nil
}

func (*bipartite) manualOutput(job pregel.Job) any {
	j := job.(*manual.Bipartite)
	return matching{match: j.Match, count: j.Count}
}

func (*bipartite) check(g *graph.Directed, in *inputs, out any) string {
	m := out.(matching)
	if msg := seq.ValidateMatching(g, in.isBoy, m.match); msg != "" {
		return "bipartite: " + msg
	}
	var pairs int64
	for v, p := range m.match {
		if in.isBoy[v] && p != graph.NilNode {
			pairs++
		}
	}
	if pairs != m.count {
		return fmt.Sprintf("bipartite: returned count %d, match column has %d pairs", m.count, pairs)
	}
	return ""
}

// arm is one of the four timed configurations of an engine round.
type arm struct {
	generated bool
	workers   int
}

func (a arm) String() string {
	kind := "manual"
	if a.generated {
		kind = "generated"
	}
	return fmt.Sprintf("%s-w%d", kind, a.workers)
}

// armRun is what one arm execution produced.
type armRun struct {
	wall   time.Duration
	stats  pregel.Stats
	allocs uint64
	// self is the traced arm's self time by "layer/name"; vertexBusy
	// sums its vertex-compute spans; runNS is the engine's run span.
	// All zero on untraced arms.
	self       map[string]int64
	vertexBusy int64
	runNS      int64
}

// engineSetup is the timed set-up of an engine workload: generator and
// CSR, reverse CSR, input columns.
type engineSetup struct {
	g      *graph.Directed
	in     *inputs
	genS   float64
	revS   float64
	totalS float64
}

func setupEngine(a algorithm, c *runCtx) engineSetup {
	sp := c.rec.begin("setup", nil, "benchmark", "setup")
	t0 := time.Now()
	s1 := c.rec.begin("setup", sp, "graph", "gen")
	g, boys := a.build(c.smoke, c.seed)
	s1.end(map[string]int64{"nodes": int64(g.NumNodes()), "edges": g.NumEdges()})
	t1 := time.Now()
	s2 := c.rec.begin("setup", sp, "graph", "BuildIn")
	g.BuildIn()
	s2.end(nil)
	t2 := time.Now()
	in := makeInputs(g, boys, c.seed+7)
	total := time.Since(t0)
	sp.end(nil)
	return engineSetup{g: g, in: in, genS: t1.Sub(t0).Seconds(), revS: t2.Sub(t1).Seconds(), totalS: total.Seconds()}
}

// engineBench is one engine workload in progress: the algorithm and the
// inputs every arm runs on.
type engineBench struct {
	c      *runCtx
	a      algorithm
	source string
	g      *graph.Directed
	in     *inputs
	arms   []arm
}

// runArm executes one arm as one job, checks its output against the
// oracle, and, when rec is set, records it as one trace.
func (e *engineBench) runArm(ar arm, round int, rec *recorder) (armRun, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	mark := 0
	if rec != nil {
		mark = len(rec.spans)
	}
	trace := fmt.Sprintf("round%d/%s", round, ar)
	cfg := pregel.Config{NumWorkers: ar.workers, Seed: e.c.seed}
	var es engineSpans
	if rec != nil {
		cfg.Observer = &es
	}
	var run armRun
	var out any
	start := time.Now()
	root := rec.begin(trace, nil, "benchmark", "job:"+ar.String())
	if ar.generated {
		sp := rec.begin(trace, root, "core", "core.Compile")
		compiled, err := core.Compile(e.source, core.Options{})
		sp.end(nil)
		if err != nil {
			return run, fmt.Errorf("%s: compile: %w", ar, err)
		}
		b := e.a.bindings(e.in)
		sp = rec.begin(trace, root, "machine", "machine.Run")
		res, err := machine.Run(compiled.Program, e.g, b, cfg)
		sp.end(nil)
		if err != nil {
			return run, fmt.Errorf("%s: run: %w", ar, err)
		}
		es.attach(sp)
		if out, err = e.a.readGenerated(res); err != nil {
			return run, fmt.Errorf("%s: read result: %w", ar, err)
		}
		run.stats = res.Stats
	} else {
		job := e.a.newManual(e.g, e.in)
		sp := rec.begin(trace, root, "pregel", "pregel.Run")
		st, err := pregel.Run(e.g, job, cfg)
		sp.end(nil)
		if err != nil {
			return run, fmt.Errorf("%s: run: %w", ar, err)
		}
		es.attach(sp)
		out = e.a.manualOutput(job)
		run.stats = st
	}
	run.wall = time.Since(start)
	root.end(nil)
	runtime.ReadMemStats(&ms)
	run.allocs = ms.Mallocs - mallocs
	e.c.res.attempted++
	if msg := e.a.check(e.g, e.in, out); msg != "" {
		e.c.res.fail("%s: %s", trace, msg)
	}
	if rec != nil {
		spans := rec.spans[mark:]
		self := selfTimes(spans)
		run.self = map[string]int64{}
		for i, s := range spans {
			run.self[s.Layer+"/"+s.Name] += self[i]
			switch {
			case s.Layer == "pregel" && s.Name == "vertex-compute":
				run.vertexBusy += s.DurNS
			case s.Layer == "pregel" && s.Name == "run":
				run.runNS = s.DurNS
			}
		}
	}
	return run, nil
}

// round runs the four arms in rotated order and applies the cross-arm
// gate: the generated program sends exactly the traffic the hand-written
// one does (the paper's section 5.2 claim). The result is indexed like
// e.arms.
func (e *engineBench) round(r int, rec *recorder) ([]armRun, error) {
	runs := make([]armRun, len(e.arms))
	for _, i := range rotation(r, len(e.arms)) {
		run, err := e.runArm(e.arms[i], r, rec)
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	for i := 0; i < len(e.arms); i += 2 {
		gs, ms := runs[i].stats, runs[i+1].stats
		if gs.MessagesSent != ms.MessagesSent || gs.NetworkBytes != ms.NetworkBytes {
			e.c.res.fail("round%d w%d: generated sent %d msgs / %d net bytes, manual %d / %d",
				r, e.arms[i].workers, gs.MessagesSent, gs.NetworkBytes, ms.MessagesSent, ms.NetworkBytes)
		}
	}
	return runs, nil
}

// runEngine is the body of the three engine workloads.
func runEngine(name, source string, a algorithm, c *runCtx) error {
	// Set-up, several times so that setup_s is a median.
	setups := setupRuns
	if c.traced || c.smoke {
		setups = 1
	}
	var su engineSetup
	var setupS, genS, revS []float64
	for i := 0; i < setups; i++ {
		su = engineSetup{} // drop the previous graph before building the next
		runtime.GC()
		su = setupEngine(a, c)
		setupS, genS, revS = append(setupS, su.totalS), append(genS, su.genS), append(revS, su.revS)
	}
	c.res.set("setup_s", median(setupS), len(setupS))
	c.res.set("graph.gen_s", median(genS), len(genS))
	c.res.set("graph.reverse_csr_s", median(revS), len(revS))
	if err := checkPin(name, c.smoke, c.seed, pinGraph(su.g, su.in)); err != nil {
		return err
	}
	e := &engineBench{c: c, a: a, source: source, g: su.g, in: su.in,
		arms: []arm{{true, 1}, {false, 1}, {true, c.wn}, {false, c.wn}}}

	t0 := time.Now()
	a.reference(e.g, e.in)
	refS := time.Since(t0).Seconds()
	c.res.set("seq.ref_s", refS, 1)

	// Warm-up round, then timed rounds: each arm is a fixed job, and the
	// clock only decides how many rounds the medians are taken over.
	if _, err := e.round(0, nil); err != nil {
		return err
	}
	untracedFor, minRounds := c.seconds, 3
	if c.traced {
		// A traced run still needs untraced walls for the derived ratios
		// and the tracing overhead; it spends half its time on them.
		untracedFor = c.seconds / 2
	}
	if c.smoke {
		minRounds = 1
	}
	walls := make([][]float64, len(e.arms))
	var ratios []float64
	var last []armRun
	begin := time.Now()
	for r := 1; r <= minRounds || time.Since(begin).Seconds() < untracedFor; r++ {
		runs, err := e.round(r, nil)
		if err != nil {
			return err
		}
		for i, run := range runs {
			walls[i] = append(walls[i], run.wall.Seconds())
		}
		ratios = append(ratios, runs[0].wall.Seconds()/runs[1].wall.Seconds())
		last = runs
	}
	n := len(ratios)
	jobW1, manW1, jobWn, manWn := median(walls[0]), median(walls[1]), median(walls[2]), median(walls[3])
	c.res.set("op_ms", jobW1*1e3, n)
	c.res.set("rate_per_s", 1/manWn, n)
	c.res.set("job_s", jobWn, n)
	c.res.set("manual_s", manWn, n)
	c.res.set("job_w1_s", jobW1, n)
	c.res.set("manual_w1_s", manW1, n)
	c.res.set("gen_over_manual", median(ratios), n)
	c.res.set("machine.speedup_wn", jobW1/jobWn, n)
	c.res.set("machine.gen_over_manual_wn", jobWn/manWn, n)
	c.res.set("pregel.speedup_wn", manW1/manWn, n)
	c.res.set("pregel.cost_ratio", manW1/refS, n)
	genWn, manualWn := last[2].stats, last[3].stats
	c.res.set("pregel.ns_per_msg", manWn*1e9/float64(manualWn.MessagesSent), n)
	c.res.set("pregel.allocs_per_superstep", float64(last[3].allocs)/float64(manualWn.Supersteps), 1)
	c.res.set("pregel.messages", float64(manualWn.MessagesSent), 1)
	c.res.set("pregel.network_bytes", float64(manualWn.NetworkBytes), 1)
	c.res.set("pregel.supersteps_gen", float64(genWn.Supersteps), 1)
	c.res.set("pregel.supersteps_manual", float64(manualWn.Supersteps), 1)
	c.res.set("pregel.control_bytes_gen", float64(genWn.ControlBytes), 1)
	c.res.set("pregel.control_bytes_manual", float64(manualWn.ControlBytes), 1)
	c.res.set("pregel.vertex_calls_gen", float64(genWn.VertexCalls), 1)
	c.res.set("pregel.vertex_calls_manual", float64(manualWn.VertexCalls), 1)
	if !c.traced {
		return nil
	}
	untraced := 0.0
	for _, w := range walls {
		untraced += median(w)
	}
	return e.traceRounds(untraced)
}

// traceRounds runs the traced rounds: the same four arms with the span
// recorder on and the engine's own spans collected through
// Config.Observer, and derives the layer rows from their self times.
// untracedWall is the sum of the four arms' untraced medians.
func (e *engineBench) traceRounds(untracedWall float64) error {
	const rounds = 2
	c := e.c
	var tracedWall, bindS, interpS, busyS, idle, cover float64
	phaseBusy := map[string]float64{}
	for r := 0; r < rounds; r++ {
		runs, err := e.round(1000+r, c.rec)
		if err != nil {
			return err
		}
		for _, run := range runs {
			tracedWall += run.wall.Seconds()
		}
		genW1, manualW1, manualWn := runs[0], runs[1], runs[3]
		bindS += float64(genW1.self["machine/machine.Run"]) / 1e9
		interpS += float64(genW1.vertexBusy-manualW1.vertexBusy) / 1e9
		// Engine busy time on the parallel manual arm: every engine span's
		// self time except the run span, which is the wall they fill.
		var busy int64
		for key, ns := range manualWn.self {
			if phase, ok := strings.CutPrefix(key, "pregel/"); ok && phase != "run" && phase != "pregel.Run" {
				busy += ns
				phaseBusy[phase] += float64(ns) / 1e9
			}
		}
		busyS += float64(busy) / 1e9
		idle += 1 - float64(busy)/(float64(c.wn)*float64(manualWn.runNS))
		var w1Self int64
		for _, ns := range genW1.self {
			w1Self += ns
		}
		cover += float64(w1Self) / float64(genW1.wall.Nanoseconds())
	}
	c.res.set("machine.bind_s", bindS/rounds, rounds)
	c.res.set("machine.interp_s", interpS/rounds, rounds)
	c.res.set("pregel.busy_s", busyS/rounds, rounds)
	c.res.set("pregel.idle_share", idle/rounds, rounds)
	c.res.set("obs.trace_overhead", tracedWall/(rounds*untracedWall), rounds)
	c.res.set("obs.self_time_cover", cover/rounds, rounds)
	for phase, s := range phaseBusy {
		c.res.extra = append(c.res.extra, extraRow{"pregel." + phase + "_busy_s", "s", s / rounds})
	}
	return nil
}
