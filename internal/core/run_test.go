package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/machine"
	"gmpregel/internal/obs"
	"gmpregel/internal/pregel"
)

// A compiled Green-Marl program crashed at a non-checkpoint superstep
// recovers to bit-identical vertex outputs, return value, and stats.
func TestCompiledPageRankFaultRecoveryBitIdentical(t *testing.T) {
	c := compileOK(t, algorithms.PageRank, Options{})
	g := gen.TwitterLike(120, 5, 31)
	in := algorithms.MakeInputs(g, 0, 99)
	b := algorithms.Bindings("pagerank", in, algorithms.DefaultParams())
	run := func(cfg pregel.Config) (*machine.Result, []float64) {
		res, err := machine.Run(c.Program, g, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := res.NodePropFloat("pg_rank")
		if err != nil {
			t.Fatal(err)
		}
		return res, pr
	}
	base := pregel.Config{NumWorkers: 4, Seed: 12}
	res, pr := run(base)
	if res.Stats.Supersteps < 6 {
		t.Fatalf("run too short (%d supersteps) to crash mid-way", res.Stats.Supersteps)
	}

	// A vertex-compute and a steal crash at a non-checkpoint superstep
	// (5 % 4 != 0), and a torn checkpoint at 4 that the crash at 5 must
	// fall back past.
	for _, tc := range []struct {
		fp        pregel.FaultPlan
		recovered int // supersteps replayed from the checkpoint recovery used
	}{
		{pregel.FaultPlan{{Superstep: 5, Worker: 2}}, 2},
		{pregel.FaultPlan{{Superstep: 5, Worker: 2, Phase: pregel.FaultSteal}}, 2},
		{pregel.FaultPlan{{Superstep: 4, Worker: 0, Phase: pregel.FaultCheckpoint}, {Superstep: 5, Worker: 2}}, 6},
	} {
		fp := tc.fp
		faulty := base
		faulty.CheckpointEvery = 4
		faulty.Faults = fp
		fRes, fPR := run(faulty)

		if !reflect.DeepEqual(pr, fPR) {
			t.Errorf("%v: compiled PageRank ranks differ after fault recovery", fp)
		}
		if res.Stats.ReturnedIsSet != fRes.Stats.ReturnedIsSet ||
			res.Stats.ReturnedInt != fRes.Stats.ReturnedInt ||
			res.Stats.ReturnedFloat != fRes.Stats.ReturnedFloat {
			t.Errorf("%v: Returned* differ: %+v vs %+v", fp, res.Stats, fRes.Stats)
		}
		x, y := res.Stats, fRes.Stats
		y.Checkpoints, y.CheckpointBytes, y.Recoveries, y.RecoveredSupersteps = 0, 0, 0, 0
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%v: stats differ beyond recovery accounting:\nfault-free: %+v\nfaulty:     %+v", fp, x, y)
		}
		if fRes.Stats.Recoveries != 1 || fRes.Stats.RecoveredSupersteps != tc.recovered || fRes.Stats.CheckpointBytes == 0 {
			t.Errorf("%v: recovery accounting: %+v", fp, fRes.Stats)
		}
	}
}

// A multi-worker compiled SSSP run with the full observer stack attached
// — ring (skew report), JSONL stream, and metrics registry — produces a
// skew report covering every worker, vertex-compute spans labelled with
// state-machine states, a parseable trace, and valid Prometheus
// exposition.
func TestHarnessObservabilitySSSP(t *testing.T) {
	const workers = 4
	ring := obs.NewRing(1 << 16)
	var traceBuf bytes.Buffer
	jsonl := obs.NewJSONL(&traceBuf)
	reg := obs.NewRegistry()

	c := compileOK(t, algorithms.SSSP, Options{})
	spec, err := algorithms.GraphByName("twitter")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(1)
	in := algorithms.MakeInputs(g, 0, 8)
	cfg := pregel.Config{NumWorkers: workers, Seed: 1, Observer: obs.Multi(ring, jsonl, obs.NewMetricsObserver(reg))}
	res, err := machine.Run(c.Program, g, algorithms.Bindings("sssp", in, algorithms.DefaultParams()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Supersteps == 0 {
		t.Fatal("sssp did not run")
	}
	spans := ring.Spans()
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans", ring.Dropped())
	}

	// Skew report: the vertex-compute row sees all four workers, and
	// max >= median by construction.
	rep := obs.Skew(spans)
	row, ok := rep.Row("vertex-compute")
	if !ok {
		t.Fatal("skew report has no vertex-compute row")
	}
	if row.Workers != workers {
		t.Errorf("skew row covers %d workers, want %d", row.Workers, workers)
	}
	if row.MaxNS < row.MedianNS || row.Skew < 1 {
		t.Errorf("skew row inconsistent: %+v", row)
	}
	if row.MaxWorker < 0 || row.MaxWorker >= workers {
		t.Errorf("straggler index %d out of range", row.MaxWorker)
	}
	if !strings.Contains(rep.String(), "vertex-compute") {
		t.Error("rendered skew report missing vertex-compute row")
	}

	// The machine executor labels spans with state-machine state names.
	labeled := 0
	for _, s := range spans {
		if s.Phase == obs.PhaseVertexCompute && s.State != "" {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("no vertex-compute span carries a state-machine label")
	}

	// The JSONL stream parses back to exactly the ring's spans.
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.ReadJSONL(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatalf("trace stream does not parse: %v", err)
	}
	if len(decoded) != len(spans) {
		t.Errorf("JSONL has %d spans, ring has %d", len(decoded), len(spans))
	}

	// Metrics: valid Prometheus exposition with the engine families, and
	// the superstep counter agrees with the run's stats.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	exp := prom.String()
	for _, want := range []string{
		"# TYPE pregel_phase_seconds histogram",
		"# TYPE pregel_supersteps_total counter",
		fmt.Sprintf("pregel_supersteps_total %d", res.Stats.Supersteps),
		fmt.Sprintf("pregel_messages_total %d", res.Stats.MessagesSent),
		`pregel_phase_seconds_bucket{le="+Inf",phase="vertex-compute"}`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
}
