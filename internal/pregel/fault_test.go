package pregel

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// statsModuloRecovery clears the recovery-cost and resource-governance
// fields so faulty and budget-constrained runs can be compared
// against clean runs for everything else.
func statsModuloRecovery(st Stats) Stats {
	st.Checkpoints, st.CheckpointBytes, st.Recoveries, st.RecoveredSupersteps = 0, 0, 0, 0
	st.Spills, st.SpillBytes, st.MemoryPeakBytes = 0, 0, 0
	return st
}

func runMinLabel(t *testing.T, g *graph.Directed, n int, cfg Config) ([]int64, Stats) {
	t.Helper()
	return runMinLabelWidth(t, g, n, cfg, slotsExact)
}

// runMinLabelWidth is runMinLabel with the job's message types declared
// as width says: the same run at a different record width.
func runMinLabelWidth(t *testing.T, g *graph.Directed, n int, cfg Config, width slotDecl) ([]int64, Stats) {
	t.Helper()
	j := &minLabelJob{label: make([]int64, n), width: width}
	st, err := Run(g, j, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j.label, st
}

// The acceptance-criteria core: a worker crash at a non-checkpoint
// superstep rolls back, replays, and finishes with bit-identical vertex
// outputs and stats.
func TestFaultRecoveryBitIdentical(t *testing.T) {
	const n = 60
	g := gen.Ring(n)
	base := Config{NumWorkers: 4, Seed: 3}
	labels, st := runMinLabel(t, g, n, base)

	faulty := base
	faulty.CheckpointEvery = 4
	faulty.Faults = FaultPlan{{Superstep: 7, Worker: 2}}
	fLabels, fst := runMinLabel(t, g, n, faulty)

	if !reflect.DeepEqual(labels, fLabels) {
		t.Errorf("fault-injected labels differ from fault-free run")
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("fault-injected stats differ:\nfault-free: %+v\nfaulty:     %+v", a, b)
	}
	if fst.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", fst.Recoveries)
	}
	// Checkpoint at 4, crash at 7: supersteps 4..7 are re-executed.
	if fst.RecoveredSupersteps != 4 {
		t.Errorf("RecoveredSupersteps = %d, want 4", fst.RecoveredSupersteps)
	}
	if fst.CheckpointBytes == 0 || fst.Checkpoints == 0 {
		t.Errorf("checkpoint accounting empty: %+v", fst)
	}
}

func TestRepeatedCrashesRecover(t *testing.T) {
	const n = 40
	g := gen.TwitterLike(n, 4, 9)
	base := Config{NumWorkers: 3, Seed: 5}
	labels, st := runMinLabel(t, g, n, base)

	faulty := base
	faulty.CheckpointEvery = 2
	faulty.Faults = FaultPlan{
		{Superstep: 3, Worker: 1},
		{Superstep: 3, Worker: 1},
		{Superstep: 5, Worker: 0},
	}
	fLabels, fst := runMinLabel(t, g, n, faulty)
	if !reflect.DeepEqual(labels, fLabels) {
		t.Error("labels differ after repeated crashes")
	}
	if fst.Recoveries != 3 {
		t.Errorf("Recoveries = %d, want 3", fst.Recoveries)
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ after repeated crashes:\n%+v\n%+v", a, b)
	}
}

func TestRoutingCrashRecovers(t *testing.T) {
	const n = 50
	g := gen.Ring(n)
	base := Config{NumWorkers: 4, Seed: 1, TraceSteps: true}
	labels, st := runMinLabel(t, g, n, base)

	faulty := base
	faulty.CheckpointEvery = 3
	faulty.Faults = FaultPlan{{Superstep: 7, Worker: 2, Phase: FaultRouting}}
	fLabels, fst := runMinLabel(t, g, n, faulty)
	if !reflect.DeepEqual(labels, fLabels) {
		t.Error("labels differ after routing crash")
	}
	if fst.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", fst.Recoveries)
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("stats (incl. per-step trace) differ after routing crash:\n%+v\n%+v", a, b)
	}
}

// Two recoveries succeed, then both retained checkpoints are torn before
// a third crash: the run fails cleanly, keeping the recovery bill and the
// partial Stats of what it committed.
func TestRecoveryWithoutValidCheckpointFailsCleanly(t *testing.T) {
	const n = 20
	g := gen.Ring(n)
	cfg := Config{
		NumWorkers:      2,
		Seed:            1,
		CheckpointEvery: 2,
		Faults: FaultPlan{
			{Superstep: 1, Worker: 0}, {Superstep: 1, Worker: 0},
			{Superstep: 2, Worker: 0, Phase: FaultCheckpoint},
			{Superstep: 4, Worker: 0, Phase: FaultCheckpoint},
			{Superstep: 5, Worker: 0},
		},
	}
	j := &minLabelJob{label: make([]int64, n)}
	st, err := Run(g, j, cfg)
	if err == nil || !strings.Contains(err.Error(), "no valid fallback") {
		t.Fatalf("err = %v, want the no-valid-checkpoint failure", err)
	}
	if st.Recoveries != 2 {
		t.Errorf("Recoveries = %d, want 2 (before the checkpoints were torn)", st.Recoveries)
	}
	if st.Supersteps == 0 {
		t.Errorf("partial stats lost: %+v", st)
	}
}

// A plan entry that could never fire as written fails the run before
// superstep 0 with an error naming the entry, instead of indexing a
// worker out of range or being silently ignored.
func TestMalformedFaultPlanRejected(t *testing.T) {
	const n = 20
	g := gen.Ring(n)
	ok := Fault{Superstep: 1, Worker: 0, Phase: FaultVertexCompute}
	for _, tc := range []struct {
		name string
		bad  Fault
		want string
	}{
		{"negative-worker", Fault{Superstep: 2, Worker: -1, Phase: FaultVertexCompute}, "negative worker -1"},
		{"negative-worker-routing", Fault{Superstep: 2, Worker: -3, Phase: FaultRouting}, "negative worker -3"},
		{"unarmable-phase", Fault{Superstep: 2, Worker: 1, Phase: FaultCheckpoint + 1}, "unknown phase"},
		{"unknown-phase", Fault{Superstep: 2, Worker: 1, Phase: FaultPhase(42)}, "unknown phase fault-phase(42)"},
		{"negative-superstep", Fault{Superstep: -1, Worker: 1, Phase: FaultVertexCompute}, "negative superstep -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := &minLabelJob{label: make([]int64, n)}
			st, err := Run(g, j, Config{NumWorkers: 2, Seed: 1, Faults: FaultPlan{ok, tc.bad}})
			if err == nil {
				t.Fatalf("malformed plan accepted (Recoveries = %d)", st.Recoveries)
			}
			if msg := err.Error(); !strings.Contains(msg, "entry 1") || !strings.Contains(msg, tc.want) {
				t.Errorf("error %q does not name entry 1 and %q", msg, tc.want)
			}
			if st.Supersteps != 0 || st.Recoveries != 0 {
				t.Errorf("run started before rejecting the plan: %+v", st)
			}
		})
	}
}

func TestFaultWithoutCheckpointIntervalUsesInitialCheckpoint(t *testing.T) {
	// CheckpointEvery unset: the fault plan alone forces a superstep-0
	// checkpoint and recovery replays from the start.
	const n = 30
	g := gen.Ring(n)
	base := Config{NumWorkers: 3, Seed: 2}
	labels, st := runMinLabel(t, g, n, base)

	faulty := base
	faulty.Faults = FaultPlan{{Superstep: 6, Worker: 1}}
	fLabels, fst := runMinLabel(t, g, n, faulty)
	if !reflect.DeepEqual(labels, fLabels) {
		t.Error("labels differ")
	}
	if fst.Recoveries != 1 || fst.RecoveredSupersteps != 7 {
		t.Errorf("recovery cost = %d/%d, want 1/7", fst.Recoveries, fst.RecoveredSupersteps)
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ:\n%+v\n%+v", a, b)
	}
}

// rngJob draws from both the per-worker and the master RNG every
// superstep and records the streams in job state, so a recovery that
// fails to restore RNG positions is caught bit-for-bit.
type rngJob struct {
	steps  int
	Draws  [][]int64      // per vertex, one draw per superstep
	Picked []graph.NodeID // master PickRandomNode per superstep
}

func (j *rngJob) Schema() Schema { return Schema{} }

func (j *rngJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() >= j.steps {
		mc.Halt()
		return
	}
	j.Picked = append(j.Picked, mc.PickRandomNode())
}

func (j *rngJob) VertexCompute(vc *VertexContext) {
	v := vc.ID()
	j.Draws[v] = append(j.Draws[v], int64(vc.Rand().Intn(1_000_000)))
}

func (j *rngJob) SnapshotState() []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		Draws  [][]int64
		Picked []graph.NodeID
	}{j.Draws, j.Picked}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func (j *rngJob) RestoreState(b []byte) {
	var s struct {
		Draws  [][]int64
		Picked []graph.NodeID
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&s); err != nil {
		panic(err)
	}
	if s.Draws == nil {
		s.Draws = make([][]int64, len(j.Draws))
	}
	j.Draws, j.Picked = s.Draws, s.Picked
}

func TestRNGPositionsRestoredAcrossRecovery(t *testing.T) {
	const n, steps = 24, 10
	g := gen.Ring(n)
	run := func(cfg Config) *rngJob {
		j := &rngJob{steps: steps, Draws: make([][]int64, n)}
		if _, err := Run(g, j, cfg); err != nil {
			t.Fatal(err)
		}
		return j
	}
	base := Config{NumWorkers: 4, Seed: 77}
	clean := run(base)

	faulty := base
	faulty.CheckpointEvery = 3
	faulty.Faults = FaultPlan{{Superstep: 5, Worker: 1}, {Superstep: 8, Worker: 3}}
	recovered := run(faulty)

	if !reflect.DeepEqual(clean.Picked, recovered.Picked) {
		t.Errorf("master RNG stream differs:\nclean:     %v\nrecovered: %v", clean.Picked, recovered.Picked)
	}
	if !reflect.DeepEqual(clean.Draws, recovered.Draws) {
		t.Error("worker RNG streams differ after recovery")
	}
}

// Checkpoint encode/decode round-trips the full engine state.
func TestCheckpointStateRoundTrip(t *testing.T) {
	const n = 30
	g := gen.TwitterLike(n, 4, 6)
	j := &minLabelJob{label: make([]int64, n)}
	cfg := Config{NumWorkers: 3, Seed: 4, TraceSteps: true, CheckpointEvery: 1}.withDefaults()
	e := newEngine(g, j, cfg)
	defer e.stop()
	// Advance a few supersteps so there is nontrivial state to snapshot;
	// the max-supersteps abort is the expected way out.
	e.cfg.MaxSupersteps = 5
	if err := e.loop(context.Background()); err == nil {
		t.Fatal("want max-supersteps error, got nil")
	}
	data := e.encodeState()
	if err := e.decodeState(data); err != nil {
		t.Fatalf("decode of freshly encoded state failed: %v", err)
	}
	if again := e.encodeState(); !bytes.Equal(data, again) {
		t.Error("encode→decode→encode is not a fixed point")
	}
	// Corruption is detected, not silently accepted.
	if err := e.decodeState(data[:len(data)/2]); err == nil {
		t.Error("truncated checkpoint decoded without error")
	}
}
