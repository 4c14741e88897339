package pregel

import (
	"reflect"
	"testing"

	"gmpregel/internal/graph/gen"
)

// Crash-during-routing recovery: with the count pass overlapped into
// the vertex phase, a routing fault — after the barrier merged the
// superstep and the shards were counted, before anything is routed —
// must still roll back and replay to a bit-identical result.
func TestEagerRoutingCrashRecovery(t *testing.T) {
	const n = 50
	g := gen.TwitterLike(n, 4, 9)
	base := Config{NumWorkers: 4, Seed: 7, TraceSteps: true}
	labels, st := runMinLabel(t, g, n, base)

	t.Run(FaultRouting.String(), func(t *testing.T) {
		faulty := base
		faulty.CheckpointEvery = 3
		faulty.Faults = FaultPlan{{Superstep: 4, Worker: 2, Phase: FaultRouting}}
		fLabels, fst := runMinLabel(t, g, n, faulty)
		if !reflect.DeepEqual(labels, fLabels) {
			t.Error("labels differ after routing crash")
		}
		if fst.Recoveries != 1 {
			t.Errorf("Recoveries = %d, want 1", fst.Recoveries)
		}
		if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
			t.Errorf("stats (incl. per-step trace) differ after routing crash:\nclean:  %+v\nfaulty: %+v", a, b)
		}
	})

	// The same crash while a checkpoint is also being torn: recovery must
	// fall back past the corrupt snapshot and still converge identically.
	faulty := base
	faulty.CheckpointEvery = 2
	faulty.Faults = FaultPlan{
		{Superstep: 4, Worker: 1, Phase: FaultCheckpoint},
		{Superstep: 5, Worker: 2, Phase: FaultRouting},
	}
	fLabels, fst := runMinLabel(t, g, n, faulty)
	if !reflect.DeepEqual(labels, fLabels) {
		t.Error("labels differ after torn-checkpoint + routing crash")
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ after torn-checkpoint + routing crash:\n%+v\n%+v", a, b)
	}
	if fst.Recoveries == 0 {
		t.Error("no recovery recorded")
	}
}
