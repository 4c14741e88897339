package pregel

import (
	"reflect"
	"testing"

	"gmpregel/internal/graph/gen"
)

// Crash-during-routing recovery: with the count pass overlapped into
// the vertex phase, every routing-family fault must still roll back and
// replay to a bit-identical result. FaultRouteCount fires inside the
// overlapped count (as shard 0's outboxes are counted into the target
// worker's staging row); like the prefix and place faults it is
// collected at the routing barrier.
func TestEagerRoutingCrashRecovery(t *testing.T) {
	const n = 50
	g := gen.TwitterLike(n, 4, 9)
	base := Config{NumWorkers: 4, Seed: 7, TraceSteps: true}
	labels, st := runMinLabel(t, g, n, base)

	// The count fault is raised by the overlapped count itself: it is
	// pending as soon as the vertex phase returns, before any post-barrier
	// routing dispatch has run.
	armed := base
	armed.Faults = FaultPlan{{Superstep: 0, Worker: 2, Phase: FaultRouteCount}}
	e := newEngine(g, &minLabelJob{label: make([]int64, n)}, armed.withDefaults())
	e.armVertexFault(0)
	e.runVertexPhase(0)
	if f := e.workers[2].routeErr; f == nil || f.Phase != FaultRouteCount {
		t.Errorf("route-count fault after the vertex phase = %v, want it raised by the count", f)
	}
	e.stop()

	for _, phase := range []FaultPhase{FaultRouteCount, FaultRoutePrefix, FaultRoutePlace, FaultRouting} {
		t.Run(phase.String(), func(t *testing.T) {
			faulty := base
			faulty.CheckpointEvery = 3
			faulty.Faults = FaultPlan{{Superstep: 4, Worker: 2, Phase: phase}}
			fLabels, fst := runMinLabel(t, g, n, faulty)
			if !reflect.DeepEqual(labels, fLabels) {
				t.Errorf("labels differ after routing %s crash", phase)
			}
			if fst.Recoveries != 1 {
				t.Errorf("Recoveries = %d, want 1", fst.Recoveries)
			}
			if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
				t.Errorf("stats (incl. per-step trace) differ after %s crash:\nclean:  %+v\nfaulty: %+v",
					phase, a, b)
			}
		})
	}

	// The same crash while a checkpoint is also being torn: recovery must
	// fall back past the corrupt snapshot and still converge identically.
	faulty := base
	faulty.CheckpointEvery = 2
	faulty.Faults = FaultPlan{
		{Superstep: 4, Worker: 1, Phase: FaultCheckpoint},
		{Superstep: 5, Worker: 2, Phase: FaultRoutePrefix},
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
