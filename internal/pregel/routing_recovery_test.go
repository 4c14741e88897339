package pregel

import (
	"reflect"
	"testing"

	"gmpregel/internal/graph/gen"
)

// Crash-during-routing recovery: a routing fault — after the barrier
// merged the superstep, before anything is routed — must roll back and
// replay to a bit-identical result.
func TestRoutingCrashRecovery(t *testing.T) {
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

// Routing above eight workers: every worker is its own source in the
// canonical (source worker, chunk, emission) order, at any W. At W 9
// and 16, beyond the lattice's worker counts, under both partitioners,
// the halting min-label job, the two-type wideJob and the folded job
// reproduce their one-chunk reference's Stats, outputs and checkpoint
// frames at every chunk size.
func TestRoutingBeyondEightWorkers(t *testing.T) {
	const n = 97
	g := gen.TwitterLike(n, 5, 13)
	subjects := []struct {
		name string
		run  func(cfg Config) widthRun
	}{
		{"minlabel", func(cfg Config) widthRun {
			j := &minLabelJob{label: make([]int64, n)}
			return runForWidth(t, g, j, j.label, cfg)
		}},
		{"wide", func(cfg Config) widthRun {
			j := newWideJob(n, slotsExact)
			return runForWidth(t, g, j, [2]any{j.fsum, j.isum}, cfg)
		}},
		{"fold", func(cfg Config) widthRun {
			j := newFoldJob(n, 8, true)
			return runForWidth(t, g, j, j.outputs(), cfg)
		}},
	}
	for _, w := range []int{9, 16} {
		for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
			for _, sub := range subjects {
				var ref widthRun
				for i, chunk := range []int{oneChunk, 0, 1, 16} {
					cfg := Config{NumWorkers: w, Partitioner: part, ChunkSize: chunk,
						Seed: 21, TraceSteps: true, CheckpointEvery: 2}
					got := sub.run(cfg)
					if i == 0 {
						if ref = got; ref.stats.MessagesSent == 0 || ref.last == nil {
							t.Fatalf("%s %s: no message sent or no checkpoint taken", sub.name, scheduleName(cfg))
						}
						continue
					}
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("%s %s: Stats, outputs or checkpoint frames differ from the one-chunk reference:\n%+v\n%+v",
							sub.name, scheduleName(cfg), got.stats, ref.stats)
					}
				}
			}
		}
	}
}
