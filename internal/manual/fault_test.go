package manual

import (
	"reflect"
	"testing"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/pregel"
)

func modRecovery(st pregel.Stats) pregel.Stats {
	st.Checkpoints, st.CheckpointBytes, st.Recoveries, st.RecoveredSupersteps = 0, 0, 0, 0
	return st
}

// SSSP with unit edge lengths is BFS; a worker crash at a non-checkpoint
// superstep must recover to bit-identical distances and stats.
func TestSSSPFaultRecoveryBitIdentical(t *testing.T) {
	const n = 100
	g := gen.Ring(n)
	lens := make([]int64, g.NumEdges())
	for i := range lens {
		lens[i] = 1
	}
	run := func(cfg pregel.Config) ([]int64, pregel.Stats) {
		j := &SSSP{Root: 0, Len: lens, Dist: make([]int64, n)}
		st, err := pregel.Run(g, j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return j.Dist, st
	}
	base := pregel.Config{NumWorkers: 4, Seed: 11}
	dist, st := run(base)

	faulty := base
	faulty.CheckpointEvery = 4
	faulty.Faults = pregel.FaultPlan{{Superstep: 7, Worker: 1}}
	fDist, fst := run(faulty)

	if !reflect.DeepEqual(dist, fDist) {
		t.Error("BFS distances differ after fault recovery")
	}
	if a, b := modRecovery(st), modRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ:\nfault-free: %+v\nfaulty:     %+v", a, b)
	}
	if fst.Recoveries != 1 || fst.CheckpointBytes == 0 {
		t.Errorf("recovery accounting: %+v", fst)
	}
}

// PageRank crash-and-recover in every fault phase: a vertex-compute, a
// routing and a steal crash, and a torn checkpoint paired with a later
// crash that must fall back past it. The job folds its messages and
// snapshots its ranks, so recovery restores both.
func TestPageRankFaultRecoveryBitIdentical(t *testing.T) {
	const n = 80
	g := gen.TwitterLike(n, 5, 17)
	run := func(cfg pregel.Config) ([]float64, pregel.Stats) {
		j := &PageRank{Eps: 1e-9, D: 0.85, MaxIter: 12, PR: make([]float64, n)}
		st, err := pregel.Run(g, j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return j.PR, st
	}
	base := pregel.Config{NumWorkers: 4, Seed: 9}
	pr, st := run(base)

	for _, tc := range []struct {
		fp        pregel.FaultPlan
		recovered int // supersteps replayed from the checkpoint recovery used
	}{
		{pregel.FaultPlan{{Superstep: 6, Worker: 2}}, 1},
		{pregel.FaultPlan{{Superstep: 5, Worker: 3, Phase: pregel.FaultRouting}}, 3},
		{pregel.FaultPlan{{Superstep: 4, Worker: 1, Phase: pregel.FaultSteal}}, 2},
		// The snapshot at 3 is torn, so the crash at 4 replays from 0.
		{pregel.FaultPlan{{Superstep: 3, Worker: 0, Phase: pregel.FaultCheckpoint}, {Superstep: 4, Worker: 2}}, 5},
	} {
		fp := tc.fp
		faulty := base
		faulty.CheckpointEvery = 3
		faulty.Faults = fp
		fPR, fst := run(faulty)
		if !reflect.DeepEqual(pr, fPR) {
			t.Errorf("%v: PageRank vectors differ after recovery", fp)
		}
		if a, b := modRecovery(st), modRecovery(fst); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: stats differ:\n%+v\n%+v", fp, a, b)
		}
		if fst.Recoveries != 1 || fst.RecoveredSupersteps != tc.recovered {
			t.Errorf("%v: Recoveries/RecoveredSupersteps = %d/%d, want 1/%d",
				fp, fst.Recoveries, fst.RecoveredSupersteps, tc.recovered)
		}
	}
}

// Bipartite matching exercises the master-side accumulators
// (Count, lastRoundEmpty) and the random-free handshake state across a
// rollback that spans a round boundary.
func TestBipartiteFaultRecoveryBitIdentical(t *testing.T) {
	const boys, girls = 30, 30
	n := boys + girls
	var edges []graph.Edge
	for b := 0; b < boys; b++ {
		for k := 0; k < 3; k++ {
			gIdx := graph.NodeID(boys + (b*7+k*11)%girls)
			edges = append(edges, graph.Edge{Src: graph.NodeID(b), Dst: gIdx})
			edges = append(edges, graph.Edge{Src: gIdx, Dst: graph.NodeID(b)})
		}
	}
	g := graph.FromEdges(n, edges)
	isBoy := make([]bool, n)
	for b := 0; b < boys; b++ {
		isBoy[b] = true
	}
	run := func(cfg pregel.Config) ([]graph.NodeID, int64, pregel.Stats) {
		j := &Bipartite{IsBoy: isBoy, Match: make([]graph.NodeID, n)}
		st, err := pregel.Run(g, j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return j.Match, j.Count, st
	}
	base := pregel.Config{NumWorkers: 3, Seed: 6}
	match, count, st := run(base)

	faulty := base
	faulty.CheckpointEvery = 2
	faulty.Faults = pregel.FaultPlan{{Superstep: 5, Worker: 0}}
	fMatch, fCount, fst := run(faulty)
	if !reflect.DeepEqual(match, fMatch) || count != fCount {
		t.Error("matching differs after recovery")
	}
	if a, b := modRecovery(st), modRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ:\n%+v\n%+v", a, b)
	}
}

// Snapshot/Restore of each manual job round-trips its mutable state.
func TestManualSnapshotsRoundTrip(t *testing.T) {
	ct := &Conductance{Num: 1, inNbrs: [][]graph.NodeID{{2, 3}, nil}, din: 4, dout: 5, Result: 0.5}
	snap := ct.SnapshotState()
	ct2 := &Conductance{Num: 1}
	ct2.RestoreState(snap)
	if !reflect.DeepEqual(ct.inNbrs, ct2.inNbrs) || ct2.din != 4 || ct2.dout != 5 || ct2.Result != 0.5 {
		t.Error("Conductance snapshot did not round-trip")
	}

	av := &AvgTeen{TeenCnt: []int64{1, 2, 3}, Avg: 2.5}
	av2 := &AvgTeen{TeenCnt: make([]int64, 3)}
	dst := av2.TeenCnt
	av2.RestoreState(av.SnapshotState())
	if !reflect.DeepEqual(av2.TeenCnt, av.TeenCnt) || av2.Avg != 2.5 {
		t.Error("AvgTeen snapshot did not round-trip")
	}
	// Same-length restores write through the existing slice so callers
	// holding a reference observe the rewind.
	if &dst[0] != &av2.TeenCnt[0] {
		t.Error("restore replaced a same-length output slice")
	}
}
