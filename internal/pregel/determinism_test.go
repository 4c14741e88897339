package pregel

import (
	"reflect"
	"sort"
	"testing"

	"gmpregel/internal/graph/gen"
)

// aggDetJob contributes to an AggAny, AggMin, and AggMax slot each
// superstep and records the merged values the master observes.
type aggDetJob struct {
	steps    int
	Observed [][3]int64 // per superstep: any, min, max(bits of float)
}

func (j *aggDetJob) Schema() Schema {
	return Schema{Aggregators: []AggSpec{
		{Name: "any", Kind: AggKindInt, Op: AggAny},
		{Name: "min", Kind: AggKindInt, Op: AggMin},
		{Name: "max", Kind: AggKindFloat, Op: AggMax},
	}}
}

func (j *aggDetJob) MasterCompute(mc *MasterContext) {
	if s := mc.Superstep(); s > 0 {
		j.Observed = append(j.Observed, [3]int64{
			mc.AggInt(0), mc.AggInt(1), int64(floatBits(mc.AggFloat(2))),
		})
		if s >= j.steps {
			mc.Halt()
		}
	}
}

func (j *aggDetJob) VertexCompute(vc *VertexContext) {
	v := int64(vc.ID())
	vc.AggInt(0, v*31+int64(vc.Superstep()))
	vc.AggInt(1, v-7)
	vc.AggFloat(2, float64(v)*1.5)
}

// For each worker count: two identical runs produce identical Stats and
// identical merged aggregator sequences. Across worker counts, the
// partition-invariant reductions (AggMin/AggMax) agree; AggAny is only
// required to be deterministic per configuration (its winner depends on
// the partitioning by design).
func TestAggregatorReductionDeterminism(t *testing.T) {
	const n, steps = 53, 6
	g := gen.TwitterLike(n, 5, 13)
	run := func(w int) (*aggDetJob, Stats) {
		j := &aggDetJob{steps: steps}
		st, err := Run(g, j, Config{NumWorkers: w, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		return j, st
	}
	type outcome struct {
		job *aggDetJob
		st  Stats
	}
	byW := map[int]outcome{}
	for _, w := range workerCounts() {
		a, ast := run(w)
		b, bst := run(w)
		if !reflect.DeepEqual(ast, bst) {
			t.Errorf("W=%d: stats differ across identical runs:\n%+v\n%+v", w, ast, bst)
		}
		if !reflect.DeepEqual(a.Observed, b.Observed) {
			t.Errorf("W=%d: aggregator sequences differ across identical runs", w)
		}
		byW[w] = outcome{a, ast}
	}
	ref := byW[1]
	for _, w := range workerCounts() {
		o := byW[w]
		if len(o.job.Observed) != len(ref.job.Observed) {
			t.Fatalf("W=%d: %d observations, want %d", w, len(o.job.Observed), len(ref.job.Observed))
		}
		for s := range o.job.Observed {
			if o.job.Observed[s][1] != ref.job.Observed[s][1] || o.job.Observed[s][2] != ref.job.Observed[s][2] {
				t.Errorf("W=%d step %d: min/max not partition-invariant: %v vs %v",
					w, s, o.job.Observed[s], ref.job.Observed[s])
			}
		}
		if o.st.Supersteps != ref.st.Supersteps || o.st.MessagesSent != ref.st.MessagesSent ||
			o.st.VertexCalls != ref.st.VertexCalls {
			t.Errorf("W=%d: semantic counters differ from W=1: %+v vs %+v", w, o.st, ref.st)
		}
	}
}

// routeMessages inbox ordering: per worker count the received payload
// sequence is identical across runs, and across worker counts the
// multiset of delivered messages is invariant.
func TestInboxOrderDeterminismAcrossWorkerCounts(t *testing.T) {
	const n = 47
	g := gen.TwitterLike(n, 6, 19)
	run := func(w int) [][]int64 {
		j := &orderAllJob{order: make([][]int64, n)}
		if _, err := Run(g, j, Config{NumWorkers: w, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		return j.order
	}
	var ref [][]int64
	for _, w := range workerCounts() {
		a, b := run(w), run(w)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("W=%d: inbox order differs across identical runs", w)
		}
		sorted := make([][]int64, n)
		for v := range a {
			s := append([]int64(nil), a[v]...)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			sorted[v] = s
		}
		if ref == nil {
			ref = sorted
		} else if !reflect.DeepEqual(ref, sorted) {
			t.Errorf("W=%d: delivered message multiset not partition-invariant", w)
		}
	}
}

// Vertex outputs of a partition-independent job (min-label) are
// bit-identical across the full worker grid.
func TestVertexOutputsInvariantAcrossWorkerCounts(t *testing.T) {
	const n = 80
	g := gen.TwitterLike(n, 5, 23)
	var ref []int64
	for _, w := range workerCounts() {
		labels, _ := runMinLabel(t, g, n, Config{NumWorkers: w, Seed: 8})
		if ref == nil {
			ref = labels
		} else if !reflect.DeepEqual(ref, labels) {
			t.Errorf("W=%d: min-label outputs differ from W=1", w)
		}
	}
}

// The scheduling determinism criterion: inside every (worker count,
// partitioner) group of the schedule lattice, Stats, merged aggregator
// sequences and outputs are bit-identical to the one-chunk-per-worker
// reference across every chunk size — chunked execution and work
// stealing are pure scheduling changes. Outputs also agree across
// groups. (The jobs here use int and float-min/max aggregators; float
// AggSum is the one reduction whose bits may vary with chunk geometry,
// documented in docs/ENGINE.md.)
func TestSchedulingDeterminism(t *testing.T) {
	const n, steps = 53, 6
	g := gen.TwitterLike(n, 5, 13)
	var labelRef []int64 // across groups too
	for _, group := range scheduleGroups(Config{Seed: 21, TraceSteps: true}) {
		var refStats, refLabelStats Stats
		var refObs [][3]int64
		var refLabels []int64
		for i, cfg := range group {
			j := &aggDetJob{steps: steps}
			st, err := Run(g, j, cfg)
			if err != nil {
				t.Fatal(err)
			}
			labels, lst := runMinLabel(t, g, n, cfg)
			if i == 0 {
				refStats, refObs, refLabels, refLabelStats = st, j.Observed, labels, lst
				continue
			}
			name := scheduleName(cfg)
			if !reflect.DeepEqual(st, refStats) {
				t.Errorf("%s: Stats differ from the one-chunk reference:\n%+v\n%+v", name, st, refStats)
			}
			if !reflect.DeepEqual(j.Observed, refObs) {
				t.Errorf("%s: aggregator sequences differ from the one-chunk reference", name)
			}
			if !reflect.DeepEqual(labels, refLabels) {
				t.Errorf("%s: min-label outputs differ from the one-chunk reference", name)
			}
			if !reflect.DeepEqual(lst, refLabelStats) {
				t.Errorf("%s: min-label Stats differ from the one-chunk reference:\n%+v\n%+v", name, lst, refLabelStats)
			}
		}
		if labelRef == nil {
			labelRef = refLabels
		} else if !reflect.DeepEqual(labelRef, refLabels) {
			t.Errorf("%s: min-label outputs differ across lattice groups", scheduleName(group[0]))
		}
	}
}

// The degree-aware partitioner changes vertex placement, not semantics:
// outputs and the partition-invariant counters match mod partitioning
// for every worker count, and a degree-partitioned run is itself
// bit-reproducible.
func TestDegreePartitionerDeterminism(t *testing.T) {
	const n = 80
	g := gen.TwitterLike(n, 5, 23)
	for _, w := range workerCounts() {
		mod := Config{NumWorkers: w, Seed: 8}
		deg := Config{NumWorkers: w, Seed: 8, Partitioner: PartitionDegree}
		mLabels, mSt := runMinLabel(t, g, n, mod)
		dLabels, dSt := runMinLabel(t, g, n, deg)
		dLabels2, dSt2 := runMinLabel(t, g, n, deg)
		if !reflect.DeepEqual(dLabels, dLabels2) || !reflect.DeepEqual(dSt, dSt2) {
			t.Errorf("W=%d: degree-partitioned run not reproducible", w)
		}
		if !reflect.DeepEqual(mLabels, dLabels) {
			t.Errorf("W=%d: degree-partitioned outputs differ from mod", w)
		}
		// Placement-dependent counters (network vs local bytes) may differ;
		// the semantic ones must not.
		if mSt.Supersteps != dSt.Supersteps || mSt.MessagesSent != dSt.MessagesSent ||
			mSt.VertexCalls != dSt.VertexCalls || mSt.ControlBytes != dSt.ControlBytes {
			t.Errorf("W=%d: semantic counters differ under degree partitioning:\nmod:    %+v\ndegree: %+v",
				w, mSt, dSt)
		}
		if mSt.NetworkBytes+mSt.LocalBytes != dSt.NetworkBytes+dSt.LocalBytes {
			t.Errorf("W=%d: total message bytes differ under degree partitioning", w)
		}
	}
}

// Crash-recovery replay stays bit-identical under the chunked, stealing
// scheduler (including with degree partitioning): the mid-phase crash
// leaves partially-executed chunks behind, and rollback must fully
// rebuild chunk state from the checkpoint.
func TestFaultRecoveryBitIdenticalChunked(t *testing.T) {
	const n = 60
	g := gen.TwitterLike(n, 4, 11)
	for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
		base := Config{NumWorkers: 4, Seed: 3, TraceSteps: true, ChunkSize: 16, Partitioner: part}
		labels, st := runMinLabel(t, g, n, base)

		faulty := base
		faulty.CheckpointEvery = 3
		faulty.Faults = FaultPlan{
			{Superstep: 2, Worker: 1},
			{Superstep: 4, Worker: 3},
		}
		fLabels, fst := runMinLabel(t, g, n, faulty)
		if !reflect.DeepEqual(labels, fLabels) {
			t.Errorf("part=%d: fault-injected labels differ from fault-free chunked run", part)
		}
		if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
			t.Errorf("part=%d: fault-injected stats differ:\nfault-free: %+v\nfaulty:     %+v", part, a, b)
		}
		if fst.Recoveries != 2 {
			t.Errorf("part=%d: Recoveries = %d, want 2", part, fst.Recoveries)
		}
	}
}

// orderAllJob records every vertex's received payloads in arrival order
// for two message waves.
type orderAllJob struct {
	order [][]int64
}

func (j *orderAllJob) Schema() Schema {
	return Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{1}}
}
func (j *orderAllJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() == 3 {
		mc.Halt()
	}
}
func (j *orderAllJob) VertexCompute(vc *VertexContext) {
	for _, m := range vc.Messages() {
		j.order[vc.ID()] = append(j.order[vc.ID()], m.Int(0))
	}
	if vc.Superstep() < 2 {
		var m Msg
		m.SetInt(0, int64(vc.ID())*100+int64(vc.Superstep()))
		vc.SendToAllNbrs(m)
	}
}
