package pregel

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// foldJob is the delivery-fold subject: a float sum (type 0) and an int
// min (type 1), both foldable, next to an unfolded two-slot type (2), so
// records are 24 bytes and folded messages land in scratch that a wider
// message dirtied. Both foldable types are broadcast to the
// out-neighbours and also sent point to point, some of the sums on
// either side of the broadcast. Every vertex votes to halt each
// superstep, so only delivered messages — folded ones included — bring
// it back. folds is the schema's Folds; with it nil the same handlers
// see every message one by one. perEdge replaces every SendToAllNbrs
// with a loop of Send over the out-neighbours.
type foldJob struct {
	folds   []*Fold
	perEdge bool
	steps   int
	rank    []float64
	label   []int64
	isum    []int64
	bad     []bool // Messages() broke the folded-first order or carried a stray slot
}

var (
	sumFold   = &Fold{Op: AggSum, Kind: AggKindFloat}
	minFold   = &Fold{Op: AggMin, Kind: AggKindInt}
	bothFolds = []*Fold{sumFold, minFold, nil}
)

// newFoldJob returns a foldJob that folds both foldable types, or none.
func newFoldJob(n, steps int, fold bool) *foldJob {
	j := &foldJob{steps: steps, rank: make([]float64, n), label: make([]int64, n),
		isum: make([]int64, n), bad: make([]bool, n)}
	if fold {
		j.folds = bothFolds
	}
	return j
}

func (j *foldJob) outputs() any { return [4]any{j.rank, j.label, j.isum, j.bad} }

func (j *foldJob) Schema() Schema {
	return Schema{MessagePayloadBytes: []int{8, 8, 12}, MessageSlots: []int{1, 1, 2}, Folds: j.folds}
}

func (j *foldJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() >= j.steps {
		mc.Halt()
	}
}

func (j *foldJob) VertexCompute(vc *VertexContext) {
	v, step, n := vc.ID(), vc.Superstep(), vc.NumNodes()
	changed := step == 0
	if changed {
		j.label[v] = int64(v)
	}
	sum, lead := 0.0, 0
	msgs := vc.Messages()
	for i, m := range msgs {
		if j.folds != nil && j.folds[m.Type] != nil {
			// Folded messages come first, at most one per type, in type
			// order, addressed to v and with nothing beyond their one slot.
			if i != lead || i > 0 && msgs[i-1].Type >= m.Type || m.V[1]|m.V[2]|m.V[3] != 0 || m.Dst != v {
				j.bad[v] = true
			}
			lead++
		}
		switch m.Type {
		case 0:
			sum += m.Float(0)
		case 1:
			if m.Int(0) < j.label[v] {
				j.label[v], changed = m.Int(0), true
			}
		case 2:
			j.isum[v] += int64(m.Node(0)) * m.Int(1)
		}
	}
	// The rank keeps its past (a halted vertex's sums are not lost when
	// it next wakes without one), so every sum ever folded reaches the
	// output.
	j.rank[v] = 0.15/float64(n) + 0.85*(sum+j.rank[v])
	if d := vc.OutDegree(); step%2 == 0 && d > 0 {
		var m Msg
		// The 1/(v+1) term varies the mantissas, so that a sum folded
		// out of order would round differently.
		m.SetFloat(0, j.rank[v]/float64(d)+1/float64(v+1))
		if v%4 == 1 {
			vc.Send(graph.NodeID((int(v)*3+2)%n), m)
		}
		j.sendToAllNbrs(vc, m)
		if v%3 == 1 {
			vc.Send(vc.OutNbrs()[d-1], m)
		}
	}
	if changed {
		m := Msg{Type: 1}
		m.SetInt(0, j.label[v])
		j.sendToAllNbrs(vc, m)
		vc.Send(graph.NodeID((int(v)*5+1)%n), m)
	}
	if v%3 == 0 {
		m := Msg{Type: 2}
		m.SetNode(0, v)
		m.SetInt(1, int64(step)+1)
		vc.Send(graph.NodeID((int(v)*7+3)%n), m)
	}
	vc.VoteToHalt()
}

// sendToAllNbrs sends m to every out-neighbour: by SendToAllNbrs, or
// under perEdge by its per-edge twin.
func (j *foldJob) sendToAllNbrs(vc *VertexContext, m Msg) {
	if !j.perEdge {
		vc.SendToAllNbrs(m)
		return
	}
	for _, u := range vc.OutNbrs() {
		vc.Send(u, m)
	}
}

func (j *foldJob) SnapshotState() []byte {
	b := make([]byte, 0, 17*len(j.rank))
	for v := range j.rank {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(j.rank[v]))
		b = binary.LittleEndian.AppendUint64(b, uint64(j.label[v]))
		b = binary.LittleEndian.AppendUint64(b, uint64(j.isum[v]))
	}
	return b
}

func (j *foldJob) RestoreState(b []byte) {
	for v := range j.rank {
		j.rank[v] = math.Float64frombits(binary.LittleEndian.Uint64(b[24*v:]))
		j.label[v] = int64(binary.LittleEndian.Uint64(b[24*v+8:]))
		j.isum[v] = int64(binary.LittleEndian.Uint64(b[24*v+16:]))
	}
}

// Declaring the folds changes what is delivered, never what is computed
// or billed: at every point of the schedule lattice the folded job ends
// with the outputs and Stats (per-step trace included) of the same job
// whose handlers see every message, bit for bit — its float sum starts
// at zero and its min is exact — and every vertex saw its folded
// messages first, in type order, with no stray slots. The folded job
// runs broadcasting, which takes the broadcast loop, and per edge, where
// folding the sum alone or the min alone takes the engine's one-fold
// loops and folding both takes the general one.
func TestFoldDeliveryMatchesHandlerAcrossLattice(t *testing.T) {
	const n = 53
	g := gen.TwitterLike(n, 5, 13)
	variants := []struct {
		name  string
		folds []*Fold
	}{
		{"both", bothFolds},
		{"sum", []*Fold{sumFold, nil, nil}},
		{"min", []*Fold{nil, minFold, nil}},
	}
	for _, group := range scheduleGroups(Config{Seed: 21, TraceSteps: true}) {
		for _, cfg := range group {
			run := func(folds []*Fold, perEdge bool) (*foldJob, Stats) {
				j := newFoldJob(n, 8, false)
				j.folds, j.perEdge = folds, perEdge
				st, err := Run(g, j, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return j, st
			}
			plain, pst := run(nil, false)
			for _, vr := range variants {
				for _, perEdge := range []bool{false, true} {
					folded, fst := run(vr.folds, perEdge)
					name := fmt.Sprintf("%s/%s/perEdge=%v", scheduleName(cfg), vr.name, perEdge)
					if !reflect.DeepEqual(folded.outputs(), plain.outputs()) {
						t.Errorf("%s: folded outputs differ from the handler's", name)
					}
					if !reflect.DeepEqual(fst, pst) {
						t.Errorf("%s: folded Stats differ:\nfolded: %+v\nplain:  %+v", name, fst, pst)
					}
					for v, bad := range folded.bad {
						if bad {
							t.Fatalf("%s: vertex %d saw Messages() out of the folded-first order", name, v)
						}
					}
				}
			}
		}
	}
}

// edgeCaseGraph has a vertex whose out-neighbours all live on the other
// worker at W=2 under either partitioner (0 under mod, 15 under
// degree), self-loops (one doubled), parallel edges, a hub, and
// isolated vertices (9, 10) beside a sink that only receives (11).
func edgeCaseGraph() *graph.Directed {
	var edges []graph.Edge
	add := func(src graph.NodeID, dsts ...graph.NodeID) {
		for _, d := range dsts {
			edges = append(edges, graph.Edge{Src: src, Dst: d})
		}
	}
	add(0, 1, 3, 5, 7)
	add(15, 0, 1, 2)
	add(2, 2)
	add(4, 4, 4, 5)
	add(6, 8, 8, 8)
	add(8, 6)
	add(12, 11, 13)
	add(14, 0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 15)
	return graph.FromEdges(16, edges)
}

// runFoldTwin runs foldJob with folds, broadcasting or per edge, and
// reports whether the engine built its broadcast index.
func runFoldTwin(t *testing.T, g *graph.Directed, folds []*Fold, perEdge bool, cfg Config) (*foldJob, Stats, bool) {
	t.Helper()
	j := newFoldJob(g.NumNodes(), 8, false)
	j.folds, j.perEdge = folds, perEdge
	e := newEngine(g, j, cfg.withDefaults())
	defer e.stop()
	if err := e.loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	return j, e.stats, e.nbrs != nil
}

// A folded SendToAllNbrs writes one broadcast record per destination
// worker where its per-edge twin writes one record per edge, and nothing
// observable may tell them apart: at every point of the schedule
// lattice, under both partitioners, on a random graph, on one built of
// edge cases and on the empty graph, the broadcasting job ends with the
// outputs and the Stats (per-step trace included) of the twin that
// loops Send over OutNbrs, bit for bit — folding the float sum alone,
// the int min alone, or both. The job interleaves point-to-point sends
// of the summed type with its broadcasts, so a broadcast expanded out of
// its place in the fold order would change the sums' bits. Crash runs
// roll back across the superstep that built the index: from a crash in
// superstep 0 itself, which built it, and from one in superstep 3.
func TestFoldBroadcastMatchesPerEdgeAcrossLattice(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Directed
	}{
		{"twitter", gen.TwitterLike(53, 5, 13)},
		{"edge-cases", edgeCaseGraph()},
		{"empty", graph.FromEdges(0, nil)},
	}
	variants := []struct {
		name  string
		folds []*Fold
	}{
		{"both", bothFolds},
		{"sum", []*Fold{sumFold, nil, nil}},
		{"min", []*Fold{nil, minFold, nil}},
	}
	check := func(name string, g *graph.Directed, folds []*Fold, cfg Config) {
		perEdge, pst, built := runFoldTwin(t, g, folds, true, cfg)
		if pst.Recoveries != len(cfg.Faults) {
			t.Errorf("%s: %d recoveries, want %d", name, pst.Recoveries, len(cfg.Faults))
		}
		if built {
			t.Errorf("%s: the per-edge twin built a broadcast index", name)
		}
		bcast, bst, built := runFoldTwin(t, g, folds, false, cfg)
		if !built && g.NumEdges() > 0 {
			t.Errorf("%s: the broadcasting job never built its index", name)
		}
		if !reflect.DeepEqual(bcast.outputs(), perEdge.outputs()) {
			t.Errorf("%s: broadcast outputs differ from the per-edge twin's", name)
		}
		if !reflect.DeepEqual(bst, pst) {
			t.Errorf("%s: broadcast Stats differ:\nbroadcast: %+v\nper-edge:  %+v", name, bst, pst)
		}
	}
	for _, gr := range graphs {
		for _, group := range scheduleGroups(Config{Seed: 21, TraceSteps: true}) {
			for _, cfg := range group {
				for _, vr := range variants {
					check(gr.name+"/"+scheduleName(cfg)+"/"+vr.name, gr.g, vr.folds, cfg)
				}
			}
		}
		for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
			for _, crash := range []int{0, 3} {
				cfg := Config{NumWorkers: 2, Partitioner: part, ChunkSize: 4, Seed: 21, TraceSteps: true,
					Faults: FaultPlan{{Superstep: crash, Worker: 1}}}
				if gr.g.NumNodes() < 2 {
					continue
				}
				check(fmt.Sprintf("%s/crash@%d/%s", gr.name, crash, scheduleName(cfg)), gr.g, bothFolds, cfg)
			}
		}
	}
}

// foldBitsJob sends its payloads, in order, from vertex 0 to vertex 1 in
// superstep 0 as one folded type, and records what vertex 1 is
// delivered in superstep 1.
type foldBitsJob struct {
	fold     Fold
	payloads []uint64
	got      []Msg
}

func (j *foldBitsJob) Schema() Schema {
	return Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{1}, Folds: []*Fold{&j.fold}}
}

func (j *foldBitsJob) MasterCompute(mc *MasterContext) {}

func (j *foldBitsJob) VertexCompute(vc *VertexContext) {
	switch {
	case vc.Superstep() == 0 && vc.ID() == 0:
		for _, p := range j.payloads {
			vc.Send(1, Msg{V: [MaxPayloadSlots]uint64{p}})
		}
	case vc.Superstep() == 1:
		j.got = append(j.got, vc.Messages()...)
	}
	vc.VoteToHalt()
}

// The delivered payload of every (Op, Kind) fold is pinned bit for bit:
// it is the left fold of the payloads in emission order seeded with the
// first payload's raw bits — so a lone payload arrives untouched, never
// normalized (an Or of 5 stays 5) nor added to a zero (a −0 sum stays
// −0), a NaN keeps its payload bits, a float Min or Max drops a NaN for
// the first number after it, and a Node Min or Max compares NIL as −1.
func TestFoldDeliveredBitsPinned(t *testing.T) {
	f := math.Float64bits
	nan := uint64(0x7ff8dead0000beef)
	nil32 := uint64(math.MaxUint32) // graph.NilNode as Msg.SetNode stores it
	neg := func(x int64) uint64 { return uint64(x) }
	for _, tc := range []struct {
		op       AggOp
		kind     AggKind
		payloads []uint64
		want     uint64
	}{
		{AggOr, AggKindInt, []uint64{5}, 5},
		{AggAnd, AggKindInt, []uint64{5}, 5},
		{AggOr, AggKindInt, []uint64{5, 0}, 1},
		{AggAnd, AggKindInt, []uint64{5, 3}, 1},
		{AggAnd, AggKindInt, []uint64{5, 0, 7}, 0},
		{AggOr, AggKindBool, []uint64{0, 0}, 0},
		{AggAnd, AggKindBool, []uint64{1}, 1},
		{AggSum, AggKindInt, []uint64{3, neg(-5), 9}, 7},
		{AggMin, AggKindInt, []uint64{5, 9}, 5},
		{AggMin, AggKindInt, []uint64{4, neg(-2), 8}, neg(-2)},
		{AggMax, AggKindInt, []uint64{neg(-4), neg(-2), neg(-8)}, neg(-2)},
		{AggSum, AggKindFloat, []uint64{nan}, nan},
		{AggMin, AggKindFloat, []uint64{nan}, nan},
		{AggSum, AggKindFloat, []uint64{f(math.Copysign(0, -1))}, f(math.Copysign(0, -1))},
		{AggSum, AggKindFloat, []uint64{f(0.1), f(0.2), f(0.3)}, f(0.6000000000000001)}, // (0.1+0.2)+0.3 in float64
		{AggMin, AggKindFloat, []uint64{nan, f(3), f(1), f(2)}, f(1)},
		{AggMin, AggKindFloat, []uint64{f(3), nan, f(2)}, f(2)},
		{AggMax, AggKindFloat, []uint64{nan, f(-1), f(4)}, f(4)},
		{AggMin, AggKindNode, []uint64{3, nil32, 7}, nil32},
		{AggMin, AggKindNode, []uint64{nil32, 2}, nil32},
		{AggMax, AggKindNode, []uint64{nil32, 2}, 2},
	} {
		for _, w := range []int{1, 2} {
			name := fmt.Sprintf("%v/%v/%#x/W=%d", tc.op, tc.kind, tc.payloads, w)
			j := &foldBitsJob{fold: Fold{tc.op, tc.kind}, payloads: tc.payloads}
			if _, err := Run(gen.Ring(4), j, Config{NumWorkers: w, Seed: 1}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(j.got) != 1 || j.got[0].V[0] != tc.want {
				t.Errorf("%s: delivered %+v, want one message carrying %#x", name, j.got, tc.want)
			}
		}
	}
}

// Codec v6 carries each worker's present fold slots; decode restores
// them exactly (encode → decode → encode is a fixed point) and fails
// closed on a slot it cannot place.
func TestCheckpointFoldSlotsFailClosed(t *testing.T) {
	const n = 40
	g := gen.TwitterLike(n, 4, 6)
	e := newEngine(g, newFoldJob(n, 8, true), Config{NumWorkers: 1, Seed: 4}.withDefaults())
	defer e.stop()
	e.cfg.MaxSupersteps = 1 // stop at the barrier after superstep 0, its folds delivered
	if err := e.loop(context.Background()); err == nil {
		t.Fatal("want max-supersteps error, got nil")
	}
	wk := e.workers[0]
	slots := wk.foldTotal
	if slots < 2 {
		t.Fatalf("%d fold slots present, want at least 2 to checkpoint", slots)
	}
	// Every vertex voted to halt; routing reactivated exactly those a
	// folded message is waiting for, so the frame records them active.
	for at, s := range wk.folds {
		if s.stamp == e.foldEpoch && !wk.active[at/len(e.folds)] {
			t.Fatalf("local vertex %d has a folded message but was not reactivated", at/len(e.folds))
		}
	}
	data := e.encodeState()
	if err := e.decodeState(data); err != nil {
		t.Fatalf("decode of freshly encoded state failed: %v", err)
	}
	if again := e.encodeState(); string(again) != string(data) {
		t.Error("encode→decode→encode is not a fixed point")
	}
	// With one worker the fold section ends the payload: a slot count,
	// then (local index u32, type u8, payload u64) per present slot.
	at := len(data) - frameTrailerBytes - slots*ckptFoldBytes - 4
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
		want   string
	}{
		{"local index out of range", func(b []byte) { binary.LittleEndian.PutUint32(b[at+4:], n) }, "out of range"},
		{"unfolded type", func(b []byte) { b[at+8] = 2 }, "not folded"},
		{"type beyond the schema", func(b []byte) { b[at+8] = 9 }, "not folded"},
		{"count overruns the frame", func(b []byte) { binary.LittleEndian.PutUint32(b[at:], 1<<30) }, "overrun"},
		{"slot listed twice", func(b []byte) { copy(b[at+4+ckptFoldBytes:], b[at+4:at+4+ckptFoldBytes]) }, "twice"},
	} {
		bad := append([]byte(nil), data...)
		tc.mutate(bad)
		payload := bad[frameHeaderBytes : len(bad)-frameTrailerBytes]
		binary.LittleEndian.PutUint64(bad[len(bad)-frameTrailerBytes:], fnv64a(payload))
		if err := e.decodeState(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	if err := e.decodeState(data); err != nil {
		t.Fatalf("pristine snapshot rejected after corrupt decodes: %v", err)
	}
}
