package pregel

import (
	"context"
	"encoding/binary"
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
// message dirtied. Every vertex votes to halt each superstep, so only
// delivered messages — folded ones included — bring it back. With fold
// unset the same handlers see every message one by one.
type foldJob struct {
	fold  bool
	steps int
	rank  []float64
	label []int64
	isum  []int64
	bad   []bool // Messages() broke the folded-first order or carried a stray slot
}

func newFoldJob(n, steps int, fold bool) *foldJob {
	return &foldJob{fold: fold, steps: steps, rank: make([]float64, n), label: make([]int64, n),
		isum: make([]int64, n), bad: make([]bool, n)}
}

func (j *foldJob) outputs() any { return [4]any{j.rank, j.label, j.isum, j.bad} }

func (j *foldJob) Schema() Schema {
	s := Schema{MessagePayloadBytes: []int{8, 8, 12}, MessageSlots: []int{1, 1, 2}}
	if j.fold {
		s.Folds = []*Fold{{Op: AggSum, Kind: AggKindFloat}, {Op: AggMin, Kind: AggKindInt}, nil}
	}
	return s
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
		if j.fold && m.Type != 2 {
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
	j.rank[v] = 0.15/float64(n) + 0.85*sum
	if d := vc.OutDegree(); step%2 == 0 && d > 0 {
		var m Msg
		m.SetFloat(0, j.rank[v]/float64(d))
		vc.SendToAllNbrs(m)
	}
	if changed {
		m := Msg{Type: 1}
		m.SetInt(0, j.label[v])
		vc.SendToAllNbrs(m)
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
// messages first, in type order, with no stray slots.
func TestFoldDeliveryMatchesHandlerAcrossLattice(t *testing.T) {
	const n = 53
	g := gen.TwitterLike(n, 5, 13)
	for _, group := range scheduleGroups(Config{Seed: 21, TraceSteps: true}) {
		for _, cfg := range group {
			run := func(fold bool) (*foldJob, Stats) {
				j := newFoldJob(n, 8, fold)
				st, err := Run(g, j, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return j, st
			}
			folded, fst := run(true)
			plain, pst := run(false)
			name := scheduleName(cfg)
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
