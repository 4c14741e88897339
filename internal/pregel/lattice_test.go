package pregel

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// The schedule lattice: the one place the tests enumerate the Config
// fields that change how a superstep is scheduled without changing what
// it computes. Every Config field is registered here either as an axis
// (enumerated by scheduleGroups) or as fixed (left to the test's base
// config); TestScheduleLatticeCoversConfig fails on a field that is
// neither, so a new knob cannot ship without a decision about where the
// determinism, zero-alloc and fault matrices cover it.
var (
	scheduleAxes = map[string]bool{
		"NumWorkers": true, "ChunkSize": true, "Partitioner": true,
	}
	scheduleFixed = map[string]bool{
		"MaxSupersteps": true, "Seed": true, "TraceSteps": true,
		"CheckpointEvery": true, "Faults": true, "MaxRecoveries": true,
		"Deadline": true, "Observer": true, "MemoryBudget": true,
		"Watchdog": true, "StepDeadline": true, "BackoffBase": true,
		"BackoffCap": true, "Stalls": true,
	}
)

// oneChunk is a ChunkSize no partition reaches: every worker runs as a
// single chunk, so there is nothing to split and no raw-log fold. It is
// the reference schedule the chunked, stolen ones are checked against.
const oneChunk = 1 << 30

// workerCounts is the NumWorkers axis.
func workerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// scheduleGroups enumerates the lattice over base: NumWorkers
// {1, 2, 7, GOMAXPROCS} × Partitioner {mod, degree} × ChunkSize
// {≥n, auto, 1, 16, 64}. Points are grouped by (NumWorkers,
// Partitioner) — placement legitimately decides the network/local byte
// split — and only ChunkSize varies inside a group, so every point must
// reproduce its group's first point, the oneChunk reference, bit for
// bit.
func scheduleGroups(base Config) [][]Config {
	var groups [][]Config
	for _, w := range workerCounts() {
		for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
			var group []Config
			for _, chunk := range []int{oneChunk, 0, 1, 16, 64} {
				cfg := base
				cfg.NumWorkers, cfg.Partitioner, cfg.ChunkSize = w, part, chunk
				group = append(group, cfg)
			}
			groups = append(groups, group)
		}
	}
	return groups
}

// scheduleName labels a lattice point for subtests and failures.
func scheduleName(cfg Config) string {
	part, chunk := "mod", fmt.Sprint(cfg.ChunkSize)
	if cfg.Partitioner == PartitionDegree {
		part = "degree"
	}
	if cfg.ChunkSize == oneChunk {
		chunk = "one"
	}
	return fmt.Sprintf("W=%d/part=%s/chunk=%s", cfg.NumWorkers, part, chunk)
}

func TestScheduleLatticeCoversConfig(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	if typ.NumField() != len(scheduleAxes)+len(scheduleFixed) {
		t.Errorf("Config has %d fields, the lattice registers %d axes + %d fixed",
			typ.NumField(), len(scheduleAxes), len(scheduleFixed))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if scheduleAxes[name] == scheduleFixed[name] {
			t.Errorf("Config.%s must be registered as exactly one of schedule axis or fixed", name)
		}
	}
}

// ---- The width axis ----
//
// The engine's record width comes from Schema.MessageSlots, which is a
// declaration about the job, not a Config field: the lattice above
// cannot enumerate it, so it is enumerated here, once. A job declares
// its slots exactly (the narrowest record), over-declares them
// (MaxPayloadSlots for every type) or leaves them nil (the same width by
// default), and nothing observable may depend on which.
type slotDecl int

const (
	slotsExact slotDecl = iota
	slotsOver
	slotsNil
)

func (d slotDecl) String() string {
	return [...]string{"exact", "over", "nil"}[d]
}

// declare returns the MessageSlots a job whose types really use exact
// slots declares under d.
func (d slotDecl) declare(exact ...int) []int {
	switch d {
	case slotsOver:
		over := make([]int, len(exact))
		for t := range over {
			over[t] = MaxPayloadSlots
		}
		return over
	case slotsNil:
		return nil
	}
	return exact
}

// wideJob is the width axis's second subject, everything minLabelJob is
// not: two message types of different widths (a node + float probe sent
// along edges, a negative-int reply sent point to point to a
// non-neighbor), so records are 24 bytes when declared exactly, a type
// tag is on the wire, and a one-slot type travels in a two-slot record.
type wideJob struct {
	width slotDecl
	fsum  []float64
	isum  []int64
}

func newWideJob(n int, width slotDecl) *wideJob {
	return &wideJob{width: width, fsum: make([]float64, n), isum: make([]int64, n)}
}

func (j *wideJob) Schema() Schema {
	return Schema{MessagePayloadBytes: []int{12, 8}, MessageSlots: j.width.declare(2, 1)}
}

func (j *wideJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() == 6 {
		mc.Halt()
	}
}

func (j *wideJob) VertexCompute(vc *VertexContext) {
	v := vc.ID()
	for _, m := range vc.Messages() {
		switch m.Type {
		case 0:
			j.fsum[v] += m.Float(1)
			var r Msg
			r.Type = 1
			r.SetInt(0, -int64(v)-int64(vc.Superstep()))
			vc.Send(m.Node(0), r)
		case 1:
			j.isum[v] += m.Int(0)
		}
	}
	if vc.Superstep()%2 == 0 {
		var m Msg
		m.SetNode(0, v)
		m.SetFloat(1, 1/float64(v+1))
		vc.SendToAllNbrs(m)
	}
}

// widthRun is everything a run exposes: Stats, the job's outputs, and
// the two checkpoint frames the engine retains at the end.
type widthRun struct {
	stats      Stats
	out        any
	prev, last []byte
}

func runForWidth(t *testing.T, g *graph.Directed, job Job, out any, cfg Config) widthRun {
	t.Helper()
	e := newEngine(g, job, cfg.withDefaults())
	defer e.stop()
	if err := e.loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	return widthRun{stats: e.stats, out: out, prev: e.ckptPrev.data, last: e.ckpt.data}
}

// Record width is invisible: at every point of the schedule lattice a
// job run with its slots declared exactly, over-declared and undeclared
// produces identical Stats (per-step trace included), identical outputs
// and byte-identical checkpoint frames. The frames are also pinned to
// the bytes the 40-byte-Msg engine wrote for the same runs (codec v5 is
// unchanged: the slots a record does not carry are written as zeros).
func TestRecordWidthInvisibleAcrossLattice(t *testing.T) {
	const n = 53
	g := gen.TwitterLike(n, 5, 13)
	subjects := []struct {
		name string
		run  func(cfg Config, d slotDecl) widthRun
	}{
		{"minlabel", func(cfg Config, d slotDecl) widthRun {
			j := &minLabelJob{label: make([]int64, n), width: d}
			return runForWidth(t, g, j, j.label, cfg)
		}},
		{"wide", func(cfg Config, d slotDecl) widthRun {
			j := newWideJob(n, d)
			return runForWidth(t, g, j, [2]any{j.fsum, j.isum}, cfg)
		}},
	}
	for _, sub := range subjects {
		for _, group := range scheduleGroups(Config{Seed: 21, TraceSteps: true, CheckpointEvery: 2}) {
			for _, cfg := range group {
				ref := sub.run(cfg, slotsExact)
				for _, d := range []slotDecl{slotsOver, slotsNil} {
					got := sub.run(cfg, d)
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("%s %s: slots=%v differs from slots=exact:\n%+v\n%+v",
							sub.name, scheduleName(cfg), d, got.stats, ref.stats)
					}
				}
				if want, ok := parentFrames[sub.name+"/"+scheduleName(group[0])]; ok {
					if got := [2]uint64{fnv64a(ref.prev), fnv64a(ref.last)}; got != want {
						t.Errorf("%s %s: checkpoint frames hash to %#x, the parent commit's hash to %#x",
							sub.name, scheduleName(cfg), got, want)
					}
				}
			}
		}
	}
}

// parentFrames pins fnv64a of the last two checkpoint frames of the
// TestRecordWidthInvisibleAcrossLattice runs as written by the commit
// before records existed (every message a 40-byte Msg), keyed by the
// lattice group's reference point (frames do not vary inside a group),
// for the worker counts that do not depend on the machine.
var parentFrames = map[string][2]uint64{
	"minlabel/W=2/part=mod/chunk=one":    {0x22664460373d2596, 0xf02aa958353aaf53},
	"minlabel/W=2/part=degree/chunk=one": {0x1b94fb2d18ae5f9e, 0xd22a4ac55d194008},
	"minlabel/W=7/part=mod/chunk=one":    {0x68ee18aba5d69ff7, 0x342e6fd633c56bc1},
	"minlabel/W=7/part=degree/chunk=one": {0x6d1e3abeb98d2d8a, 0x7b326a4622397937},
	"wide/W=2/part=mod/chunk=one":        {0x6b260722cc496d7, 0x372a8aae53954fd8},
	"wide/W=2/part=degree/chunk=one":     {0xd434e530671eb1c, 0xe27ddc081fd4cfcc},
	"wide/W=7/part=mod/chunk=one":        {0xd7296940e632887a, 0x6aaacd43f576df07},
	"wide/W=7/part=degree/chunk=one":     {0xf724cb90e4a49b0a, 0xce118b0dc1bc38a5},
}
