package pregel

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// Pack/unpack round trip at every stride: a Msg whose live slots hold
// all four value kinds — negative ints, NaN payload bits, NilNode and
// bools included — comes back bit for bit, and the slots a record does
// not carry are left as the zeros the destination started with.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nan := math.Float64frombits(0x7ff8dead0000beef) // a NaN with payload bits to lose
	fill := func(m *Msg, slot int) {
		switch rng.Intn(6) {
		case 0:
			m.SetInt(slot, -rng.Int63())
		case 1:
			m.SetInt(slot, math.MinInt64)
		case 2:
			m.SetFloat(slot, nan)
		case 3:
			m.SetFloat(slot, -rng.NormFloat64())
		case 4:
			m.SetNode(slot, graph.NilNode)
		case 5:
			m.SetBool(slot, rng.Intn(2) == 0)
		}
	}
	for slots := 0; slots <= MaxPayloadSlots; slots++ {
		const k = 64
		stride := 1 + slots
		want := make([]Msg, k)
		var recs []uint64
		for i := range want {
			m := &want[i]
			m.Dst = graph.NodeID(rng.Int31())
			if i == 0 {
				m.Dst = graph.NilNode
			}
			m.Type = uint8(rng.Intn(256))
			for s := 0; s < slots; s++ {
				fill(m, s)
			}
			recs = appendRec(recs, packHeader(m.Dst, m.Type), &m.V, slots)
		}
		if len(recs) != k*stride {
			t.Fatalf("slots=%d: %d records take %d words, want %d", slots, k, len(recs), k*stride)
		}
		got := make([]Msg, k)
		for i := range got {
			unpackRec(&got[i], recs[i*stride:(i+1)*stride])
		}
		// Msg.V is compared as raw uint64s, so NaN payloads must match
		// bit for bit too.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("slots=%d: unpacked messages differ from what was packed", slots)
		}
	}
}

// sendJob sends one message, built by build, from every vertex at
// superstep 0.
type sendJob struct {
	schema Schema
	build  func(v graph.NodeID) Msg
	toNbrs bool
}

func (j *sendJob) Schema() Schema { return j.schema }
func (j *sendJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() == 2 {
		mc.Halt()
	}
}
func (j *sendJob) VertexCompute(vc *VertexContext) {
	if vc.Superstep() != 0 {
		return
	}
	if j.toNbrs {
		vc.SendToAllNbrs(j.build(vc.ID()))
	} else {
		vc.Send(0, j.build(vc.ID()))
	}
}

// A message that does not fit the declared schema aborts the run with a
// diagnostic naming the vertex, the type and the slot — it is never
// billed at a default size, routed anyway, or truncated to the record.
// (At the parent commit the out-of-range Type cases ran to completion,
// billed at the bare header size.)
func TestSendSchemaViolationsFailClosed(t *testing.T) {
	g := gen.Ring(12)
	slot := func(s int, v uint64) func(graph.NodeID) Msg {
		return func(graph.NodeID) Msg {
			var m Msg
			m.V[s] = v
			return m
		}
	}
	typed := func(typ uint8) func(graph.NodeID) Msg {
		return func(graph.NodeID) Msg { return Msg{Type: typ} }
	}
	oneType := Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{1}}
	twoTypes := Schema{MessagePayloadBytes: []int{12, 8}, MessageSlots: []int{2, 1}}
	badCombiner := Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{1},
		Combiners: []Combiner{func(into *Msg, m Msg) { into.V[2] = 9 }}}
	cases := []struct {
		name   string
		schema Schema
		build  func(graph.NodeID) Msg
		toNbrs bool
		chunk  int
		want   *SchemaError // nil: the run must succeed
		text   []string
	}{
		{name: "conforming", schema: oneType, build: slot(0, 7)},
		{name: "conforming wide type in a mixed schema", schema: twoTypes, build: slot(1, 7)},
		{name: "undeclared slots accept every slot", schema: Schema{MessagePayloadBytes: []int{8}}, build: slot(3, 7)},
		{name: "over-declared slots accept every slot",
			schema: Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{MaxPayloadSlots}}, build: slot(3, 7)},
		{name: "type beyond the schema, Send", schema: oneType, build: typed(5),
			want: &SchemaError{Type: 5, Slot: -1, Types: 1}, text: []string{"vertex 0 ", "type 5", "1 message type"}},
		{name: "type beyond the schema, SendToAllNbrs", schema: twoTypes, build: typed(2), toNbrs: true,
			want: &SchemaError{Type: 2, Slot: -1, Types: 2}, text: []string{"vertex 0 ", "type 2"}},
		{name: "any type when the schema declares none", schema: Schema{}, build: typed(0),
			want: &SchemaError{Type: 0, Slot: -1, Types: 0}},
		{name: "non-zero slot beyond a one-slot type", schema: oneType, build: slot(2, 1),
			want: &SchemaError{Type: 0, Slot: 2, Slots: 1}, text: []string{"vertex 0 ", "type-0", "slot 2", "1 slot"}},
		{name: "non-zero last slot, SendToAllNbrs", schema: oneType, build: slot(3, 1<<63), toNbrs: true,
			want: &SchemaError{Type: 0, Slot: 3, Slots: 1}},
		{name: "narrow type of a mixed schema using the wide type's slot", schema: twoTypes,
			build: func(graph.NodeID) Msg { return Msg{Type: 1, V: [MaxPayloadSlots]uint64{1, 2}} },
			want:  &SchemaError{Type: 1, Slot: 1, Slots: 1}},
		{name: "zero-slot type carrying a payload",
			schema: Schema{MessagePayloadBytes: []int{0}, MessageSlots: []int{0}}, build: slot(0, 1),
			want: &SchemaError{Type: 0, Slot: 0, Slots: 0}},
		{name: "combiner writing an undeclared slot, direct fold", schema: badCombiner, build: slot(0, 1),
			want: &SchemaError{Type: 0, Slot: 2, Slots: 1, Combined: true}, text: []string{"combiner", "slot 2"}},
		{name: "combiner writing an undeclared slot, raw-log fold", schema: badCombiner, build: slot(0, 1), chunk: 2,
			want: &SchemaError{Type: 0, Slot: 2, Slots: 1, Combined: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job := &sendJob{schema: tc.schema, build: tc.build, toNbrs: tc.toNbrs}
			st, err := Run(g, job, Config{NumWorkers: 3, Seed: 1, ChunkSize: tc.chunk})
			if tc.want == nil {
				if err != nil {
					t.Fatalf("conforming message rejected: %v", err)
				}
				return
			}
			var got *SchemaError
			if !errors.As(err, &got) {
				t.Fatalf("err = %v, want a *SchemaError", err)
			}
			// Violations surface in canonical (worker, chunk) order, so the
			// reported vertex is the first sender: vertex 0, on worker 0.
			want := *tc.want
			if got.Vertex != want.Vertex || got.Type != want.Type || got.Slot != want.Slot ||
				got.Types != want.Types || got.Slots != want.Slots || got.Combined != want.Combined {
				t.Errorf("error = %+v, want %+v", *got, want)
			}
			for _, frag := range tc.text {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("diagnostic %q does not mention %q", err, frag)
				}
			}
			if st.Supersteps != 0 || st.MessagesSent != 0 {
				t.Errorf("aborted run reports committed work: %+v", st)
			}
		})
	}
}

// A malformed MessageSlots declaration is refused before any superstep.
func TestMalformedMessageSlotsRefused(t *testing.T) {
	g := gen.Ring(4)
	for name, schema := range map[string]Schema{
		"fewer entries than types": {MessagePayloadBytes: []int{8, 8}, MessageSlots: []int{1}},
		"entries without types":    {MessageSlots: []int{1}},
		"more slots than a Msg":    {MessagePayloadBytes: []int{8}, MessageSlots: []int{MaxPayloadSlots + 1}},
		"negative slots":           {MessagePayloadBytes: []int{8}, MessageSlots: []int{-1}},
	} {
		st, err := Run(g, &sendJob{schema: schema, build: func(graph.NodeID) Msg { return Msg{} }}, Config{NumWorkers: 2})
		if err == nil || !strings.Contains(err.Error(), "schema declares") {
			t.Errorf("%s: err = %v, want a schema diagnostic", name, err)
		}
		if st.Supersteps != 0 {
			t.Errorf("%s: ran %d supersteps", name, st.Supersteps)
		}
		if _, err := RecordBytes(schema); err == nil {
			t.Errorf("%s: RecordBytes accepted the schema", name)
		}
	}
}

func TestRecordBytes(t *testing.T) {
	for _, tc := range []struct {
		schema Schema
		want   int
	}{
		{Schema{}, 8},
		{Schema{MessagePayloadBytes: []int{0}, MessageSlots: []int{0}}, 8},
		{Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{1}}, 16},
		{Schema{MessagePayloadBytes: []int{4, 0}, MessageSlots: []int{1, 0}}, 16},
		{Schema{MessagePayloadBytes: []int{12, 8}, MessageSlots: []int{2, 1}}, 24},
		{Schema{MessagePayloadBytes: []int{8}}, 40},
		{Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{MaxPayloadSlots}}, 40},
	} {
		if got, err := RecordBytes(tc.schema); err != nil || got != tc.want {
			t.Errorf("RecordBytes(%+v) = %d, %v; want %d", tc.schema, got, err, tc.want)
		}
	}
}
