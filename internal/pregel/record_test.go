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
	oneType := Schema{Messages: single(AggKindInt)}
	twoTypes := Schema{Messages: []MessageType{{Fields: []AggKind{AggKindInt, AggKindNode}}, {Fields: []AggKind{AggKindInt}}}}
	folded := Schema{Messages: []MessageType{{Fields: []AggKind{AggKindFloat}, Fold: sumFold}}}
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
		{name: "over-declared slots accept every slot",
			schema: Schema{Messages: single(AggKindInt, AggKindInt, AggKindInt, AggKindInt)}, build: slot(3, 7)},
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
			schema: Schema{Messages: single()}, build: slot(0, 1),
			want: &SchemaError{Type: 0, Slot: 0, Slots: 0}},
		{name: "folded type", schema: folded, build: slot(0, 7), toNbrs: true, chunk: 2},
		{name: "non-zero slot beyond a folded type", schema: folded, build: slot(1, 1), chunk: 2,
			want: &SchemaError{Type: 0, Slot: 1, Slots: 1}},
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
			if *got != want {
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

// A message type the engine cannot honour — more fields than a Msg has
// slots, a field of no kind, or a fold it does not implement — is
// refused before any superstep, with a diagnostic that names the type.
func TestMalformedMessageTypesRefused(t *testing.T) {
	g := gen.Ring(4)
	fold := func(op AggOp, fields ...AggKind) []MessageType {
		return []MessageType{{Fields: fields, Fold: &op}}
	}
	for _, tc := range []struct {
		name   string
		schema Schema
		text   string // besides "schema declares"
	}{
		{"more fields than a Msg has slots", Schema{Messages: single(make([]AggKind, MaxPayloadSlots+1)...)}, "type 0"},
		{"unknown field kind", Schema{Messages: []MessageType{{}, {Fields: []AggKind{AggKindNode + 1}}}}, "type 1"},
		{"fold on a two-slot type", Schema{Messages: append(single(AggKindInt), fold(AggMin, AggKindInt, AggKindNode)...)}, "type 1"},
		{"fold on a zero-slot type", Schema{Messages: fold(AggSum)}, "type 0"},
		{"AggAny fold", Schema{Messages: fold(AggAny, AggKindInt)}, "type 0"},
		{"sum over bool", Schema{Messages: fold(AggSum, AggKindBool)}, "type 0"},
		{"min over bool", Schema{Messages: fold(AggMin, AggKindBool)}, "type 0"},
		{"max over bool", Schema{Messages: fold(AggMax, AggKindBool)}, "type 0"},
		{"or over float", Schema{Messages: fold(AggOr, AggKindFloat)}, "type 0"},
		{"and over float", Schema{Messages: fold(AggAnd, AggKindFloat)}, "type 0"},
		{"sum over node", Schema{Messages: fold(AggSum, AggKindNode)}, "type 0"},
		{"unknown kind", Schema{Messages: fold(AggMin, AggKindNode+1)}, "type 0"},
	} {
		st, err := Run(g, &sendJob{schema: tc.schema, build: func(graph.NodeID) Msg { return Msg{} }}, Config{NumWorkers: 2})
		if err == nil || !strings.Contains(err.Error(), "schema declares") || !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%s: err = %v, want a schema diagnostic mentioning %q", tc.name, err, tc.text)
		}
		if st.Supersteps != 0 {
			t.Errorf("%s: ran %d supersteps", tc.name, st.Supersteps)
		}
		if _, err := RecordBytes(tc.schema); err == nil {
			t.Errorf("%s: RecordBytes accepted the schema", tc.name)
		}
	}
}

// The record is 8 bytes of header plus 8 per field of the widest type,
// and a type's wire size is 4 bytes of destination, a tag byte when the
// job has more than one type, and WireBytes of each field.
func TestRecordBytes(t *testing.T) {
	for _, tc := range []struct {
		msgs    []MessageType
		rec     int
		msgSize []int64
	}{
		{nil, 8, []int64{}},
		{single(), 8, []int64{4}},
		{single(AggKindInt), 16, []int64{12}},
		{single(AggKindBool), 16, []int64{5}},
		{[]MessageType{{Fields: []AggKind{AggKindNode}}, {}}, 16, []int64{9, 5}},
		{[]MessageType{{Fields: []AggKind{AggKindNode, AggKindFloat}}, {Fields: []AggKind{AggKindInt}}}, 24, []int64{17, 13}},
		{single(AggKindInt, AggKindFloat, AggKindBool, AggKindNode), 40, []int64{25}},
	} {
		s := Schema{Messages: tc.msgs}
		if got, err := RecordBytes(s); err != nil || got != tc.rec {
			t.Errorf("RecordBytes(%+v) = %d, %v; want %d", s, got, err, tc.rec)
		}
		if l, err := resolveLayout(tc.msgs, 0); err != nil || !reflect.DeepEqual(l.msgSize, tc.msgSize) {
			t.Errorf("%+v: wire sizes %v (%v), want %v", s, l.msgSize, err, tc.msgSize)
		}
	}
}
