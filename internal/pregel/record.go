package pregel

import (
	"fmt"

	"gmpregel/internal/graph"
)

// The message record is the one representation every engine buffer
// holds a message in — chunk boxes, the CSR inbox, spill segments and
// their read-back scratch. A record is stride = 1+slots consecutive
// uint64 words (a chunk's fold boxes hold the same layout at one slot):
//
//	word 0      header: destination id in the low 32 bits, Msg.Type in
//	            bits 32-39, bcastBit (bit 40) set on a broadcast record
//	word 1..    payload slots 0..slots-1, raw bits
//
// A broadcast record exists only in a fold box: SendToAllNbrs of a
// folded type writes one per destination worker owning any of the
// sender's out-neighbours, with the sender's id in the low 32 bits in
// place of a destination, and the worker's fold expands it over those
// neighbours, its group of the sender's broadcast-index cut row
// (fold.go).
//
// slots is fixed for a run: the most fields any message type of the
// job's Schema declares (layout), so a one-float PageRank message is 16
// bytes wherever the engine moves it. Msg is
// the job-facing view only: Send packs it into a record, runChunk
// unpacks a vertex's fold slots and inbox window into executor scratch
// for Messages().

// recWordBytes is the size of one record word; a buffer's footprint,
// in memory and in a spill segment alike, is len(words)*recWordBytes.
const recWordBytes = 8

// bcastBit marks a broadcast record's header; headerType ignores it.
const bcastBit = 1 << 40

//gm:noalloc
func packHeader(dst graph.NodeID, typ uint8) uint64 {
	return uint64(uint32(dst)) | uint64(typ)<<32
}

//gm:noalloc
func headerDst(h uint64) graph.NodeID { return graph.NodeID(int32(uint32(h))) }

//gm:noalloc
func headerType(h uint64) uint8 { return uint8(h >> 32) }

// appendRec appends one record — hdr plus the first slots words of v —
// to b. Capacity is retained across supersteps, so once a buffer has
// reached its high-water mark this allocates nothing.
//
//gm:noalloc
func appendRec(b []uint64, hdr uint64, v *[MaxPayloadSlots]uint64, slots int) []uint64 {
	b = append(b, hdr) //gm:alloc-ok buffer capacity is retained across supersteps; grows only until the high-water mark
	for s := 0; s < slots; s++ {
		// A word at a time: at these sizes a variadic append's memmove call
		// costs more than the stores.
		b = append(b, v[s]) //gm:alloc-ok same retained buffer as the header word above
	}
	return b
}

// unpackRec unpacks one record into m, writing Dst, Type and the slots
// the record carries. The rest of m.V is left alone: every Msg the
// engine unpacks into starts zeroed and is only ever written here, so
// the slots a run's records do not carry read as the zeros they stand
// for.
//
//gm:noalloc
func unpackRec(m *Msg, rec []uint64) {
	m.Dst = headerDst(rec[0])
	m.Type = headerType(rec[0])
	for s, v := range rec[1:] {
		m.V[s] = v
	}
}

// conforms reports whether m fits the schema: a declared Type, and
// zeros in every payload slot beyond the type's declared count (for a
// one-slot type, three ORs).
//
//gm:noalloc
func (wk *worker) conforms(m *Msg) bool {
	if int(m.Type) >= len(wk.typeSlots) {
		return false
	}
	var stray uint64
	for s := int(wk.typeSlots[m.Type]); s < MaxPayloadSlots; s++ {
		stray |= m.V[s]
	}
	return stray == 0
}

// schemaError builds the diagnostic for a message conforms rejected.
func (wk *worker) schemaError(sender graph.NodeID, m *Msg) *SchemaError {
	if int(m.Type) >= len(wk.typeSlots) {
		return &SchemaError{Vertex: sender, Type: m.Type, Slot: -1, Types: len(wk.typeSlots)}
	}
	declared := int(wk.typeSlots[m.Type])
	slot := declared
	for slot < MaxPayloadSlots-1 && m.V[slot] == 0 {
		slot++
	}
	return &SchemaError{Vertex: sender, Type: m.Type, Slot: slot, Slots: declared}
}

// layout is a schema's message geometry, resolved once per run from
// Schema.Messages: each type's full wire size and slot count, the
// record's payload slots (their maximum) and stride = 1+slots, and the
// folded types — foldIdx maps a type to its index in folds, foldTypes
// and foldEdges (-1: not folded), which list them in type order with
// each one's fold and edge column.
type layout struct {
	msgSize   []int64
	typeSlots []uint8
	slots     int
	stride    int
	foldIdx   []int8
	folds     []Fold
	foldTypes []uint8
	foldEdges []edgeCol
}

// resolveLayout resolves msgs against a graph of numEdges edges (< 0:
// do not check edge-column lengths). Any declaration the engine cannot
// honour exactly is an error, reported before any superstep runs.
func resolveLayout(msgs []MessageType, numEdges int64) (layout, error) {
	l := layout{
		msgSize:   make([]int64, len(msgs)),
		typeSlots: make([]uint8, len(msgs)),
		foldIdx:   make([]int8, len(msgs)),
	}
	base := int64(4) // destination id
	if len(msgs) > 1 {
		base++ // type tag
	}
	for t, m := range msgs {
		n := len(m.Fields)
		if n > MaxPayloadSlots {
			return l, fmt.Errorf("pregel: schema declares %d fields for message type %d, a Msg has %d payload slots",
				n, t, MaxPayloadSlots)
		}
		l.msgSize[t], l.typeSlots[t], l.foldIdx[t] = base, uint8(n), -1
		l.slots = max(l.slots, n)
		for _, k := range m.Fields {
			if int(k) >= len(wireBytes) {
				return l, fmt.Errorf("pregel: schema declares a field of unknown kind %v for message type %d", k, t)
			}
			l.msgSize[t] += int64(k.WireBytes())
		}
		if m.Fold == nil {
			if m.EdgeAdd != nil {
				return l, fmt.Errorf("pregel: schema declares an edge column for message type %d, which is not folded", t)
			}
			continue
		}
		if n != 1 {
			return l, fmt.Errorf("pregel: schema declares a fold for message type %d, which has %d fields; a fold needs exactly 1", t, n)
		}
		f := Fold{Op: *m.Fold, Kind: m.Fields[0]}
		if !f.Valid() {
			return l, fmt.Errorf("pregel: schema declares a %v fold over %v for message type %d, which the engine does not implement",
				f.Op, f.Kind, t)
		}
		col, err := newEdgeCol(m.EdgeAdd, f.Kind, t, numEdges)
		if err != nil {
			return l, err
		}
		l.foldIdx[t] = int8(len(l.folds))
		l.folds, l.foldTypes, l.foldEdges = append(l.folds, f), append(l.foldTypes, uint8(t)), append(l.foldEdges, col)
	}
	l.stride = 1 + l.slots
	return l, nil
}

// RecordBytes returns the size of the record the engine stores and moves
// each message of a job with schema s in: 8 bytes of header plus 8 per
// field of the widest message type. The error is the one a run with s
// would be refused with, bar an edge column's length, which depends on
// the graph.
func RecordBytes(s Schema) (int, error) {
	l, err := resolveLayout(s.Messages, -1)
	return (1 + l.slots) * recWordBytes, err
}

// SchemaError reports a message that does not fit the job's declared
// Schema: a Type the schema has no entry for, or a non-zero value in a
// payload slot beyond the type's declared fields. The engine
// aborts the run rather than bill or truncate such a message.
type SchemaError struct {
	Vertex graph.NodeID // the sender
	Type   uint8
	Slot   int // the offending payload slot; -1 when Type itself is out of range
	Types  int // message types the schema declares
	Slots  int // slots declared for Type (when Slot >= 0)
}

func (e *SchemaError) Error() string {
	if e.Slot < 0 {
		return fmt.Sprintf("pregel: vertex %d sent a message of type %d, but the schema declares %d message type(s)",
			e.Vertex, e.Type, e.Types)
	}
	return fmt.Sprintf("pregel: vertex %d sent a type-%d message with a non-zero payload slot %d, but the schema declares %d slot(s) for that type",
		e.Vertex, e.Type, e.Slot, e.Slots)
}
