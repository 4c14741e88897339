package pregel

import (
	"fmt"

	"gmpregel/internal/graph"
)

// The message record is the one representation every engine buffer
// holds a message in — chunk boxes, combiner raw logs and outboxes,
// the CSR inbox, spill segments and their read-back scratch. A record
// is stride = 1+slots consecutive uint64 words:
//
//	word 0      header: destination id in the low 32 bits, Msg.Type above
//	word 1..    payload slots 0..slots-1, raw bits
//
// slots is fixed for a run: the largest slot count any message type of
// the job's Schema declares (Schema.MessageSlots), so a one-float
// PageRank message is 16 bytes wherever the engine moves it and a
// schema that declares nothing runs the same code at stride 5. Msg is
// the job-facing view only: Send packs it into a record, runChunk
// unpacks a vertex's inbox window into executor scratch for Messages().

// recWordBytes is the size of one record word; a buffer's footprint,
// in memory and in a spill segment alike, is len(words)*recWordBytes.
const recWordBytes = 8

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
// for. (A combiner that dirties one aborts the run, see foldSend.)
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

// messageSlots resolves a schema's record geometry: the slot count of
// each message type — the declared Schema.MessageSlots, or
// MaxPayloadSlots for every type when the schema leaves it nil — and
// their maximum, the payload words of the run's record.
func messageSlots(s Schema) (perType []uint8, slots int, err error) {
	types := len(s.MessagePayloadBytes)
	if s.MessageSlots != nil && len(s.MessageSlots) != types {
		return nil, 0, fmt.Errorf("pregel: schema declares %d message types but %d MessageSlots entries",
			types, len(s.MessageSlots))
	}
	perType = make([]uint8, types)
	for t := range perType {
		n := MaxPayloadSlots
		if s.MessageSlots != nil {
			n = s.MessageSlots[t]
		}
		if n < 0 || n > MaxPayloadSlots {
			return nil, 0, fmt.Errorf("pregel: schema declares %d payload slots for message type %d, a Msg has %d",
				n, t, MaxPayloadSlots)
		}
		perType[t] = uint8(n)
		slots = max(slots, n)
	}
	return perType, slots, nil
}

// RecordBytes returns the size of the record the engine stores and moves
// each message of a job with schema s in: 8 bytes of header plus 8 per
// payload slot of the widest declared type.
func RecordBytes(s Schema) (int, error) {
	_, slots, err := messageSlots(s)
	return (1 + slots) * recWordBytes, err
}

// SchemaError reports a message that does not fit the job's declared
// Schema: a Type the schema has no entry for, or a non-zero value in a
// payload slot beyond the type's declared MessageSlots. The engine
// aborts the run rather than bill or truncate such a message.
type SchemaError struct {
	Vertex graph.NodeID // the sender (the destination, for a combiner's result)
	Type   uint8
	Slot   int // the offending payload slot; -1 when Type itself is out of range
	Types  int // message types the schema declares
	Slots  int // slots declared for Type (when Slot >= 0)
	// Combined is set when the offending value was written by the type's
	// combiner rather than passed to Send.
	Combined bool
}

func (e *SchemaError) Error() string {
	if e.Slot < 0 {
		return fmt.Sprintf("pregel: vertex %d sent a message of type %d, but the schema declares %d message type(s)",
			e.Vertex, e.Type, e.Types)
	}
	who := fmt.Sprintf("vertex %d sent", e.Vertex)
	if e.Combined {
		who = fmt.Sprintf("the combiner produced, for vertex %d,", e.Vertex)
	}
	return fmt.Sprintf("pregel: %s a type-%d message with a non-zero payload slot %d, but the schema declares %d slot(s) for that type",
		who, e.Type, e.Slot, e.Slots)
}
