package pregel

import (
	"fmt"
	"math"
)

// Fold declares a delivery fold for one message type: all messages of
// the type sent to one vertex in a superstep reach it as one message
// carrying the reduction of their payloads. The fold must be what the
// receiving handler does message by message (`x op= payload`), which
// then runs once on the folded payload. Sum, Min and Max take Int, Float
// or Node (Node: Min and Max only, comparing ids as Msg.Node reads
// them); Or and And take Int or Bool and fold to 0 or 1. A float Min or
// Max never keeps a NaN over a number, as the handler's < never picks
// one; a float Sum adds in the canonical delivery order (source worker,
// chunk, emission), so a handler accumulating from ±0 gets the bits the
// unfolded messages would give it. Stats bill every Send as before.
type Fold struct {
	Op   AggOp
	Kind AggKind
}

// Valid reports whether f is one of the folds the engine implements.
func (f Fold) Valid() bool {
	switch f.Kind {
	case AggKindInt:
		return f.Op <= AggAnd
	case AggKindFloat:
		return f.Op <= AggMax
	case AggKindNode:
		return f.Op == AggMin || f.Op == AggMax
	}
	return f.Kind == AggKindBool && (f.Op == AggOr || f.Op == AggAnd)
}

func (o AggOp) String() string   { return enumName(aggOpNames[:], uint8(o)) }
func (k AggKind) String() string { return enumName(aggKindNames[:], uint8(k)) }

var (
	aggOpNames   = [...]string{"sum", "min", "max", "or", "and", "any"}
	aggKindNames = [...]string{"int", "float", "bool", "node"}
)

func enumName(names []string, i uint8) string {
	if int(i) < len(names) {
		return names[i]
	}
	return fmt.Sprint(i)
}

// foldStride is the words per record in a chunk's fold boxes: the header
// and the one payload slot a folded type carries.
const foldStride = 2

// foldSlot is one (vertex, folded type) slot of a destination worker:
// the folded payload and the routing epoch that filled it. A slot is
// present while its stamp equals the engine's foldEpoch, so nothing is
// cleared between supersteps. foldSlotBytes is its size, padding
// included, as the governor accounts it.
type foldSlot struct {
	val   uint64
	stamp uint32
}

const foldSlotBytes = 16

// messageFolds resolves Schema.Folds against the per-type slot counts:
// idx maps each type to its position among the folded types (-1 when
// not folded), and folds/types list the folded types in type order.
func messageFolds(s Schema, typeSlots []uint8) (idx []int8, folds []Fold, types []uint8, err error) {
	if s.Folds != nil && len(s.Folds) != len(typeSlots) {
		return nil, nil, nil, fmt.Errorf("pregel: schema declares %d message types but %d Folds entries",
			len(typeSlots), len(s.Folds))
	}
	idx = make([]int8, len(typeSlots))
	for t := range idx {
		idx[t] = -1
		switch f := s.Folds; {
		case f == nil || f[t] == nil:
			continue
		case typeSlots[t] != 1:
			return nil, nil, nil, fmt.Errorf("pregel: schema declares a fold for message type %d, which has %d payload slots; a fold needs exactly 1",
				t, typeSlots[t])
		case !f[t].Valid():
			return nil, nil, nil, fmt.Errorf("pregel: schema declares a %v fold over %v for message type %d, which the engine does not implement",
				f[t].Op, f[t].Kind, t)
		}
		idx[t] = int8(len(folds))
		folds, types = append(folds, *s.Folds[t]), append(types, uint8(t))
	}
	return idx, folds, types, nil
}

// apply folds payload word m into the accumulator acc.
//
//gm:noalloc
func (f Fold) apply(acc, m uint64) uint64 {
	a, b := int64(acc), int64(m)
	switch f.Kind {
	case AggKindFloat:
		x, y := math.Float64frombits(acc), math.Float64frombits(m)
		if f.Op == AggSum {
			return math.Float64bits(x + y)
		}
		if x != x || f.Op == AggMin && y < x || f.Op == AggMax && y > x {
			return m
		}
		return acc
	case AggKindNode:
		a, b = int64(int32(acc)), int64(int32(m))
	}
	switch {
	case f.Op == AggSum:
		return uint64(a + b)
	case f.Op == AggMin && b < a, f.Op == AggMax && b > a:
		return m
	case f.Op == AggOr && (a != 0 || b != 0), f.Op == AggAnd && a != 0 && b != 0:
		return 1
	case f.Op == AggOr, f.Op == AggAnd:
		return 0
	}
	return acc
}

// foldInbox folds every fold-box record addressed to wk into its fold
// slots, walking the source workers, their chunks and each box in
// emission order — the canonical order the CSR inbox is built in, so a
// fold's result is the same under every schedule. The first record for
// a (vertex, type) stamps the slot with this routing's epoch and
// reactivates the vertex; the rest fold into it. It runs in wk's prefix
// task, so no count, placement or unpack ever sees a folded message.
//
//gm:noalloc
func (wk *worker) foldInbox() {
	e := wk.e
	nf := len(e.folds)
	if nf == 0 {
		return
	}
	d, epoch, total := wk.index, e.foldEpoch, 0
	for _, src := range e.workers {
		for ci := range src.chunks {
			box := src.chunks[ci].fboxes[d]
			for i := 0; i+foldStride <= len(box); i += foldStride {
				li := wk.localOf(headerDst(box[i]))
				fi := int(e.foldIdx[headerType(box[i])])
				switch s, m := &wk.folds[li*nf+fi], box[i+1]; {
				case s.stamp != epoch:
					s.val, s.stamp = m, epoch
					total++
					if !wk.active[li] {
						wk.active[li] = true
						wk.chunks[li/wk.chunkSize].numActive++
					}
				case e.folds[fi] == (Fold{AggSum, AggKindFloat}):
					// PageRank's fold, written out: apply is past the inliner's
					// budget, and this is the engine's hottest loop.
					s.val = math.Float64bits(math.Float64frombits(s.val) + math.Float64frombits(m))
				default:
					s.val = e.folds[fi].apply(s.val, m)
				}
			}
		}
	}
	wk.foldTotal = total
	wk.inDepth.Add(int64(total))
}
