package pregel

import (
	"fmt"
	"math"
	"slices"

	"gmpregel/internal/graph"
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
// fold's result is the same under every schedule. A broadcast record is
// expanded where it sits, over its sender's out-neighbours wk owns in
// out-edge order: the messages, in the order, that per-edge records
// would have folded. The loop is chosen per box: one that holds a
// broadcast record (the chunk's fbcast flag) takes foldBoxBcast, the
// rest the per-edge loops, which test no header bit. A record stamps its
// slot with this routing's epoch; the first one for a (vertex, type)
// replaces the stale value, the rest fold into it. A second pass over
// wk's chunks then counts the present slots and reactivates their
// vertices. It runs in wk's prefix task, so no count, placement or
// unpack ever sees a folded message.
//
//gm:noalloc
func (wk *worker) foldInbox() {
	e := wk.e
	nf := len(e.folds)
	if nf == 0 {
		return
	}
	d, epoch := wk.index, e.foldEpoch
	for _, src := range e.workers {
		for ci := range src.chunks {
			switch ck := &src.chunks[ci]; {
			case ck.fbcast[d]:
				wk.foldBoxBcast(ck.fboxes[d], epoch)
			case nf == 1:
				wk.foldBox(ck.fboxes[d], e.folds[0], epoch)
			default:
				wk.foldBoxTyped(ck.fboxes[d], epoch)
			}
		}
	}
	total := 0
	for ci := range wk.chunks {
		ck := &wk.chunks[ci]
		for li := int(ck.lo); li < int(ck.hi); li++ {
			present := 0
			for _, s := range wk.folds[li*nf : li*nf+nf] {
				if s.stamp == epoch {
					present++
				}
			}
			total += present
			if present > 0 && !wk.active[li] {
				wk.active[li] = true
				ck.numActive++
			}
		}
	}
	wk.foldTotal = total
}

// foldBox folds one box of a job with a single folded type, whose slot
// index is the local index, choosing the fold once for the box; a stale
// slot takes the payload by a select rather than a branch. PageRank's
// and SSSP's folds are written out — apply is past the inliner's
// budget, and this is the engine's hottest loop.
//
//gm:noalloc
func (wk *worker) foldBox(box []uint64, f Fold, epoch uint32) {
	slots := wk.folds
	switch f {
	case Fold{AggSum, AggKindFloat}:
		for i := 0; i+foldStride <= len(box); i += foldStride {
			s, m := &slots[wk.localOf(headerDst(box[i]))], box[i+1]
			v := math.Float64bits(math.Float64frombits(s.val) + math.Float64frombits(m))
			if s.stamp != epoch {
				v = m
			}
			s.val, s.stamp = v, epoch
		}
	case Fold{AggMin, AggKindInt}:
		for i := 0; i+foldStride <= len(box); i += foldStride {
			s, m := &slots[wk.localOf(headerDst(box[i]))], box[i+1]
			v := s.val
			if int64(m) < int64(v) {
				v = m
			}
			if s.stamp != epoch {
				v = m
			}
			s.val, s.stamp = v, epoch
		}
	default:
		wk.foldBoxTyped(box, epoch)
	}
}

// foldBoxTyped is the general fold loop, for a job with several folded
// types or one without a written-out loop: each record looks up its
// type's fold and slot.
//
//gm:noalloc
func (wk *worker) foldBoxTyped(box []uint64, epoch uint32) {
	e, nf := wk.e, len(wk.e.folds)
	for i := 0; i+foldStride <= len(box); i += foldStride {
		fi := int(e.foldIdx[headerType(box[i])])
		s, m := &wk.folds[wk.localOf(headerDst(box[i]))*nf+fi], box[i+1]
		v := e.folds[fi].apply(s.val, m)
		if s.stamp != epoch {
			v = m
		}
		s.val, s.stamp = v, epoch
	}
}

// foldBoxBcast is the fold loop of a box holding broadcast records,
// possibly between per-edge ones a Send of a folded type wrote: each
// record is folded, or expanded by foldRun, where it sits.
//
//gm:noalloc
func (wk *worker) foldBoxBcast(box []uint64, epoch uint32) {
	e := wk.e
	for i := 0; i+foldStride <= len(box); i += foldStride {
		h := box[i]
		if h&bcastBit == 0 {
			wk.foldBoxTyped(box[i:i+foldStride], epoch)
			continue
		}
		wk.foldRun(e.nbrs.owned(headerDst(h), int32(wk.index)), int(e.foldIdx[headerType(h)]), box[i+1], epoch)
	}
}

// foldRun folds payload m of the fi-th folded type into the slots of
// the local vertices locals — one broadcast record's expansion —
// choosing the fold once for the run. PageRank's fold is written out,
// as in foldBox.
//
//gm:noalloc
func (wk *worker) foldRun(locals []graph.NodeID, fi int, m uint64, epoch uint32) {
	nf := len(wk.e.folds)
	slots := wk.folds[fi:]
	switch f := wk.e.folds[fi]; f {
	case Fold{AggSum, AggKindFloat}:
		for _, li := range locals {
			s := &slots[int(li)*nf]
			v := math.Float64bits(math.Float64frombits(s.val) + math.Float64frombits(m))
			if s.stamp != epoch {
				v = m
			}
			s.val, s.stamp = v, epoch
		}
	default:
		for _, li := range locals {
			s := &slots[int(li)*nf]
			v := f.apply(s.val, m)
			if s.stamp != epoch {
				v = m
			}
			s.val, s.stamp = v, epoch
		}
	}
}

// nbrIndex is the per-destination edge index broadcast records expand
// over. local lists every vertex's out-neighbours in its CSR range, as
// local indices on their owners, stably regrouped by owner in worker
// order; the runs of vertex v, runs[runOff[v]:runOff[v+1]], name each
// worker owning any of them and the end of its group (start is the
// graph's OutStart). A vertex has at most min(deg, W) runs, so the
// index is O(V+E) words at any W. With one worker every id is its own
// local index, so the index is the CSR itself: local aliases OutDst
// (hence its NodeID type), runOff is nil, and it costs nothing.
type nbrIndex struct {
	start  []int64
	local  []graph.NodeID
	runOff []int64
	runs   []nbrRun
}

type nbrRun struct {
	end    int64
	worker int32
}

// nbrIndex returns the run's broadcast index, building it on the first
// folded broadcast: a run that never sends one never pays for it. The
// build is a pure function of the graph and the partition, so a
// rollback keeps it.
func (e *engine) nbrIndex() *nbrIndex {
	e.nbrsOnce.Do(e.buildNbrIndex)
	return e.nbrs
}

// buildNbrIndex sets e.nbrs: the CSR at one worker, otherwise one pass
// over each vertex's out-neighbours that counts them per owner and a
// second that places them stably.
func (e *engine) buildNbrIndex() {
	g := e.g
	ix := &nbrIndex{start: g.OutStart, local: g.OutDst}
	e.nbrs = ix
	if e.numWorkers == 1 {
		return
	}
	n, wk := g.NumNodes(), e.workers[0]
	ix.local = make([]graph.NodeID, len(g.OutDst))
	ix.runOff = make([]int64, n+1)
	ix.runs = make([]nbrRun, 0, n)
	// at counts the current vertex's out-neighbours per owner, then
	// serves as each owner's placement cursor; it is zero between
	// vertices. owner caches each out-neighbour's owner, seen the
	// distinct ones.
	at := make([]int64, e.numWorkers)
	var owner, seen []int32
	for v := range n {
		lo, hi := g.OutStart[v], g.OutStart[v+1]
		owner, seen = owner[:0], seen[:0]
		for _, u := range g.OutDst[lo:hi] {
			w := int32(wk.ownerOf(u))
			if at[w] == 0 {
				seen = append(seen, w)
			}
			at[w]++
			owner = append(owner, w)
		}
		slices.Sort(seen)
		for _, w := range seen {
			at[w], lo = lo, lo+at[w]
			ix.runs = append(ix.runs, nbrRun{end: lo, worker: w})
		}
		for k, u := range g.OutDst[g.OutStart[v]:hi] {
			w := owner[k]
			ix.local[at[w]] = graph.NodeID(e.workers[w].localOf(u))
			at[w]++
		}
		for _, w := range seen {
			at[w] = 0
		}
		ix.runOff[v+1] = int64(len(ix.runs))
	}
}

// owned returns the local indices, on worker w, of the out-neighbours
// of broadcast sender s that w owns, in out-edge order. w owns at least
// one: a broadcast record only goes to such a worker.
//
//gm:noalloc
func (ix *nbrIndex) owned(s graph.NodeID, w int32) []graph.NodeID {
	lo := ix.start[s]
	if ix.runOff == nil {
		return ix.local[lo:ix.start[s+1]]
	}
	runs := ix.runs[ix.runOff[s]:ix.runOff[s+1]]
	i, j := 0, len(runs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if runs[h].worker < w {
			i = h + 1
		} else {
			j = h
		}
	}
	if i > 0 {
		lo = runs[i-1].end
	}
	return ix.local[lo:runs[i].end]
}

// nbrRunBytes is the size of one run, padding included.
const nbrRunBytes = 16

// bytes is the index's footprint as the governor accounts it: zero when
// it aliases the CSR.
//
//gm:noalloc
func (ix *nbrIndex) bytes() int64 {
	if ix == nil || ix.runOff == nil {
		return 0
	}
	return int64(len(ix.local))*4 + int64(len(ix.runOff))*8 + int64(len(ix.runs))*nbrRunBytes
}
