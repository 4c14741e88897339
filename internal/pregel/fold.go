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
// expanded where it sits, over its sender's out-neighbours wk owns, in
// out-edge order: the messages, in the order, that per-edge records
// would have folded. The loop is chosen per box: one that holds a
// broadcast record (the chunk's fbcast flag) takes foldBoxBcast, the
// rest foldBoxTyped, which tests no header bit. A record stamps its slot
// with this routing's epoch; the first one for a (vertex, type) replaces
// the stale value, the rest fold into it. A second pass over wk's chunks
// then counts the present slots into foldTotal and reactivates their
// vertices. It is wk's fold task in the prefix phase and writes only
// wk's slots, flags and chunks, so no count, placement or unpack ever
// sees a folded message.
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
			if ck := &src.chunks[ci]; ck.fbcast[d] {
				wk.foldBoxBcast(ck.fboxes[d], epoch)
			} else {
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

// foldBoxTyped is the fold loop of a box of per-edge records, which a
// Send of a folded type writes: each record looks up its type's fold and
// slot.
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
// record is folded, or expanded where it sits, over the run its header
// names — by foldRun, or by foldRunInt or foldRunFloat when its type
// declares an edge column.
//
//gm:noalloc
func (wk *worker) foldBoxBcast(box []uint64, epoch uint32) {
	e, ix := wk.e, wk.e.nbrs
	for i := 0; i+foldStride <= len(box); i += foldStride {
		h := box[i]
		if h&bcastBit == 0 {
			wk.foldBoxTyped(box[i:i+foldStride], epoch)
			continue
		}
		src, fi := headerDst(h), int(e.foldIdx[headerType(h)])
		locals, offs := ix.owned(src, headerRun(h))
		switch c := &e.foldEdges[fi]; {
		case c.i != nil:
			wk.foldRunInt(locals, offs, c.i[ix.start[src]:], fi, box[i+1], epoch)
		case c.f != nil:
			wk.foldRunFloat(locals, offs, c.f[ix.start[src]:], fi, box[i+1], epoch)
		default:
			wk.foldRun(locals, fi, box[i+1], epoch)
		}
	}
}

// foldRun folds payload m of the fi-th folded type into the slots of
// the local vertices locals — one broadcast record's expansion —
// choosing the fold once for the run. PageRank's sum is written out,
// as apply is past the inliner's budget and this is the loop every
// PageRank message is folded in.
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

// foldRunInt is foldRun for an int fold whose type declares an edge
// column: locals[k] is folded m + col[offs[k]], col starting at the
// sender's first out-edge — the payload, wrapped as int64 addition
// wraps, that a per-edge Send would have carried. SSSP's min is written
// out.
//
//gm:noalloc
func (wk *worker) foldRunInt(locals []graph.NodeID, offs []uint32, col []int64, fi int, m uint64, epoch uint32) {
	nf := len(wk.e.folds)
	slots, offs, x := wk.folds[fi:], offs[:len(locals)], int64(m)
	switch f := wk.e.folds[fi]; f.Op {
	case AggMin:
		for k, li := range locals {
			s, y := &slots[int(li)*nf], x+col[offs[k]]
			v := int64(s.val)
			if y < v || s.stamp != epoch {
				v = y
			}
			s.val, s.stamp = uint64(v), epoch
		}
	default:
		for k, li := range locals {
			s, y := &slots[int(li)*nf], uint64(x+col[offs[k]])
			v := f.apply(s.val, y)
			if s.stamp != epoch {
				v = y
			}
			s.val, s.stamp = v, epoch
		}
	}
}

// foldRunFloat is foldRunInt for a float fold: locals[k] is folded the
// float64 sum m + col[offs[k]].
//
//gm:noalloc
func (wk *worker) foldRunFloat(locals []graph.NodeID, offs []uint32, col []float64, fi int, m uint64, epoch uint32) {
	nf := len(wk.e.folds)
	slots, offs, x := wk.folds[fi:], offs[:len(locals)], math.Float64frombits(m)
	f := wk.e.folds[fi]
	for k, li := range locals {
		s, y := &slots[int(li)*nf], math.Float64bits(x+col[offs[k]])
		v := f.apply(s.val, y)
		if s.stamp != epoch {
			v = y
		}
		s.val, s.stamp = v, epoch
	}
}

// edgeCol is a folded type's Schema.EdgeAdd column, by kind; both nil
// when the type declares none.
type edgeCol struct {
	i []int64
	f []float64
}

// foldEdgeCols resolves Schema.EdgeAdd against the folded types: cols[fi]
// is the fi-th folded type's column. Any declaration the engine cannot
// honour exactly is a schema error.
func foldEdgeCols(s Schema, idx []int8, folds []Fold, numEdges int64) ([]edgeCol, error) {
	cols := make([]edgeCol, len(folds))
	if s.EdgeAdd != nil && len(s.EdgeAdd) != len(idx) {
		return nil, fmt.Errorf("pregel: schema declares %d message types but %d EdgeAdd entries", len(idx), len(s.EdgeAdd))
	}
	for t, col := range s.EdgeAdd {
		if col == nil {
			continue
		}
		if idx[t] < 0 {
			return nil, fmt.Errorf("pregel: schema declares an edge column for message type %d, which is not folded", t)
		}
		f, c := folds[idx[t]], &cols[idx[t]]
		var n int
		kind := AggKindInt
		switch col := col.(type) {
		case []int64:
			c.i, n = col, len(col)
		case []float64:
			c.f, n, kind = col, len(col), AggKindFloat
		default:
			return nil, fmt.Errorf("pregel: schema declares a %T edge column for message type %d; want []int64 or []float64", col, t)
		}
		switch {
		case f.Kind != AggKindInt && f.Kind != AggKindFloat:
			return nil, fmt.Errorf("pregel: schema declares an edge column for message type %d, whose fold is over %v; only int and float folds take one", t, f.Kind)
		case kind != f.Kind:
			return nil, fmt.Errorf("pregel: schema declares a %v edge column for message type %d, whose fold is over %v", kind, t, f.Kind)
		case int64(n) != numEdges:
			return nil, fmt.Errorf("pregel: schema declares an edge column of %d values for message type %d; the graph has %d edges", n, t, numEdges)
		}
	}
	return cols, nil
}

// nbrIndex is the per-destination edge index broadcast records expand
// over. local lists every vertex's out-neighbours in its CSR range, as
// local indices on their owners, stably regrouped by owner in worker
// order, and off each one's out-edge offset within that range, which
// an edge column is read at; the runs of vertex v,
// runs[runOff[v]:runOff[v+1]], name each worker owning any of them and
// the end of its group (start is the graph's OutStart). A vertex has at
// most min(deg, W) runs, so the index is O(V+E) words at any W. With
// one worker every id is its own local index, so local is the CSR
// itself (hence its NodeID type), runOff is nil, and off is the
// identity up to the largest out-degree.
//
// The index is a pure function of the graph, the worker count and the
// partitioner, so it is built once per graph for each pair and shared,
// read-only, by every run that broadcasts (graph.Directed.Derived); it
// lives as long as the graph.
type nbrIndex struct {
	start  []int64
	local  []graph.NodeID
	off    []uint32
	runOff []int64
	runs   []nbrRun
}

type nbrRun struct {
	end    int64
	worker int32
}

// nbrIndexKey names the broadcast index among a graph's derived values.
type nbrIndexKey struct {
	workers int
	part    PartitionKind
}

// nbrIndex returns the run's broadcast index, fetching it on the first
// folded broadcast: a run that never sends one never pays for it, and
// the first run on a graph at this worker count and partitioner builds
// it for the rest. A rollback keeps it.
func (e *engine) nbrIndex() *nbrIndex {
	e.nbrsOnce.Do(func() {
		key := nbrIndexKey{workers: e.numWorkers, part: e.cfg.Partitioner}
		e.nbrs = e.g.Derived(key, func() any { return e.buildNbrIndex() }).(*nbrIndex)
	})
	return e.nbrs
}

// buildNbrIndex builds the index for e's graph and partition: the CSR
// and an identity at one worker, otherwise one pass over each vertex's
// out-neighbours that counts them per owner and a second that places
// them stably. It reads e's partition and keeps nothing of e.
func (e *engine) buildNbrIndex() *nbrIndex {
	g := e.g
	n := g.NumNodes()
	ix := &nbrIndex{start: g.OutStart, local: g.OutDst}
	if e.numWorkers == 1 {
		deg := int64(0)
		for v := range n {
			deg = max(deg, g.OutStart[v+1]-g.OutStart[v])
		}
		ix.off = make([]uint32, deg)
		for k := range ix.off {
			ix.off[k] = uint32(k)
		}
		return ix
	}
	wk := e.workers[0]
	ix.local = make([]graph.NodeID, len(g.OutDst))
	ix.off = make([]uint32, len(g.OutDst))
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
			ix.off[at[w]] = uint32(k)
			at[w]++
		}
		for _, w := range seen {
			at[w] = 0
		}
		ix.runOff[v+1] = int64(len(ix.runs))
	}
	return ix
}

// owned returns the local indices, on their owner, of the out-neighbours
// of broadcast sender s in its k-th run, in out-edge order, and their
// out-edge offsets within s's CSR range: those the run's worker owns.
//
//gm:noalloc
func (ix *nbrIndex) owned(s graph.NodeID, k int) ([]graph.NodeID, []uint32) {
	lo := ix.start[s]
	if ix.runOff == nil {
		hi := ix.start[s+1]
		return ix.local[lo:hi], ix.off[:hi-lo]
	}
	j := int(ix.runOff[s]) + k
	if k > 0 {
		lo = ix.runs[j-1].end
	}
	hi := ix.runs[j].end
	return ix.local[lo:hi], ix.off[lo:hi]
}

// nbrRunBytes is the size of one run, padding included.
const nbrRunBytes = 16

// bytes is the index's footprint as the governor accounts it, the CSR
// it aliases at one worker excluded.
//
//gm:noalloc
func (ix *nbrIndex) bytes() int64 {
	if ix == nil {
		return 0
	}
	b := int64(len(ix.off)) * 4
	if ix.runOff != nil {
		b += int64(len(ix.local))*4 + int64(len(ix.runOff))*8 + int64(len(ix.runs))*nbrRunBytes
	}
	return b
}
