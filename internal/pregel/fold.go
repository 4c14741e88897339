package pregel

import (
	"fmt"
	"math"
	"slices"

	"gmpregel/internal/graph"
)

// Fold is the delivery fold of a message type that declares one
// (MessageType.Fold names Op; Kind is the type's one field): all
// messages of the type sent to one vertex in a superstep reach it as one
// message carrying the reduction of their payloads. The fold must be
// what the receiving handler does message by message (`x op= payload`),
// which then runs once on the folded payload. Sum, Min and Max take
// Int, Float or Node (Node: Min and Max only, comparing ids as Msg.Node
// reads them); Or and And take Int or Bool and fold to 0 or 1. A float
// Min or Max never keeps a NaN over a number, as the handler's < never
// picks one; a float Sum adds in the canonical delivery order (source
// worker, chunk, emission), so a handler accumulating from ±0 gets the
// bits the unfolded messages would give it. Stats bill every Send as
// before.
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

// fold folds payload m of a type folding by f into s and stamps it with
// this routing's epoch: the first payload for a (vertex, type) replaces
// the value an earlier routing left, the rest fold into it.
//
//gm:noalloc
func (s *foldSlot) fold(f Fold, m uint64, epoch uint32) {
	if s.stamp == epoch {
		m = f.apply(s.val, m)
	}
	s.val, s.stamp = m, epoch
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

// foldInbox pulls the folded types this routing pulls (pullFold), folds
// every other fold-box record addressed to wk into its fold slots,
// walking the source workers, their chunks and each box in emission
// order — the canonical order the CSR inbox is built in, so a fold's
// result is the same under every schedule — and sets foldTotal to the
// number of records. It is wk's fold task in the routing phase and
// writes only wk's slots and foldTotal, so no count, placement or unpack
// ever sees a folded message; runChunk activates the recipients.
//
//gm:noalloc
func (wk *worker) foldInbox() {
	e := wk.e
	if len(e.folds) == 0 {
		return
	}
	for fi, p := range e.pull {
		if p {
			wk.pullFold(fi, e.foldEpoch)
		}
	}
	d, recs := wk.index, 0
	for _, src := range e.workers {
		for ci := range src.chunks {
			box := src.chunks[ci].fboxes[d]
			recs += len(box) / foldStride
			if e.npull < len(e.folds) {
				wk.foldBox(box, e.foldEpoch)
			}
		}
	}
	wk.foldTotal = recs
}

// foldBox folds one box's records in emission order. A per-edge record,
// which a Send of a folded type writes, folds into its vertex's slot; a
// broadcast record is expanded where it sits by foldRun — the messages,
// in the order, that per-edge records would have folded — unless its
// type is pulled this routing (pullFold).
//
//gm:noalloc
func (wk *worker) foldBox(box []uint64, epoch uint32) {
	e, nf := wk.e, len(wk.e.folds)
	for i := 0; i+foldStride <= len(box); i += foldStride {
		h, m := box[i], box[i+1]
		fi := int(e.foldIdx[headerType(h)])
		if h&bcastBit == 0 {
			wk.folds[wk.localOf(headerDst(h))*nf+fi].fold(e.folds[fi], m, epoch)
		} else if !e.pull[fi] {
			wk.foldRun(headerDst(h), fi, m, epoch)
		}
	}
}

// foldRun folds payload m of the fi-th folded type, broadcast by src,
// into the slots of src's out-neighbours wk owns, in out-edge order,
// adding the type's edge column at each out-edge if it declares one.
// SSSP's int min over its column is written out: apply is past the
// inliner's budget, and every pushed SSSP message is folded here.
//
//gm:noalloc
func (wk *worker) foldRun(src graph.NodeID, fi int, m uint64, epoch uint32) {
	e, nf := wk.e, len(wk.e.folds)
	locals, offs := e.nbrs.owned(src, wk.index)
	slots, offs := wk.folds[fi:], offs[:len(locals)]
	f, c, base := e.folds[fi], &e.foldEdges[fi], e.nbrs.start[src]
	if f == (Fold{AggMin, AggKindInt}) && c.i != nil {
		col, x := c.i[base:], int64(m)
		for k, li := range locals {
			s, y := &slots[int(li)*nf], x+col[offs[k]]
			v := int64(s.val)
			if y < v || s.stamp != epoch {
				v = y
			}
			s.val, s.stamp = uint64(v), epoch
		}
		return
	}
	for k, li := range locals {
		slots[int(li)*nf].fold(f, c.add(m, base+int64(offs[k])), epoch)
	}
}

// edgeCol is a folded type's MessageType.EdgeAdd column, by kind; both
// nil when the type declares none.
type edgeCol struct {
	i []int64
	f []float64
}

// newEdgeCol checks col, the EdgeAdd of message type t, folded over
// kind, against a graph of numEdges edges (< 0: any length).
func newEdgeCol(col any, kind AggKind, t int, numEdges int64) (c edgeCol, err error) {
	n, colKind := 0, AggKindInt
	switch col := col.(type) {
	case nil:
		return c, nil
	case []int64:
		c.i, n = col, len(col)
	case []float64:
		c.f, n, colKind = col, len(col), AggKindFloat
	default:
		return c, fmt.Errorf("pregel: schema declares a %T edge column for message type %d; want []int64 or []float64", col, t)
	}
	switch {
	case kind != AggKindInt && kind != AggKindFloat:
		return c, fmt.Errorf("pregel: schema declares an edge column for message type %d, whose fold is over %v; only int and float folds take one", t, kind)
	case colKind != kind:
		return c, fmt.Errorf("pregel: schema declares a %v edge column for message type %d, whose fold is over %v", colKind, t, kind)
	case numEdges >= 0 && int64(n) != numEdges:
		return c, fmt.Errorf("pregel: schema declares an edge column of %d values for message type %d; the graph has %d edges", n, t, numEdges)
	}
	return c, nil
}

// add returns payload m plus the column's value at out-edge e, in the
// column's kind, or m itself when the type declares no column.
//
//gm:noalloc
func (c *edgeCol) add(m uint64, e int64) uint64 {
	switch {
	case c.i != nil:
		return uint64(int64(m) + c.i[e])
	case c.f != nil:
		return math.Float64bits(math.Float64frombits(m) + c.f[e])
	}
	return m
}

// nbrIndex is the per-destination edge index broadcast records expand
// over. local lists every vertex's out-neighbours in its CSR range, as
// local indices on their owners, stably regrouped by owner in worker
// order, and off each one's out-edge offset within that range, which
// an edge column is read at. cut holds one row of W+1 offsets per
// vertex v, relative to its first out-edge: worker d's group is
// [cut[v*(W+1)+d], cut[v*(W+1)+d+1]), empty when d owns none of v's
// out-neighbours, so the index is 8·E + 4·V·(W+1) bytes. With one
// worker every id is its own local index, so local is the CSR itself
// (hence its NodeID type), cut is nil, and off is the identity up to
// the largest out-degree.
//
// The index is a pure function of the graph, the worker count and the
// partitioner, so it is built once per graph for each pair and shared,
// read-only, by every run that broadcasts (graph.Directed.Derived); it
// lives as long as the graph.
type nbrIndex struct {
	start []int64
	local []graph.NodeID
	off   []uint32
	cut   []uint32
	row   int // the length of a cut row, W+1
	// senders is the number of vertices with an out-edge: the broadcasts
	// of one folded type a dense superstep makes.
	senders int64
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
// out-neighbours that counts them per owner into its cut row and a
// second that places them stably. It reads e's partition and keeps
// nothing of e.
func (e *engine) buildNbrIndex() *nbrIndex {
	g := e.g
	n := g.NumNodes()
	ix, deg := &nbrIndex{start: g.OutStart, local: g.OutDst}, int64(0)
	for v := range n {
		d := g.OutStart[v+1] - g.OutStart[v]
		ix.senders, deg = ix.senders+min(d, 1), max(deg, d)
	}
	if e.numWorkers == 1 {
		ix.off = make([]uint32, deg)
		for k := range ix.off {
			ix.off[k] = uint32(k)
		}
		return ix
	}
	wk, w := e.workers[0], e.numWorkers
	ix.row = w + 1
	ix.local = make([]graph.NodeID, len(g.OutDst))
	ix.off = make([]uint32, len(g.OutDst))
	ix.cut = make([]uint32, n*ix.row)
	at := make([]int64, w) // each owner's placement cursor
	for v := range n {
		lo, hi := g.OutStart[v], g.OutStart[v+1]
		cut := ix.cut[v*ix.row:][:ix.row]
		for _, u := range g.OutDst[lo:hi] {
			cut[wk.ownerOf(u)+1]++
		}
		for d := range w {
			cut[d+1] += cut[d]
			at[d] = lo + int64(cut[d])
		}
		for k, u := range g.OutDst[lo:hi] {
			d := wk.ownerOf(u)
			ix.local[at[d]] = graph.NodeID(e.workers[d].localOf(u))
			ix.off[at[d]] = uint32(k)
			at[d]++
		}
	}
	return ix
}

// owned returns the local indices, on worker d, of the out-neighbours
// of broadcast sender s that d owns, in out-edge order, and their
// out-edge offsets within s's CSR range.
//
//gm:noalloc
func (ix *nbrIndex) owned(s graph.NodeID, d int) ([]graph.NodeID, []uint32) {
	lo, hi := ix.start[s], ix.start[s+1]
	if ix.cut == nil {
		return ix.local[lo:hi], ix.off[:hi-lo]
	}
	cut := ix.cut[int(s)*ix.row+d:]
	lo, hi = lo+int64(cut[0]), lo+int64(cut[1])
	return ix.local[lo:hi], ix.off[lo:hi]
}

// bytes is the index's footprint as the governor accounts it, the CSR
// it aliases at one worker excluded.
//
//gm:noalloc
func (ix *nbrIndex) bytes() int64 {
	if ix == nil {
		return 0
	}
	b := int64(len(ix.off)+len(ix.cut)) * 4
	if ix.cut != nil {
		b += int64(len(ix.local)) * 4
	}
	return b
}

// ---- Dense broadcasts: the pull fold ----
//
// A folded SendToAllNbrs also stores its payload word in its worker's
// value column, stamped with the superstep, and counts itself on its
// chunk (chunk.fbcast). If at routing every vertex with an out-edge
// broadcast a folded type exactly once and nothing sent it per edge —
// one global rule, the same at every W — each destination's fold task
// pulls the type: it folds the senders' values over its vertices'
// in-edges, the first seeding the slot, and leaves the type's records
// unexpanded. The in-index lists in-edges in (source worker, source
// local, out-edge) order, the order the push fold meets them in when
// every vertex broadcasts once (workers, chunks, vertices, then each
// record's out-edges), so the slots get push's bits. A Send of the type
// or a second broadcast, which finds its own stamp, spoils the count. A
// replay after a rollback rewrites every value it pulls; a stamp its
// rolled-back attempt left at the same superstep can only spoil it.

// posGap is the positions between two workers' stretches of the value
// columns: a cacheBlock at least, one stamp per position and type.
const posGap = cacheBlock / 4

// initBroadcastCols lays out the value columns: worker w's vertices take
// positions vbase[w]+local, and each worker's columns are its stretch.
func (e *engine) initBroadcastCols() {
	nf, npos := len(e.folds), 0
	e.vbase = make([]int, e.numWorkers)
	for w, wk := range e.workers {
		e.vbase[w], npos = npos, npos+len(wk.ids)+posGap
	}
	e.pull = make([]bool, nf)
	e.bvals, e.bstamp = Padded[uint64](npos*nf), Padded[uint32](npos*nf)
	for w, wk := range e.workers {
		lo, hi := e.vbase[w]*nf, (e.vbase[w]+len(wk.ids))*nf
		wk.bvals, wk.bstamp = e.bvals[lo:hi:hi], e.bstamp[lo:hi:hi]
	}
}

// planPulls decides which folded types this routing pulls, from the
// chunks' counts, fetches the in-index on the first pull, and its edge
// column on the first pull of a type that declares one.
func (e *engine) planPulls() {
	e.npull = 0
	key := nbrIndexKey{e.numWorkers, e.cfg.Partitioner}
	for fi := range e.pull {
		n, dense := int64(0), e.nbrs != nil
		for _, wk := range e.workers {
			for ci := range wk.chunks {
				c := wk.chunks[ci].fbcast[fi]
				dense, n = dense && c >= 0, n+int64(c)
			}
		}
		if e.pull[fi] = dense && n > 0 && n == e.nbrs.senders; !e.pull[fi] {
			continue
		}
		e.npull++
		if e.in == nil {
			e.in = new(inIndex)
			*e.in = *e.g.Derived(inIndexKey{key, false}, func() any { return e.buildInIndex(false) }).(*inIndex)
		}
		if c := e.foldEdges[fi]; e.in.edge == nil && (c.i != nil || c.f != nil) {
			e.in.edge = e.g.Derived(inIndexKey{key, true}, func() any { return e.buildInIndex(true).edge }).([]int64)
		}
	}
	e.pulls += int64(e.npull)
}

// pullFold folds the fi-th folded type's values into wk's slots over
// the in-index. PageRank's float sum is written out.
//
//gm:noalloc
func (wk *worker) pullFold(fi int, epoch uint32) {
	e, ix := wk.e, wk.e.in
	nf := len(e.folds)
	vals, slots := e.bvals[fi:], wk.folds
	off := ix.off[e.vbase[wk.index]:][:len(wk.ids)+1]
	f, c := e.folds[fi], &e.foldEdges[fi]
	sum := f == (Fold{AggSum, AggKindFloat}) && c.f == nil
	for li := range wk.ids {
		lo, hi := off[li], off[li+1]
		if lo == hi {
			continue
		}
		if sum {
			acc := math.Float64frombits(vals[int(ix.src[lo])*nf])
			for _, p := range ix.src[lo+1 : hi] {
				acc += math.Float64frombits(vals[int(p)*nf])
			}
			slots[li*nf+fi] = foldSlot{math.Float64bits(acc), epoch}
			continue
		}
		s := &slots[li*nf+fi]
		for k := lo; k < hi; k++ {
			m := vals[int(ix.src[k])*nf]
			if c.i != nil || c.f != nil {
				m = c.add(m, ix.edge[k])
			}
			s.fold(f, m, epoch)
		}
	}
}

// inIndex is the in-index: the in-edges of the vertex at position p
// (initBroadcastCols) are entries [off[p], off[p+1]), each its sender's
// position and, for a type with an edge column, its out-edge, in
// (source worker, source local, out-edge) order. With one worker a
// position is an id and the index is the graph's in-CSR. Like nbrIndex,
// off and src, and apart from them the edge column, are built once per
// graph, worker count and partitioner and shared read-only.
type inIndex struct {
	off  []int64
	src  []graph.NodeID
	edge []int64
}

// inIndexKey names off and src, or with edge the edge column, among a
// graph's derived values.
type inIndexKey struct {
	nbrIndexKey
	edge bool
}

// buildInIndex builds e's in-index, with the edge column if edge (of
// which planPulls keeps only the column): a counting sort of the edges
// by destination position, placed walking the senders in position order.
func (e *engine) buildInIndex(edge bool) *inIndex {
	g := e.g
	if e.numWorkers == 1 {
		start, src, edge := g.InCSR()
		return &inIndex{off: start, src: src, edge: edge}
	}
	pos := func(v graph.NodeID) int {
		w := e.workers[0].ownerOf(v)
		return e.vbase[w] + e.workers[w].localOf(v)
	}
	npos := len(e.bvals) / len(e.folds)
	ix := &inIndex{off: make([]int64, npos+1), src: make([]graph.NodeID, len(g.OutDst))}
	if edge {
		ix.edge = make([]int64, len(g.OutDst))
	}
	for _, u := range g.OutDst {
		ix.off[pos(u)+1]++
	}
	for p := range npos {
		ix.off[p+1] += ix.off[p]
	}
	next := slices.Clone(ix.off[:npos])
	for w, wk := range e.workers {
		for li, v := range wk.ids {
			for k := g.OutStart[v]; k < g.OutStart[v+1]; k++ {
				q := pos(g.OutDst[k])
				ix.src[next[q]] = graph.NodeID(e.vbase[w] + li)
				if edge {
					ix.edge[next[q]] = k
				}
				next[q]++
			}
		}
	}
	return ix
}

// inIndexBytes is the in-index's footprint as the governor accounts it:
// none before the first pull, nor at one worker, where it is the graph's.
//
//gm:noalloc
func (e *engine) inIndexBytes() int64 {
	if e.in == nil || e.numWorkers == 1 {
		return 0
	}
	return int64(len(e.in.off))*8 + int64(len(e.in.src))*4 + int64(len(e.in.edge))*8
}
