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
// broadcast record is expanded where it sits, over its sender's
// out-neighbours wk owns, in out-edge order — the messages, in the
// order, that per-edge records would have folded — by foldRun, or by
// foldRunEdge when its type declares an edge column, unless its type is
// pulled this routing (pullFold). A record stamps its slot with this
// routing's epoch; the first one for a (vertex, type) replaces the stale
// value, the rest fold into it.
//
//gm:noalloc
func (wk *worker) foldBox(box []uint64, epoch uint32) {
	e, nf := wk.e, len(wk.e.folds)
	for i := 0; i+foldStride <= len(box); i += foldStride {
		h, m := box[i], box[i+1]
		fi := int(e.foldIdx[headerType(h)])
		if h&bcastBit == 0 {
			s := &wk.folds[wk.localOf(headerDst(h))*nf+fi]
			v := e.folds[fi].apply(s.val, m)
			if s.stamp != epoch {
				v = m
			}
			s.val, s.stamp = v, epoch
			continue
		}
		if e.pull[fi] {
			continue
		}
		src := headerDst(h)
		locals, offs := e.nbrs.owned(src, headerRun(h))
		if c := &e.foldEdges[fi]; c.i != nil || c.f != nil {
			wk.foldRunEdge(locals, offs, c, e.nbrs.start[src], fi, m, epoch)
		} else {
			wk.foldRun(locals, fi, m, epoch)
		}
	}
}

// foldRun folds payload m of the fi-th folded type into the slots of
// the local vertices locals — one broadcast record's expansion —
// choosing the fold once for the run. PageRank's sum is written out,
// as apply is past the inliner's budget and this is the loop every
// pushed PageRank message is folded in.
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

// foldRunEdge is foldRun for a type that declares the edge column c:
// locals[k] is folded m plus c at out-edge base+offs[k], base being the
// sender's first out-edge — the payload, wrapped as int64 addition wraps
// or summed in float64, that a per-edge Send would have carried. SSSP's
// int min is written out.
//
//gm:noalloc
func (wk *worker) foldRunEdge(locals []graph.NodeID, offs []uint32, c *edgeCol, base int64, fi int, m uint64, epoch uint32) {
	nf := len(wk.e.folds)
	slots, offs := wk.folds[fi:], offs[:len(locals)]
	f := wk.e.folds[fi]
	if f == (Fold{AggMin, AggKindInt}) {
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
		s, y := &slots[int(li)*nf], c.add(m, base+int64(offs[k]))
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

// add returns payload m plus the column's value at out-edge e, in the
// column's kind.
//
//gm:noalloc
func (c *edgeCol) add(m uint64, e int64) uint64 {
	if c.i != nil {
		return uint64(int64(m) + c.i[e])
	}
	return math.Float64bits(math.Float64frombits(m) + c.f[e])
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
	// senders is the number of vertices with an out-edge: the broadcasts
	// of one folded type a dense superstep makes.
	senders int64
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
	for v := range n {
		ix.senders += min(g.OutStart[v+1]-g.OutStart[v], 1)
	}
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
// chunks' counts, and fetches the in-index on the first pull.
func (e *engine) planPulls() {
	e.npull = 0
	for fi := range e.pull {
		n, dense := int64(0), e.nbrs != nil
		for _, wk := range e.workers {
			for ci := range wk.chunks {
				c := wk.chunks[ci].fbcast[fi]
				dense, n = dense && c >= 0, n+int64(c)
			}
		}
		e.pull[fi] = dense && n > 0 && n == e.nbrs.senders
		if e.pull[fi] {
			e.npull++
		}
	}
	if e.npull > 0 && e.in == nil {
		key := inIndexKey{workers: e.numWorkers, part: e.cfg.Partitioner}
		e.in = e.g.Derived(key, func() any { return e.buildInIndex() }).(*inIndex)
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
		var acc uint64
		for k := lo; k < hi; k++ {
			m := vals[int(ix.src[k])*nf]
			if c.i != nil || c.f != nil {
				m = c.add(m, ix.edge[k])
			}
			if acc = f.apply(acc, m); k == lo {
				acc = m
			}
		}
		slots[li*nf+fi] = foldSlot{acc, epoch}
	}
}

// inIndex is the in-index: the in-edges of the vertex at position p
// (initBroadcastCols) are entries [off[p], off[p+1]), each its sender's
// position and its out-edge, in (source worker, source local, out-edge)
// order. With one worker a position is an id and the index is the
// graph's in-CSR. Like nbrIndex it is built once per graph, worker count
// and partitioner and shared read-only.
type inIndex struct {
	off  []int64
	src  []graph.NodeID
	edge []int64
}

type inIndexKey nbrIndexKey

// buildInIndex builds the in-index for e's graph and partition: a
// counting sort of the edges by destination position, placed walking
// the senders in position order.
func (e *engine) buildInIndex() *inIndex {
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
	ix := &inIndex{off: make([]int64, npos+1), src: make([]graph.NodeID, len(g.OutDst)), edge: make([]int64, len(g.OutDst))}
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
				ix.src[next[q]], ix.edge[next[q]] = graph.NodeID(e.vbase[w]+li), k
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
