package pregel

import (
	"cmp"
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

// foldPiece folds every fold-box record addressed to fold piece p into
// its fold slots, walking the source workers, their chunks and each box
// in emission order — the canonical order the CSR inbox is built in, so
// a fold's result is the same under every schedule and every cut. A
// broadcast record is expanded where it sits, over its sender's
// out-neighbours in p, in out-edge order: the messages, in the order,
// that per-edge records would have folded. The loop is chosen per box:
// one that holds a broadcast record (the chunk's fbcast flag) takes
// foldBoxBcast, the rest the per-edge loops, which test no header bit. A
// record stamps its slot with this routing's epoch; the first one for a
// (vertex, type) replaces the stale value, the rest fold into it. A
// second pass over p's chunks then counts the present slots into
// foldPresent[p] and reactivates their vertices. It is p's prefix task
// and writes only p's slots and chunks, so no count, placement or unpack
// ever sees a folded message.
//
//gm:noalloc
func (e *engine) foldPiece(p int) {
	nf := len(e.folds)
	if nf == 0 {
		return
	}
	pc := &e.pieces.list[p]
	wk, epoch := e.workers[pc.worker], e.foldEpoch
	for _, src := range e.workers {
		for ci := range src.chunks {
			switch ck := &src.chunks[ci]; {
			case ck.fbcast[p]:
				wk.foldBoxBcast(ck.fboxes[p], epoch)
			case nf == 1:
				wk.foldBox(ck.fboxes[p], e.folds[0], epoch)
			default:
				wk.foldBoxTyped(ck.fboxes[p], epoch)
			}
		}
	}
	total := 0
	for ci := pc.ciLo; ci < pc.ciHi; ci++ {
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
	e.foldPresent[p] = total
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
// float64 sum m + col[offs[k]]. A sum fold is written out.
//
//gm:noalloc
func (wk *worker) foldRunFloat(locals []graph.NodeID, offs []uint32, col []float64, fi int, m uint64, epoch uint32) {
	nf := len(wk.e.folds)
	slots, offs, x := wk.folds[fi:], offs[:len(locals)], math.Float64frombits(m)
	switch f := wk.e.folds[fi]; f.Op {
	case AggSum:
		for k, li := range locals {
			s, y := &slots[int(li)*nf], x+col[offs[k]]
			v := math.Float64bits(math.Float64frombits(s.val) + y)
			if s.stamp != epoch {
				v = math.Float64bits(y)
			}
			s.val, s.stamp = v, epoch
		}
	default:
		for k, li := range locals {
			s, y := &slots[int(li)*nf], math.Float64bits(x+col[offs[k]])
			v := f.apply(s.val, y)
			if s.stamp != epoch {
				v = y
			}
			s.val, s.stamp = v, epoch
		}
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

// nbrIndex is the per-piece edge index broadcast records expand over.
// local lists every vertex's out-neighbours in its CSR range, as local
// indices on their owners, stably regrouped by fold piece in piece
// order — so by owner in worker order, and in out-edge order within a
// piece — and off each one's out-edge offset within that range, which
// an edge column is read at; the runs of vertex v,
// runs[runOff[v]:runOff[v+1]], name each piece holding any of them, its
// owner, and the end of its group (start is the graph's OutStart). A
// vertex has at most min(deg, pieces) runs, so the index is O(V+E)
// words at any W. With one worker, and so one piece, every id is its
// own local index, so local is the CSR itself (hence its NodeID type),
// runOff is nil, and off is the identity up to the largest out-degree.
//
// The index is a pure function of the graph and the cut (pieceKey), so
// it is built once per graph for each cut and shared, read-only, by
// every run that broadcasts (graph.Directed.Derived); it lives as long
// as the graph.
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
	piece  int32
}

// nbrIndexKey names the broadcast index among a graph's derived values:
// the index of the cut pieceKey names.
type nbrIndexKey struct{ pieceKey }

// nbrIndex returns the run's broadcast index, fetching it on the first
// folded broadcast: a run that never sends one never pays for it, and
// the first run on a graph with this cut builds it for the rest. A
// rollback keeps it.
func (e *engine) nbrIndex() *nbrIndex {
	e.nbrsOnce.Do(func() {
		key := nbrIndexKey{e.pieceKey()}
		e.nbrs = e.g.Derived(key, func() any { return e.buildNbrIndex() }).(*nbrIndex)
	})
	return e.nbrs
}

// buildNbrIndex builds the index for e's graph and pieces: the CSR and
// an identity at one worker, otherwise one pass over each vertex's
// out-neighbours that counts them per piece and a second that places
// them stably. It reads e's partition and pieces and keeps nothing of e.
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
	wk, pieces := e.workers[0], e.pieces.list
	ix.local = make([]graph.NodeID, len(g.OutDst))
	ix.off = make([]uint32, len(g.OutDst))
	ix.runOff = make([]int64, n+1)
	ix.runs = make([]nbrRun, 0, n)
	// at counts the current vertex's out-neighbours per piece, then
	// serves as each piece's placement cursor; it is zero between
	// vertices. piece caches each out-neighbour's piece, seen the
	// distinct ones.
	at := make([]int64, len(pieces))
	var piece, seen []int32
	for v := range n {
		lo, hi := g.OutStart[v], g.OutStart[v+1]
		piece, seen = piece[:0], seen[:0]
		for _, u := range g.OutDst[lo:hi] {
			p := int32(wk.pieceOf(wk.ownerOf(u), u))
			if at[p] == 0 {
				seen = append(seen, p)
			}
			at[p]++
			piece = append(piece, p)
		}
		slices.Sort(seen)
		for _, p := range seen {
			at[p], lo = lo, lo+at[p]
			ix.runs = append(ix.runs, nbrRun{end: lo, worker: pieces[p].worker, piece: p})
		}
		for k, u := range g.OutDst[g.OutStart[v]:hi] {
			p := piece[k]
			ix.local[at[p]] = graph.NodeID(e.workers[pieces[p].worker].localOf(u))
			ix.off[at[p]] = uint32(k)
			at[p]++
		}
		for _, p := range seen {
			at[p] = 0
		}
		ix.runOff[v+1] = int64(len(ix.runs))
	}
	return ix
}

// owned returns the local indices, on their owner, of the out-neighbours
// of broadcast sender s in its k-th run, in out-edge order, and their
// out-edge offsets within s's CSR range: those the run's piece holds.
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

// ---- Fold pieces ----
//
// Routing folds each destination's fold boxes into its slots in the
// prefix phase. Under mod placement a skewed graph sends most edges to a
// few workers — on the RMAT web graph at W=2 the even ids receive 76 % —
// and one fold task per destination would leave an executor idle for
// most of the fold. So the fold runs per piece: a chunk-aligned range of
// one worker's vertices, with its own fold box in every source chunk,
// its own broadcast-index runs and its own prefix task. The cut gives
// the executors about equal shares of a static weight, the vertices'
// in-degrees plus the mean in-degree each (newPieceLayout). A slot
// belongs to one piece, and a piece walks its boxes in (source worker,
// chunk, emission, edge) order, so per-slot fold order and bits are
// those of every other cut.

// piece is one fold piece: chunks [ciLo, ciHi) of worker, and their
// weight (newPieceLayout).
type piece struct {
	worker     int32
	ciLo, ciHi int32
	weight     int64
}

// pieceLayout is a run's fold pieces: list in (worker, range) order,
// every worker with at least one; start[w] is worker w's first
// (start[W] = len(list)) and lo[p] piece p's first local index, the two
// pieceOf reads; order is the prefix phase's fold tasks, heaviest piece
// first, so that the executors' dynamic claims pack them.
type pieceLayout struct {
	list  []piece
	start []int32
	lo    []int32
	order []int32
}

// pieceKey names a cut among a graph's derived values. A cut is a pure
// function of the graph, the worker count, the partitioner and the
// chunk geometry ChunkSize fixes.
type pieceKey struct {
	workers int
	part    PartitionKind
	chunk   int
}

func (e *engine) pieceKey() pieceKey {
	return pieceKey{workers: e.numWorkers, part: e.cfg.Partitioner, chunk: e.cfg.ChunkSize}
}

// pieceLayout returns the run's fold pieces: one per worker for a job
// without folds, a run on one worker or a graph without edges, which
// then count no in-degree; otherwise the weighted cut, built by the
// first run on the graph with this key and shared with the rest.
func (e *engine) pieceLayout() *pieceLayout {
	if e.numWorkers == 1 || len(e.folds) == 0 || e.g.NumEdges() == 0 {
		return e.newPieceLayout(false)
	}
	return e.g.Derived(e.pieceKey(), func() any { return e.newPieceLayout(true) }).(*pieceLayout)
}

// newPieceLayout cuts e's workers into fold pieces by the weight of
// their chunks when weigh is set, otherwise into one piece each. A
// vertex weighs its in-degree plus the graph's mean in-degree: a fold
// pays per edge it expands, and per broadcast record and per slot of the
// piece whatever their edges, which the per-vertex term stands for. With
// in-edges alone the cut of the RMAT web graph at W=2 measured no faster
// than none (docs/ENGINE.md). It reads e's partition and chunk geometry
// and keeps nothing of e.
func (e *engine) newPieceLayout(weigh bool) *pieceLayout {
	weights := make([][]int64, e.numWorkers)
	for w, wk := range e.workers {
		weights[w] = make([]int64, len(wk.chunks))
	}
	execs := 1
	if weigh {
		execs = e.numWorkers
		in := make([]int64, e.g.NumNodes())
		for _, u := range e.g.OutDst {
			in[u]++
		}
		mean := e.g.NumEdges() / int64(e.g.NumNodes())
		for w, wk := range e.workers {
			for ci := range wk.chunks {
				for _, v := range wk.ids[wk.chunks[ci].lo:wk.chunks[ci].hi] {
					weights[w][ci] += in[v] + mean
				}
			}
		}
	}
	l := &pieceLayout{list: cutPieces(weights, execs), start: make([]int32, e.numWorkers+1)}
	l.lo = make([]int32, len(l.list))
	l.order = make([]int32, len(l.list))
	for p, pc := range l.list {
		if pc.ciLo < pc.ciHi {
			l.lo[p] = e.workers[pc.worker].chunks[pc.ciLo].lo
		}
		l.start[pc.worker+1] = int32(p + 1)
		l.order[p] = int32(p)
	}
	slices.SortStableFunc(l.order, func(a, b int32) int { return cmp.Compare(l.list[b].weight, l.list[a].weight) })
	return l
}

// cutPieces is the cut rule: it splits the workers, whose chunks weigh
// weights[w][ci], into pieces at those of execCuts' boundaries that fall
// inside a worker. One executor, or worker shares already within half
// the heaviest chunk of even, leave one piece per worker.
func cutPieces(weights [][]int64, execs int) []piece {
	bounds := 1
	for _, ws := range weights {
		bounds += len(ws)
	}
	cut := make([]bool, bounds)
	for _, b := range execCuts(weights, execs) {
		cut[b] = true
	}
	var list []piece
	base := 0
	for w, ws := range weights {
		pc := piece{worker: int32(w)}
		for ci, c := range ws {
			if ci > 0 && cut[base+ci] {
				list = append(list, pc)
				pc = piece{worker: int32(w), ciLo: int32(ci)}
			}
			pc.ciHi = int32(ci + 1)
			pc.weight += c
		}
		list = append(list, pc)
		base += len(ws)
	}
	return list
}

// execCuts returns execs-1 chunk boundaries, ascending, that split the
// workers' chunks, laid end to end in (worker, chunk) order, into execs
// ranges of about equal weight; boundary b lies before the b-th chunk of
// that order. The k-th cut is the boundary nearest k/execs of the total
// weight, which misses it by at most half the chunk holding that point,
// unless a worker boundary misses it by at most half the heaviest chunk:
// that one splits nothing, so the nearest such is taken. Either way each
// range weighs within one heaviest chunk of an equal share.
func execCuts(weights [][]int64, execs int) []int {
	prefix, atWorker := []int64{0}, []bool{true}
	var heaviest int64
	for _, ws := range weights {
		for _, c := range ws {
			prefix = append(prefix, prefix[len(prefix)-1]+c)
			atWorker = append(atWorker, false)
			heaviest = max(heaviest, c)
		}
		atWorker[len(atWorker)-1] = true
	}
	total, x := prefix[len(prefix)-1], int64(execs)
	cuts := make([]int, 0, max(execs-1, 0))
	for k := int64(1); k < x; k++ {
		// miss is |prefix[b] - k*total/execs|, scaled by execs.
		miss := func(b int) int64 {
			d := prefix[b]*x - k*total
			return max(d, -d)
		}
		near, nearWorker := 0, -1
		for b := range prefix {
			if miss(b) < miss(near) {
				near = b
			}
			if atWorker[b] && 2*miss(b) <= heaviest*x && (nearWorker < 0 || miss(b) < miss(nearWorker)) {
				nearWorker = b
			}
		}
		if nearWorker >= 0 {
			near = nearWorker
		}
		cuts = append(cuts, near)
	}
	slices.Sort(cuts)
	return cuts
}

// pieceOf returns the fold piece holding vertex v, which worker w owns:
// w's only piece, or the last of its pieces starting at or before v's
// local index.
//
//gm:noalloc
func (wk *worker) pieceOf(w int, v graph.NodeID) int {
	p, end := wk.pieceStart[w], wk.pieceStart[w+1]
	if end-p > 1 {
		li := int32(wk.e.workers[w].localOf(v))
		for p+1 < end && wk.pieceLo[p+1] <= li {
			p++
		}
	}
	return int(p)
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
