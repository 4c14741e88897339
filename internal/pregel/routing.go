package pregel

import (
	"math/bits"

	"gmpregel/internal/graph"
)

// fastDiv divides nonnegative 32-bit integers by a fixed divisor with a
// Lemire-style multiply-high, replacing the hardware DIV/MOD that would
// otherwise run once or twice per message in the hot paths (under mod
// partitioning, send picks the owning worker with id mod W and routing
// recovers the local index with id / W).
type fastDiv struct {
	m uint64 // ceil(2^64 / d); 0 means d == 1 (identity divide)
	d uint32
}

func newFastDiv(d uint32) fastDiv {
	if d <= 1 {
		return fastDiv{d: 1}
	}
	return fastDiv{m: ^uint64(0)/uint64(d) + 1, d: d}
}

// div returns x / d.
//
//gm:noalloc
func (f fastDiv) div(x uint32) uint32 {
	if f.m == 0 {
		return x
	}
	hi, _ := bits.Mul64(f.m, uint64(x))
	return uint32(hi)
}

// mod returns x % d.
//
//gm:noalloc
func (f fastDiv) mod(x uint32) uint32 { return x - f.div(x)*f.d }

// ownerOf returns the worker index owning vertex v.
//
//gm:noalloc
func (wk *worker) ownerOf(v graph.NodeID) int {
	if wk.pblocks == nil {
		return int(wk.div.mod(uint32(v)))
	}
	return int(wk.pblocks[uint32(v)>>wk.pshift])
}

// localOf returns the local index of v on its owning worker.
//
//gm:noalloc
func (wk *worker) localOf(v graph.NodeID) int {
	if wk.pblocks == nil {
		return int(wk.div.div(uint32(v)))
	}
	return int(v - wk.startID)
}

// ---- Routing ----
//
// Routing moves every outbox into destination workers' inboxes, grouped
// per destination vertex in CSR form, in the canonical (source worker,
// source chunk, emission) order. It runs after the barrier as one pool
// dispatch of a fold task (fold.go) and an inbox task per destination.
// Offsets depend only on the box geometry, never on which executor runs
// a task, and each task writes only its own destination's state, so the
// inbox is bit-identical to a single-threaded sort. Routing activates no
// vertex: runChunk activates a halted one a message reaches.

// routeMessages runs the routing dispatch. Boxes are read-only during
// the phase and truncated by chunk execution at the start of the next
// vertex phase; once inbox capacity has reached its high-water mark,
// routing allocates nothing.
func (e *engine) routeMessages() {
	// Routing rebuilds the inbox in RAM; any spill segment from the
	// previous superstep is dead from here on.
	for _, wk := range e.workers {
		wk.spilled = false
	}
	e.foldEpoch++
	if len(e.folds) > 0 {
		e.planPulls()
	}
	e.runPhase(phaseRoute, 0)
}

// routePhase drains one fold task per destination, then one inbox task
// per destination. A fold writes only its destination's slots and
// foldTotal, an inbox task only its counts, offsets and inbox, so no
// two tasks write the same state.
//
//gm:noalloc
func (x *executor) routePhase() {
	e := x.e
	nw := len(e.workers)
	for {
		t := int(e.taskCursor.Add(1)) - 1
		switch {
		case t < nw:
			e.workers[t].foldInbox()
		case t < 2*nw:
			e.workers[t-nw].routeInbox()
		default:
			return
		}
	}
}

// routeInbox builds wk's CSR inbox from every source worker's boxes for
// it: it counts the records per local destination into inPos, turns the
// counts into inOff (and inMax) and placement cursors, sizes the inbox,
// and places the records, walking the boxes in canonical order both
// times.
//
//gm:noalloc
func (wk *worker) routeInbox() {
	e, d := wk.e, wk.index
	words := 0
	for _, src := range e.workers {
		for ci := range src.chunks {
			words += len(src.chunks[ci].boxes[d])
		}
	}
	total := words / e.stride
	wk.inTotal, wk.inMax = total, 0
	if cap(wk.inFlat) < words {
		// Grow geometrically, like the append-grown boxes: a frontier that
		// widens a little every superstep must not reallocate (and
		// re-zero) the whole inbox each time.
		wk.inFlat = make([]uint64, words, words+words/4) //gm:alloc-ok inbox grows to its high-water mark, then capacity is reused; steady state allocation-free
	} else {
		wk.inFlat = wk.inFlat[:words]
	}
	if total == 0 {
		clear(wk.inOff)
		return
	}
	pos := wk.inPos
	clear(pos)
	for _, src := range e.workers {
		for ci := range src.chunks {
			wk.countRecs(pos, src.chunks[ci].boxes[d])
		}
	}
	var run, widest int32
	for li, c := range pos {
		wk.inOff[li], pos[li] = run, run
		run += c
		widest = max(widest, c)
	}
	wk.inOff[len(pos)] = run
	wk.inMax = int(widest)
	for _, src := range e.workers {
		for ci := range src.chunks {
			wk.placeRecs(pos, src.chunks[ci].boxes[d])
		}
	}
}

// countRecs adds one to cnt[local destination] for every record of box:
// a read of the header words only.
//
//gm:noalloc
func (wk *worker) countRecs(cnt []int32, box []uint64) {
	for i, stride := 0, wk.slots+1; i < len(box); i += stride {
		cnt[wk.localOf(headerDst(box[i]))]++
	}
}

// placeRecs copies every record of box to the inbox position pos holds
// for its destination vertex, advancing that position.
//
//gm:noalloc
func (wk *worker) placeRecs(pos []int32, box []uint64) {
	stride := wk.slots + 1
	in := wk.inFlat
	for i := 0; i+stride <= len(box); i += stride {
		li := wk.localOf(headerDst(box[i]))
		p := int(pos[li])
		pos[li]++
		to, from := in[p*stride:p*stride+stride], box[i:i+stride]
		for k := range to {
			to[k] = from[k]
		}
	}
}
