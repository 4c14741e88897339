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

// maxRouteShards bounds the source-shard fan-out of the routing staging
// (and the retained per-shard counting-sort scratch): source workers are
// grouped into at most this many contiguous shards, each with its own
// count row per destination, so shard counters never write the same
// cache lines.
const maxRouteShards = 8

// eagerSpan records one source shard's eager count timing for the
// PhaseRouteEager trace span emitted at the barrier.
type eagerSpan struct {
	startNS, durNS int64
	executor       int32
}

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
// per destination vertex in CSR form, preserving the canonical (source
// worker, source chunk, emission) order for determinism. The staging is
// sharded by source: workers are grouped into up to maxRouteShards
// contiguous shards, and each (destination, shard) pair owns one
// counting-sort row (srcCounts) that only that shard's counter writes —
// no cross-shard cache contention. The placement is a sharded stable
// counting sort: row offsets depend only on the box geometry, never on
// which executor runs a task, so the inbox is bit-identical to a
// single-threaded sort.
//
// The count pass runs inside the vertex phase (workerEpilogue →
// countShard, as each shard's last chunk retires), overlapped with
// compute still running on other shards; only the prefix and place
// dispatches remain after the barrier. Folded types bypass all of it:
// the prefix phase folds them into the fold slots, one task per
// destination (fold.go), beside the destinations' offset tasks. The
// place phase then wakes each destination's inbox recipients beside the
// placement.

// routeMessages runs the prefix and place sub-phases. Boxes are
// read-only during the phase and truncated by chunk execution at the
// start of the next vertex phase; once inbox/scratch capacity has
// reached its high-water mark, routing allocates nothing.
func (e *engine) routeMessages() {
	// Routing rebuilds the inbox in RAM; any spill segment from the
	// previous superstep is dead from here on.
	for _, wk := range e.workers {
		wk.spilled = false
	}
	e.foldEpoch++
	e.runPhase(phasePrefix, 0)
	e.runPhase(phasePlace, 0)
}

// countShard counts source shard sh's messages destined for dst into
// dst's srcCounts row for the shard, walking the shard's workers (and
// their chunks) in canonical order. A shard that sent nothing to dst
// skips the walk and leaves the row stale — srcMsgs records the total
// so prefix and place skip it too. Called from the worker epilogue that
// retires the shard (overlapped with compute), so exactly one goroutine
// writes each row.
//
//gm:noalloc
func (e *engine) countShard(dst *worker, sh int) {
	lo, hi := e.shardStart[sh], e.shardStart[sh+1]
	d := dst.index
	words := 0
	for s := lo; s < hi; s++ {
		src := e.workers[s]
		for ci := range src.chunks {
			words += len(src.chunks[ci].boxes[d])
		}
	}
	dst.srcMsgs[sh] = int32(words / e.stride)
	if words == 0 {
		return
	}
	cnt := dst.srcCounts[sh]
	for i := range cnt {
		cnt[i] = 0
	}
	for s := lo; s < hi; s++ {
		src := e.workers[s]
		for ci := range src.chunks {
			dst.countRecs(cnt, src.chunks[ci].boxes[d])
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

// placePhase drains (destination, source-shard) placement tasks, then
// one wake task per destination.
//
//gm:noalloc
func (x *executor) placePhase() {
	e := x.e
	grid := int64(e.shards)
	limit := int64(len(e.workers)) * grid
	for {
		t := e.taskCursor.Add(1) - 1
		switch {
		case t < limit:
			e.workers[t/grid].placeShard(int(t % grid))
		case t < limit+int64(len(e.workers)):
			e.workers[t-limit].wake()
		default:
			return
		}
	}
}

// prefixPhase drains one fold task per destination, then one offset
// task per destination. A fold writes only its destination's slots,
// active flags, chunk counters and foldTotal, an offset task only its
// offsets and inbox, so no two tasks write the same state.
//
//gm:noalloc
func (x *executor) prefixPhase() {
	e := x.e
	nw := len(e.workers)
	for {
		t := int(e.taskCursor.Add(1)) - 1
		switch {
		case t < nw:
			e.workers[t].foldInbox()
		case t < 2*nw:
			e.workers[t-nw].routePrefix()
		default:
			return
		}
	}
}

// routePrefix turns the per-shard counts into placement offsets and the
// CSR inbox offsets, and sizes the inbox. Offsets derive only from
// counts, so placement is execution-order independent.
//
//gm:noalloc
func (wk *worker) routePrefix() {
	shards := len(wk.srcMsgs)
	total := 0
	for s := 0; s < shards; s++ {
		total += int(wk.srcMsgs[s])
	}
	wk.inTotal = total
	wk.inMax = 0
	if words := total * (wk.slots + 1); cap(wk.inFlat) < words {
		// Grow geometrically, like the append-grown boxes: a frontier that
		// widens a little every superstep must not reallocate (and
		// re-zero) the whole inbox each time.
		wk.inFlat = make([]uint64, words, words+words/4) //gm:alloc-ok inbox grows to its high-water mark, then capacity is reused; steady state allocation-free
	} else {
		wk.inFlat = wk.inFlat[:words]
	}
	n := len(wk.ids)
	if total == 0 {
		for i := range wk.inOff {
			wk.inOff[i] = 0
		}
		return
	}
	var run, widest int32
	for li := 0; li < n; li++ {
		wk.inOff[li] = run
		for s := 0; s < shards; s++ {
			if wk.srcMsgs[s] == 0 {
				continue
			}
			c := wk.srcCounts[s][li]
			wk.srcCounts[s][li] = run
			run += c
		}
		widest = max(widest, run-wk.inOff[li])
	}
	wk.inOff[n] = run
	wk.inMax = int(widest)
}

// wake reactivates wk's inbox recipients, maintaining the chunk active
// counters. It runs in the place phase, after routePrefix wrote the
// offsets and the folds reactivated the fold recipients, so
// nothing else writes the flags meanwhile.
//
//gm:noalloc
func (wk *worker) wake() {
	if wk.inTotal == 0 {
		return
	}
	for ci := range wk.chunks {
		ck := &wk.chunks[ci]
		for li := ck.lo; li < ck.hi; li++ {
			if wk.inOff[li+1] > wk.inOff[li] && !wk.active[li] {
				wk.active[li] = true
				ck.numActive++
			}
		}
	}
}

// placeShard stably places source shard s's messages at the offsets
// computed by routePrefix, walking the shard's boxes in the same
// canonical order countShard counted them.
//
//gm:noalloc
func (wk *worker) placeShard(s int) {
	if wk.srcMsgs[s] == 0 {
		return
	}
	e := wk.e
	lo, hi := e.shardStart[s], e.shardStart[s+1]
	d := wk.index
	pos := wk.srcCounts[s]
	for src := lo; src < hi; src++ {
		sw := e.workers[src]
		for ci := range sw.chunks {
			wk.placeRecs(pos, sw.chunks[ci].boxes[d])
		}
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
