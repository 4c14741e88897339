package pregel

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"unsafe"

	"gmpregel/internal/graph"
)

// phaseKind selects the work the parked executor pool runs when released.
type phaseKind uint8

const (
	phaseVertex phaseKind = iota // chunked vertex compute
	phaseRoute                   // routing: delivery folds and CSR inboxes
)

// poolCmd is one barrier release: the phase to run and its superstep.
type poolCmd struct {
	kind phaseKind
	step int
}

// defaultChunksPerWorker and minChunkSize shape the automatic chunk
// size: about 16 chunks per worker, but never chunks smaller than 64
// vertices (below that, claim overhead dominates).
const (
	defaultChunksPerWorker = 16
	minChunkSize           = 64
)

func chunkSizeFor(cfgChunk, nw int) int {
	if cfgChunk > 0 {
		return cfgChunk
	}
	c := (nw + defaultChunksPerWorker - 1) / defaultChunksPerWorker
	if c < minChunkSize {
		c = minChunkSize
	}
	return c
}

// chunk is one fixed-size slice of a worker's vertices: the unit of
// vertex-phase scheduling. All mutable state a chunk's execution touches
// lives either here or in per-vertex job state, so any executor can run
// the chunk; the barrier merges chunk state in canonical (worker, chunk)
// order, which makes results independent of the execution schedule.
// Every slice is retained across supersteps.
type chunk struct {
	lo, hi int32 // local-index range [lo, hi)

	// boxes are the per-destination-worker outboxes, fboxes their
	// counterparts for folded types (records of foldStride words). These
	// and agg are written on every send, so each is allocated padded,
	// off every other chunk's blocks.
	boxes  [][]uint64
	fboxes [][]uint64
	agg    []aggCell
	// fbcast counts, per folded type, the chunk's broadcasts of it by
	// vertices with an out-edge, or is negative once a Send of the type
	// or a vertex's second broadcast of it spoils the superstep for the
	// pull fold (fold.go).
	fbcast []int32
	// numActive counts active vertices in [lo, hi), maintained
	// incrementally by runChunk, the one place a halted vertex a message
	// reaches is activated, and VoteToHalt.
	numActive int32
	// st is the chunk's per-step counters (its ControlBytes unused),
	// merged (and cleared) by the barrier in canonical chunk order.
	st StepStats

	// span attribution for the last vertex phase.
	startNS, durNS int64
	executor       int32

	err error
}

// truncateBoxes empties the chunk's boxes, retaining their capacity,
// and zeroes its broadcast counts.
//
//gm:noalloc
func (ck *chunk) truncateBoxes() {
	for d := range ck.boxes {
		ck.boxes[d] = ck.boxes[d][:0]
		ck.fboxes[d] = ck.fboxes[d][:0]
	}
	clear(ck.fbcast)
}

// worker owns a partition of the vertices: ids with id mod W == index
// under PartitionMod (local index = id / W), or the contiguous range
// [startID, startID+len(ids)) under PartitionDegree (local = id -
// startID). Vertex-phase execution is chunked; the worker's cursor is
// the shared claim queue its own executor drains first and idle
// executors steal from. Every slice and map below is retained across
// supersteps — the steady-state superstep allocates nothing.
type worker struct {
	e       *engine
	index   int
	ids     []graph.NodeID // global IDs owned, ascending
	startID graph.NodeID   // first owned id (range partitioning)

	active  []bool
	inFlat  []uint64 // routed inbox: inTotal records grouped by destination vertex
	inOff   []int32  // CSR offsets into inFlat in records, len = len(ids)+1
	inTotal int      // messages routed into inFlat by the last routing phase
	inMax   int      // the most messages any one vertex received in it
	// inPos is routing's retained counting-sort row: per local vertex,
	// the messages routed to it, then its next placement position.
	inPos []int32

	// Fold slots, one per (local vertex, folded type) at index
	// local*len(folds)+fold (fold.go). foldTotal is the number of fold
	// records the last routing phase folded into them (after a restore,
	// the present slots): nonzero exactly while a folded message waits.
	folds     []foldSlot
	foldTotal int
	// bvals and bstamp are the worker's stretch of the broadcast value
	// columns, by local*len(folds)+fold (fold.go).
	bvals  []uint64
	bstamp []uint32

	chunks    []chunk
	chunkSize int
	// cursor is the next unclaimed chunk index (vertex phase).
	cursor atomic.Int32
	// crashed marks an injected fault: the worker's remaining chunks are
	// skipped, emulating the machine death rollback will repair.
	crashed atomic.Bool

	// Hot-path caches copied from the engine at construction so send
	// touches one cache line instead of chasing e.schema.
	div       fastDiv
	pblocks   []int32 // non-nil under PartitionDegree
	pshift    uint32
	msgSize   []int64
	typeSlots []uint8
	foldIdx   []int8
	slots     int

	// Injected-fault arming (see fault.go). faultAt is the local vertex
	// index at which an armed vertex-compute fault fires this superstep
	// (-1 when unarmed); stealFault crashes the worker when one of its
	// chunks runs on a foreign executor.
	faultAt    int
	stealFault atomic.Bool

	// Governor spill state: when spilled, inFlat is empty and the routed
	// inbox lives in the spill store segment at spillOff (inOff is
	// retained, so chunk windows remain addressable).
	spilled  bool
	spillOff int64
}

// executor is one persistent pool goroutine. Executors are 1:1 with
// workers (executor i drains worker i's chunks first) but under work
// stealing may execute any worker's chunks; state that must be
// per-goroutine rather than per-partition — the reused VertexContext,
// the vertex RNG — lives here. It is written for every vertex, so the
// struct is padded at both ends, off every other allocation's blocks.
type executor struct {
	_    BlockPad
	e    *engine
	id   int
	cmds chan poolCmd
	vc   VertexContext

	// Per-vertex RNG: a splitmix64 source lazily reseeded on the first
	// Rand() call of each (vertex, superstep), making the stream
	// independent of chunk geometry, stealing, and worker count.
	rngSrc   vertexSource
	rng      *rand.Rand
	rngID    graph.NodeID
	rngStep  int
	seedBase uint64

	// msgs is the retained scratch a vertex's inbox window is unpacked
	// into for Messages(); sizeUnpackScratch grows it, before each vertex
	// phase, to the widest window of the superstep.
	msgs []Msg

	// Retained scratch for reading spilled inbox windows.
	spillRecs []uint64
	spillRaw  []byte

	err error
	_   BlockPad
}

// cacheBlock is the span, in bytes, that no two executors may both write
// in one phase: two 64-byte lines, which the adjacent-line prefetcher
// moves as a pair. Anything one executor writes per vertex or per send —
// its scratch and VertexContext, a chunk's boxes, flags and counters —
// sits on blocks of its own (TestExecutorsShareNoWrittenBlock).
const cacheBlock = 128

// BlockPad is a cacheBlock of padding: a struct written per vertex puts
// one at each end, so its fields share no block with a neighbouring
// allocation. Job code that keeps per-executor state follows the same
// rule with BlockPad and Padded.
type BlockPad [cacheBlock]byte

// Padded returns a slice of n zeroed Ts whose backing array leaves at
// least cacheBlock bytes unused on either side, so no other allocation
// shares a cacheBlock-byte block with its elements; nil for n = 0. The
// heap does not move objects, so the guard holds for the slice's life.
func Padded[T any](n int) []T {
	if n == 0 {
		return nil
	}
	var z T
	size := max(int(unsafe.Sizeof(z)), 1)
	g := (cacheBlock + size - 1) / size
	return make([]T, g+n+g)[g : g+n : g+n]
}

// vertexSource is a splitmix64 math/rand Source. It deliberately does
// not implement Source64: rand.Rand then derives every method from
// Int63, so reseeding fully determines the stream.
type vertexSource struct{ state uint64 }

//gm:noalloc
func (s *vertexSource) Int63() int64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

//gm:noalloc
func (s *vertexSource) Seed(seed int64) { s.state = uint64(seed) }

//gm:noalloc
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// runPhase releases every parked executor into one phase and waits for
// all of them at the reusable barrier.
func (e *engine) runPhase(kind phaseKind, step int) {
	e.taskCursor.Store(0)
	e.phaseWG.Add(len(e.executors))
	for _, x := range e.executors {
		x.cmds <- poolCmd{kind: kind, step: step}
	}
	e.phaseWG.Wait()
}

// runVertexPhase runs one chunked vertex-compute phase.
func (e *engine) runVertexPhase(step int) {
	for _, wk := range e.workers {
		wk.cursor.Store(0)
	}
	e.sizeUnpackScratch()
	e.runPhase(phaseVertex, step)
}

// sizeUnpackScratch grows every executor's Messages() scratch to the
// widest inbox window any vertex has this superstep plus one message per
// folded type. Sizing all of them here, from the routed offsets, rather
// than on demand in runChunk keeps the allocation a function of the
// inbox alone: which executor happens to steal the chunk with the hub
// vertex cannot move it into a warm superstep. The slots a run's records
// do not carry stay zero from this make — delivery never writes them.
// runChunk writes the scratch for every vertex, so it is padded: one
// folded type needs a single 40-byte Msg, which the allocator would
// otherwise pack beside the next executor's.
func (e *engine) sizeUnpackScratch() {
	need := 0
	for _, wk := range e.workers {
		need = max(need, wk.inMax)
	}
	need += len(e.folds)
	for _, x := range e.executors {
		if cap(x.msgs) < need {
			x.msgs = Padded[Msg](need + need/4)
		}
	}
}

// poolRun is an executor's persistent goroutine: park, run the commanded
// phase, signal the barrier, repeat until the channel closes.
func (x *executor) poolRun() {
	for cmd := range x.cmds {
		x.runCmd(cmd)
		x.e.phaseWG.Done()
	}
}

// runCmd executes one phase command, converting any panic into an
// executor error so the barrier is always reached (a lost Done would
// deadlock the master). Vertex-chunk panics are caught closer to the
// work, in runChunk, so one chunk's panic does not abandon the phase.
func (x *executor) runCmd(cmd poolCmd) {
	defer func() {
		if r := recover(); r != nil && x.err == nil {
			x.err = fmt.Errorf("pregel: executor %d panicked in %v phase: %v", x.id, cmd.kind, r)
		}
	}()
	switch cmd.kind {
	case phaseVertex:
		x.vertexPhase(cmd.step)
	case phaseRoute:
		x.routePhase()
	}
}

func (k phaseKind) String() string {
	switch k {
	case phaseVertex:
		return "vertex"
	case phaseRoute:
		return "route"
	}
	return "unknown"
}

// vertexPhase drains the executor's own worker's chunk queue, then
// repeatedly claims a chunk from the worker with the most unclaimed
// chunks (ties broken by lowest worker index). Which
// executor runs a chunk never affects results — only the chunk's span
// attribution.
//
//gm:noalloc
func (x *executor) vertexPhase(step int) {
	e := x.e
	own := e.workers[x.id]
	for {
		ci := int(own.cursor.Add(1)) - 1
		if ci >= len(own.chunks) {
			break
		}
		x.runChunk(own, ci, step)
	}
	for {
		victim := -1
		var most int32
		for i, wk := range e.workers {
			if i == x.id {
				continue
			}
			if rem := int32(len(wk.chunks)) - wk.cursor.Load(); rem > most {
				most, victim = rem, i
			}
		}
		if victim < 0 {
			return
		}
		wk := e.workers[victim]
		ci := int(wk.cursor.Add(1)) - 1
		if ci >= len(wk.chunks) {
			continue // lost the claim race; rescan
		}
		x.runChunk(wk, ci, step)
	}
}

// runChunk executes one vertex-compute chunk. A panic in job code is
// recorded on the chunk (and surfaced in canonical order at the
// barrier); an injected fault marks the whole worker crashed so its
// remaining chunks are skipped, as they would be on a dead machine.
//
//gm:noalloc
func (x *executor) runChunk(wk *worker, ci, step int) {
	e := x.e
	ck := &wk.chunks[ci]
	ck.executor = int32(x.id)
	var t0 int64
	if e.obsOn {
		t0 = e.nowNS()
	}
	defer func() {
		if r := recover(); r != nil && ck.err == nil {
			ck.err = fmt.Errorf("pregel: vertex compute panicked on worker %d chunk %d: %v", wk.index, ci, r) //gm:alloc-ok panic recovery path; a steady-state run never reaches it
		}
		if e.obsOn {
			ck.startNS = t0
			ck.durNS = e.nowNS() - t0
		}
	}()
	// Truncate the chunk's outbound state from the previous superstep
	// (routing has long completed; capacity is retained).
	ck.truncateBoxes()
	if wk.crashed.Load() {
		return
	}
	// Injected steal fault: the worker dies the moment one of its chunks
	// runs on a foreign executor.
	if x.id != wk.index && wk.stealFault.Load() && wk.stealFault.CompareAndSwap(true, false) {
		ck.err = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultSteal} //gm:alloc-ok fault-injection testing path; never armed in production runs
		wk.crashed.Store(true)
		return
	}
	// Spilled inbox: stream this chunk's contiguous window back from the
	// segment store into executor-local scratch (inOff stays global, so
	// message slicing below rebases against the window start).
	flat := wk.inFlat
	var base int32
	if wk.spilled {
		var err error
		flat, err = x.readSpillWindow(wk, ck) //gm:alloc-ok post-degradation path: spill read-back grows retained scratch to its high-water mark
		if err != nil {
			ck.err = err
			return
		}
		base = wk.inOff[ck.lo]
	}
	vc := &x.vc
	vc.wk = wk
	vc.ck = ck
	vc.superstep = step
	stride := e.stride
	fault := wk.faultAt
	nf, epoch := len(e.folds), e.foldEpoch
	for li := int(ck.lo); li < int(ck.hi); li++ {
		if fault >= 0 && li == fault {
			// Injected crash mid-phase: job state and outboxes stay
			// partially mutated; rollback undoes the damage.
			ck.err = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultVertexCompute} //gm:alloc-ok fault-injection testing path; never armed in production runs
			wk.crashed.Store(true)
			return
		}
		// Build Messages() in the executor's cache-resident scratch: the
		// vertex's folded messages in type order, then its window of
		// inbox records. It is valid until the next vertex.
		id, k := wk.ids[li], 0
		for fi := 0; fi < nf; fi++ {
			if s := wk.folds[li*nf+fi]; s.stamp == epoch {
				x.msgs[k] = Msg{Dst: id, Type: e.foldTypes[fi], V: [MaxPayloadSlots]uint64{s.val}}
				k++
			}
		}
		n := int(wk.inOff[li+1] - wk.inOff[li])
		if !wk.active[li] && k+n == 0 {
			continue
		}
		// The one place a halted vertex is activated: a message, routed
		// or folded, reached it.
		if !wk.active[li] {
			wk.active[li] = true
			ck.numActive++
		}
		vc.id = id
		vc.local = li
		vc.msgs = x.msgs[:k+n]
		at := int(wk.inOff[li]-base) * stride
		for ; k < len(vc.msgs); k++ {
			unpackRec(&vc.msgs[k], flat[at:at+stride])
			at += stride
		}
		ck.st.VertexCalls++
		e.job.VertexCompute(vc) //gm:alloc-ok job contract: VertexCompute must be allocation-free; perf_test gates the full cycle at AllocsPerRun==0
	}
}
