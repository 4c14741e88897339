package pregel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gmpregel/internal/graph"
	"gmpregel/internal/obs"
)

type aggCell struct {
	set bool
	i   int64
	f   float64
}

//gm:noalloc
func (c *aggCell) merge(spec AggSpec, o aggCell) {
	if !o.set {
		return
	}
	if !c.set {
		*c = o
		return
	}
	switch spec.Op {
	case AggSum:
		c.i += o.i
		c.f += o.f
	case AggMin:
		if o.i < c.i {
			c.i = o.i
		}
		if o.f < c.f {
			c.f = o.f
		}
	case AggMax:
		if o.i > c.i {
			c.i = o.i
		}
		if o.f > c.f {
			c.f = o.f
		}
	case AggOr:
		if o.i != 0 {
			c.i = 1
		}
	case AggAnd:
		if o.i == 0 {
			c.i = 0
		}
	case AggAny:
		*c = o
	}
}

// engine holds one run's state.
type engine struct {
	g      *graph.Directed
	job    Job
	cfg    Config
	schema Schema

	numWorkers int
	div        fastDiv
	msgSize    []int64 // full wire size per declared message type
	// Record geometry (record.go): typeSlots is the declared slot count
	// per message type, slots their maximum, stride = 1+slots the words
	// per record in every message buffer. schemaErr is a malformed
	// Schema.MessageSlots, reported by loop before any superstep runs.
	typeSlots []uint8
	slots     int
	stride    int
	schemaErr error
	// Delivery folds (fold.go): foldIdx maps a type to its index in
	// folds/foldTypes/foldEdges (-1: none); foldEdges holds each folded
	// type's Schema.EdgeAdd column; foldEpoch stamps the slots routing
	// fills.
	foldIdx   []int8
	folds     []Fold
	foldTypes []uint8
	foldEdges []edgeCol
	foldEpoch uint32
	// Broadcast sends (fold.go): nbrs is the per-destination edge index
	// a folded SendToAllNbrs bills and the fold expands its records by,
	// fetched once (nbrsOnce) by the first such send from the graph,
	// which shares it between runs.
	nbrs     *nbrIndex
	nbrsOnce sync.Once
	// Dense broadcasts (fold.go): the value columns and their stamps at
	// position*len(folds)+fold, worker w's positions from vbase[w]; the
	// in-index, fetched by the first pull; the types this routing pulls
	// and their number; and, for tests, the run's pulled (step, type)s.
	vbase  []int
	bvals  []uint64
	bstamp []uint32
	in     *inIndex
	pull   []bool
	npull  int
	pulls  int64

	// Partitioning. pblocks/pshift are set under PartitionDegree; a nil
	// pblocks means mod partitioning.
	pblocks []int32
	pshift  uint32

	workers   []*worker
	executors []*executor
	// phaseWG is the reusable barrier the master waits on after releasing
	// the persistent executors into a phase.
	phaseWG sync.WaitGroup
	// taskCursor is the shared queue cursor for phases whose tasks are not
	// chunk claims (the routing sub-phases); reset before each dispatch.
	taskCursor atomic.Int64
	stopped    bool

	globals     []uint64
	globalBytes int64 // accumulated control bytes from SetGlobal*

	aggValues []aggCell // merged values visible to master
	aggPart   []aggCell // the barrier's per-worker partial, retained

	masterSrc  *countingSource
	masterRand *rand.Rand
	mc         MasterContext // reused across supersteps (no per-step alloc)
	halted     bool

	// Fault tolerance. ckptPrev retains the previous snapshot as the
	// fallback target when the current one fails its integrity check.
	ckptOn   bool
	ckpt     *checkpoint
	ckptPrev *checkpoint
	faults   []faultState

	// Resource governance. mark is the stats at the last completed
	// barrier (or restored checkpoint, which is one); an aborting run is
	// rewound to it, so Stats never expose a partially merged barrier.
	gov  *governor
	mark Stats

	// Observability. obsOn caches cfg.Observer != nil so the hot path
	// tests a bool, not an interface; runStart anchors span timestamps.
	obsOn    bool
	runStart time.Time

	stats Stats
}

// nowNS returns nanoseconds since the run started (span timebase).
//
//gm:nondeterministic-ok observability timebase only: spans and skew reports, never Stats or vertex state
//gm:noalloc
func (e *engine) nowNS() int64 { return time.Since(e.runStart).Nanoseconds() }

// emit forwards a span to the configured observer. Only called when
// obsOn; all call sites run on the barrier goroutine, so observers never
// see concurrent calls.
func (e *engine) emit(s obs.Span) { e.cfg.Observer.ObserveSpan(s) }

// Run executes the job on g to completion and returns run statistics.
// It returns an error if the job exceeds MaxSupersteps, a compute
// function panics, or an injected fault finds no
// valid checkpoint to recover from. Even on error, Stats.Returned*
// reflect whatever the master recorded before the abort, so callers see
// partial results consistently.
func Run(g *graph.Directed, job Job, cfg Config) (Stats, error) {
	return RunContext(context.Background(), g, job, cfg)
}

// RunContext is Run with cooperative cancellation: ctx is checked at
// every superstep barrier, so a wall-clock budget is a ctx with a
// timeout; a superstep in progress is never interrupted mid-phase.
func RunContext(ctx context.Context, g *graph.Directed, job Job, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	e := newEngine(g, job, cfg)
	defer e.stop()
	err := e.loop(ctx)
	if e.obsOn {
		// Run-scoped span with the authoritative totals; emitted even on
		// abort so observers can close out partial runs.
		e.emit(obs.Span{
			Superstep:   e.stats.Supersteps,
			Worker:      -1,
			Phase:       obs.PhaseRun,
			DurNS:       e.nowNS(),
			Messages:    e.stats.MessagesSent,
			Bytes:       e.stats.NetworkBytes,
			VertexCalls: e.stats.VertexCalls,
		})
	}
	return e.stats, err
}

func newEngine(g *graph.Directed, job Job, cfg Config) *engine {
	e := &engine{g: g, job: job, cfg: cfg, schema: job.Schema()}
	e.numWorkers = cfg.Workers(g.NumNodes())
	e.div = newFastDiv(uint32(e.numWorkers))
	// Wire size: 4-byte destination, a 1-byte type tag when the job
	// declares more than one message type, then the schema payload.
	baseSize := int64(4)
	if len(e.schema.MessagePayloadBytes) > 1 {
		baseSize++
	}
	e.msgSize = make([]int64, len(e.schema.MessagePayloadBytes))
	for t, p := range e.schema.MessagePayloadBytes {
		e.msgSize[t] = baseSize + int64(p)
	}
	e.typeSlots, e.slots, e.schemaErr = messageSlots(e.schema)
	e.stride = 1 + e.slots
	if e.schemaErr == nil {
		e.foldIdx, e.folds, e.foldTypes, e.schemaErr = messageFolds(e.schema, e.typeSlots)
	}
	if e.schemaErr == nil {
		e.foldEdges, e.schemaErr = foldEdgeCols(e.schema, e.foldIdx, e.folds, g.NumEdges())
	}
	e.foldEpoch = 1 // zeroed stamps are never present
	e.mc = MasterContext{e: e}
	e.globals = make([]uint64, len(e.schema.Globals))
	e.aggValues = make([]aggCell, len(e.schema.Aggregators))
	e.aggPart = make([]aggCell, len(e.schema.Aggregators))
	e.masterSrc = newCountingSource(cfg.Seed)
	e.masterRand = rand.New(e.masterSrc) //gm:nondeterministic-ok wraps the seeded, draw-counted master source; replayable from checkpoints
	e.ckptOn = cfg.CheckpointEvery > 0 || len(cfg.Faults) > 0
	e.obsOn = cfg.Observer != nil
	if e.obsOn {
		e.runStart = time.Now() //gm:nondeterministic-ok span timebase for observability output only; never feeds Stats
	}
	e.faults = make([]faultState, len(cfg.Faults))
	for i, f := range cfg.Faults {
		e.faults[i] = faultState{Fault: f}
	}
	if cfg.MemoryBudget > 0 {
		e.gov = &governor{budget: cfg.MemoryBudget}
	}

	// Partitioning: compute each worker's owned IDs.
	n := g.NumNodes()
	var rangeStarts []int32
	if cfg.Partitioner == PartitionDegree {
		rangeStarts, e.pblocks, e.pshift = degreeRanges(g, e.numWorkers)
	}
	e.workers = make([]*worker, e.numWorkers)
	for w := 0; w < e.numWorkers; w++ {
		wk := &worker{e: e, index: w, faultAt: -1}
		if rangeStarts != nil {
			lo, hi := rangeStarts[w], rangeStarts[w+1]
			wk.startID = graph.NodeID(lo)
			if hi > lo {
				wk.ids = make([]graph.NodeID, 0, hi-lo)
				for v := lo; v < hi; v++ {
					wk.ids = append(wk.ids, graph.NodeID(v))
				}
			}
		} else {
			if n > w {
				wk.ids = make([]graph.NodeID, 0, (n-w+e.numWorkers-1)/e.numWorkers)
			}
			for v := graph.NodeID(w); int(v) < n; v += graph.NodeID(e.numWorkers) {
				wk.ids = append(wk.ids, v)
			}
		}
		wk.active = make([]bool, len(wk.ids))
		for i := range wk.active {
			wk.active[i] = true
		}
		wk.inOff = make([]int32, len(wk.ids)+1)
		wk.inPos = make([]int32, len(wk.ids))
		wk.folds = make([]foldSlot, len(wk.ids)*len(e.folds))
		wk.div = e.div
		wk.pblocks = e.pblocks
		wk.pshift = e.pshift
		wk.msgSize = e.msgSize
		wk.typeSlots = e.typeSlots
		wk.foldIdx = e.foldIdx
		wk.slots = e.slots

		// Chunk geometry: fixed for the run, derived only from the
		// partition size and ChunkSize, never from execution.
		nw := len(wk.ids)
		cs := chunkSizeFor(cfg.ChunkSize, nw)
		numChunks := 0
		if nw > 0 {
			numChunks = (nw + cs - 1) / cs
		}
		wk.chunks = Padded[chunk](numChunks)
		wk.chunkSize = cs
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			ck.lo = int32(ci * cs)
			ck.hi = int32((ci + 1) * cs)
			if ck.hi > int32(nw) {
				ck.hi = int32(nw)
			}
			ck.numActive = ck.hi - ck.lo
			ck.agg = Padded[aggCell](len(e.schema.Aggregators))
			ck.boxes = Padded[[]uint64](e.numWorkers)
			ck.fboxes = Padded[[]uint64](e.numWorkers)
			ck.fbcast = Padded[int32](len(e.folds))
		}
		e.workers[w] = wk
	}
	if len(e.folds) > 0 {
		e.initBroadcastCols()
	}

	// The persistent pool: one executor goroutine per worker for the
	// whole run, parked on its command channel between phases.
	// engine.stop (deferred by RunContext) shuts them down on every exit
	// path.
	e.executors = make([]*executor, e.numWorkers)
	for i := 0; i < e.numWorkers; i++ {
		x := &executor{e: e, id: i, rngStep: -1, seedBase: mix64(uint64(cfg.Seed) ^ 0x5bf03635aca1fd6b)}
		x.rng = rand.New(&x.rngSrc) //gm:nondeterministic-ok wraps the per-vertex reseeded source (seedBase ^ step ^ id); schedule-independent by construction
		x.vc = VertexContext{ex: x}
		x.cmds = make(chan poolCmd, 1)
		e.executors[i] = x
	}
	for _, x := range e.executors {
		go x.poolRun()
	}
	return e
}

// stop shuts the persistent executor pool down. Idempotent; called on
// every run-exit path (normal, error, panic-converted, failed recovery)
// and only ever between phases, so no executor is mid-command.
func (e *engine) stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	if e.gov != nil {
		e.gov.spill.close()
	}
	for _, x := range e.executors {
		close(x.cmds)
	}
}

// rewind sets the stats to saved, those of an earlier completed
// barrier, but keeps the seven monotone counters — checkpoints,
// recoveries and the governor's — which neither a rollback nor an abort
// rewinds.
//
//gm:noalloc
func (e *engine) rewind(saved Stats) {
	now := e.stats
	e.stats = saved
	e.stats.Checkpoints, e.stats.CheckpointBytes = now.Checkpoints, now.CheckpointBytes
	e.stats.Recoveries, e.stats.RecoveredSupersteps = now.Recoveries, now.RecoveredSupersteps
	e.stats.Spills, e.stats.SpillBytes, e.stats.MemoryPeakBytes = now.Spills, now.SpillBytes, now.MemoryPeakBytes
}

// loop drives the run to completion. On an aborting error the semantic
// counters are rewound to the last completed barrier, so partial Stats
// are always barrier-consistent.
func (e *engine) loop(ctx context.Context) error {
	if e.schemaErr != nil {
		return e.schemaErr
	}
	if err := e.cfg.Faults.validate(); err != nil {
		return err
	}
	e.mark = e.stats
	err := e.run(ctx)
	if err != nil {
		e.rewind(e.mark)
	}
	return err
}

func (e *engine) run(ctx context.Context) error {
	for step := 0; ; {
		// Everything the engine observes here is a completed-barrier
		// state: the start of the run, the end of a fully merged-and-routed
		// superstep, or a freshly restored checkpoint.
		e.mark = e.stats
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("pregel: run canceled at superstep %d: %w", step, err)
		}
		if step >= e.cfg.MaxSupersteps {
			return fmt.Errorf("pregel: exceeded %d supersteps", e.cfg.MaxSupersteps)
		}
		halted, fault, err := e.superstep(step)
		if err != nil {
			return err
		}
		if halted {
			return nil
		}
		// The superstep's work is done, or a worker died in it. Govern
		// point 2: outboxes and the freshly routed inboxes coexist here.
		if fault == nil && e.gov != nil {
			if err := e.govern(step); err != nil {
				return err
			}
		}
		// The one recovery site: a fault in the vertex phase or at the
		// routing arm ends here.
		if fault != nil {
			resume, err := e.recoverFrom(fault, step)
			if err != nil {
				return err
			}
			step = resume
			continue
		}
		// Termination check: the run goes on while a vertex is active or
		// a message waits, routed or folded (runChunk activates its
		// recipient) — O(total chunks), no vertex scan.
		pending := false
		for _, wk := range e.workers {
			pending = pending || wk.inTotal > 0 || wk.foldTotal > 0
			for ci := range wk.chunks {
				pending = pending || wk.chunks[ci].numActive > 0
			}
		}
		if !pending {
			return nil
		}
		step++
	}
}

// superstep runs one superstep's phases in order: checkpoint → govern →
// master → vertex phase → barrier merge → routing (folds and inboxes). It
// reports whether the master halted the run. A worker failure in any
// phase is returned as an *InjectedFault for run to recover from; any
// other error aborts the run.
func (e *engine) superstep(step int) (halted bool, fault *InjectedFault, err error) {
	if e.checkpointDue(step) {
		var t0, before int64
		if e.obsOn {
			t0 = e.nowNS()
			before = e.stats.CheckpointBytes
		}
		if err := e.takeCheckpoint(step); err != nil {
			return false, nil, err
		}
		if e.obsOn {
			e.emit(obs.Span{Superstep: step, Worker: -1, Phase: obs.PhaseCheckpoint,
				StartNS: t0, DurNS: e.nowNS() - t0, Bytes: e.stats.CheckpointBytes - before})
		}
	}
	// Govern point 1: the retained checkpoints and last superstep's
	// routed buffers coexist here.
	if e.gov != nil {
		if err := e.govern(step); err != nil {
			return false, nil, err
		}
	}
	// Master phase: sees aggregator values contributed last superstep.
	var masterT0 int64
	if e.obsOn {
		masterT0 = e.nowNS()
	}
	halted, err = e.masterPhase(step)
	if err != nil {
		return false, nil, err
	}
	// The state label is queried after the master phase because the
	// machine executor's master picks the superstep's state there.
	var stateLabel string
	if e.obsOn {
		if pl, ok := e.job.(PhaseLabeler); ok {
			stateLabel = pl.PhaseLabel()
		}
		e.emit(obs.Span{Superstep: step, Worker: -1, Phase: obs.PhaseMaster,
			State: stateLabel, StartNS: masterT0, DurNS: e.nowNS() - masterT0})
	}
	if halted {
		return true, nil, nil
	}
	// Vertex phase: release the parked pool into the chunk queues.
	e.armFault(step, 1<<FaultVertexCompute|1<<FaultSteal)
	e.runVertexPhase(step)
	if e.obsOn {
		e.emitVertexSpans(step, stateLabel)
	}
	if fault, err = e.collectPhaseErrors(step); fault != nil || err != nil {
		return false, fault, err
	}
	var barrierT0 int64
	if e.obsOn {
		barrierT0 = e.nowNS()
	}
	e.stats.Supersteps++
	// Barrier merge: each worker's chunk counters and aggregator cells
	// fold into a per-worker partial in chunk order, then the W partials
	// in worker order — a two-level tree whose merge order is fixed by
	// (worker, chunk) coordinates, so stealing cannot perturb results.
	// Aggregators are per-superstep (Pregel semantics): the master sees
	// only the contributions of the superstep that just ran.
	clear(e.aggValues)
	var st StepStats
	for _, wk := range e.workers {
		clear(e.aggPart)
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			st.add(ck.st)
			ck.st = StepStats{}
			for s := range ck.agg {
				e.aggPart[s].merge(e.schema.Aggregators[s], ck.agg[s])
				ck.agg[s] = aggCell{}
			}
		}
		for s := range e.aggPart {
			e.aggValues[s].merge(e.schema.Aggregators[s], e.aggPart[s])
		}
	}
	// Aggregator control traffic: one value per set aggregator per
	// non-master worker.
	for s := range e.aggValues {
		if e.aggValues[s].set {
			st.ControlBytes += int64(8 * (e.numWorkers - 1))
		}
	}
	st.ControlBytes += e.globalBytes
	e.globalBytes = 0
	e.stats.MessagesSent += st.Messages
	e.stats.NetworkMsgs += st.NetworkMsgs
	e.stats.NetworkBytes += st.NetworkBytes
	e.stats.LocalBytes += st.LocalBytes
	e.stats.ControlBytes += st.ControlBytes
	e.stats.VertexCalls += st.VertexCalls
	if e.cfg.TraceSteps {
		e.stats.Steps = append(e.stats.Steps, st)
	}
	if e.obsOn {
		e.emit(obs.Span{Superstep: step, Worker: -1, Phase: obs.PhaseBarrier,
			StartNS: barrierT0, DurNS: e.nowNS() - barrierT0})
	}

	if f, ok := e.armFault(step, 1<<FaultRouting); ok {
		return false, &InjectedFault{Superstep: step, Worker: f.Worker, Phase: FaultRouting}, nil
	}
	var routeT0 int64
	if e.obsOn {
		routeT0 = e.nowNS()
	}
	e.routeMessages()
	if e.obsOn {
		e.emit(obs.Span{Superstep: step, Worker: -1, Phase: obs.PhaseRouting,
			StartNS: routeT0, DurNS: e.nowNS() - routeT0})
	}
	for _, x := range e.executors {
		if x.err != nil {
			return false, nil, x.err
		}
	}
	return false, nil, nil
}

// emitVertexSpans emits the superstep's chunk spans (executor- and
// steal-attributed, from the chunk counters the barrier has not merged
// yet) followed by one aggregated vertex-compute span per worker, even
// for a superstep that is about to roll back: the trace keeps failed
// work visible while Stats rewinds.
func (e *engine) emitVertexSpans(step int, stateLabel string) {
	for _, wk := range e.workers {
		var dur int64
		var st StepStats
		startNS := int64(-1)
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			e.emit(obs.Span{Superstep: step, Worker: wk.index, Phase: obs.PhaseChunk,
				State: stateLabel, StartNS: ck.startNS, DurNS: ck.durNS,
				Messages: ck.st.Messages, Bytes: ck.st.NetworkBytes, VertexCalls: ck.st.VertexCalls,
				Executor: int(ck.executor), Stolen: int(ck.executor) != wk.index})
			dur += ck.durNS
			st.add(ck.st)
			if startNS < 0 || ck.startNS < startNS {
				startNS = ck.startNS
			}
		}
		if startNS < 0 {
			startNS = 0
		}
		e.emit(obs.Span{Superstep: step, Worker: wk.index, Phase: obs.PhaseVertexCompute,
			State: stateLabel, StartNS: startNS, DurNS: dur,
			Messages: st.Messages, Bytes: st.NetworkBytes, VertexCalls: st.VertexCalls})
	}
}

// collectPhaseErrors scans executors and chunks (in canonical order)
// after a vertex phase. An injected fault is returned for recovery;
// any other error aborts the run. Fault state is reset so a replay
// starts clean.
func (e *engine) collectPhaseErrors(step int) (*InjectedFault, error) {
	var crashed *InjectedFault
	for _, x := range e.executors {
		if x.err != nil {
			return nil, x.err
		}
	}
	for _, wk := range e.workers {
		// A fault armed on a worker owning too few vertices (faultAt
		// beyond its range) crashes at phase end, like the pre-chunk
		// engine. The same fallback covers a steal fault when nothing was
		// stolen (single worker).
		if wk.faultAt >= len(wk.ids) && wk.faultAt >= 0 {
			crashed = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultVertexCompute}
		}
		if wk.stealFault.CompareAndSwap(true, false) {
			crashed = &InjectedFault{Superstep: step, Worker: wk.index, Phase: FaultSteal}
		}
		wk.faultAt = -1
		wk.crashed.Store(false)
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			if ck.err == nil {
				continue
			}
			var inj *InjectedFault
			if errors.As(ck.err, &inj) {
				crashed = inj
				ck.err = nil
				continue
			}
			err := ck.err
			ck.err = nil
			return nil, err
		}
	}
	return crashed, nil
}

// recoverFrom wraps rollback with trace emission: a recovery span
// covering the restore, attributed to the superstep that failed.
func (e *engine) recoverFrom(f *InjectedFault, step int) (int, error) {
	if !e.obsOn {
		return e.rollback(f)
	}
	t0 := e.nowNS()
	resume, err := e.rollback(f)
	e.emit(obs.Span{Superstep: step, Worker: f.Worker, Phase: obs.PhaseRecovery,
		StartNS: t0, DurNS: e.nowNS() - t0})
	return resume, err
}

// masterPhase runs master.compute for step, converting a panic into an
// error so a faulty master cannot crash the process (the vertex phase
// has the same protection in runChunk).
func (e *engine) masterPhase(step int) (halted bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pregel: master compute panicked at superstep %d: %v", step, r)
		}
	}()
	e.mc.superstep = step
	e.job.MasterCompute(&e.mc)
	return e.halted, nil
}
