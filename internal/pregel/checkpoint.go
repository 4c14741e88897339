package pregel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"gmpregel/internal/graph"
)

func floatBits(f float64) uint64        { return math.Float64bits(f) }
func floatFromBits(b uint64) float64    { return math.Float64frombits(b) }
func nodeFromU32(v uint32) graph.NodeID { return graph.NodeID(int32(v)) }

// Checkpointable is implemented by jobs whose state the engine snapshots
// at checkpoint barriers and restores on rollback. SnapshotState must
// capture every piece of state the job mutates during compute (property
// columns, scratch slices, master-side accumulators); RestoreState must
// bring the job back to exactly that state. Jobs that keep no state
// between supersteps may omit the interface: the engine then checkpoints
// only its own state (inboxes, active flags, globals, aggregators, RNG
// positions) and recovery remains sound.
type Checkpointable interface {
	SnapshotState() []byte
	RestoreState([]byte)
}

// countingSource is a math/rand Source that counts draws so a checkpoint
// can record the stream position and a rollback can restore it by
// replaying from the seed. It deliberately does not implement Source64:
// rand.Rand then derives every method from Int63, so the draw count
// fully determines the stream position. (rand.Rand.Read is the one
// method whose buffered byte state is not captured; compute functions
// must not use it.)
type countingSource struct {
	seed  int64
	src   rand.Source
	draws int64
}

func newCountingSource(seed int64) *countingSource {
	//gm:nondeterministic-ok seeded from Config.Seed and draw-counted, so checkpoints replay the exact stream position
	return &countingSource{seed: seed, src: rand.NewSource(seed)}
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.seed, s.draws = seed, 0
	s.src.Seed(seed)
}

// jump rewinds to the seed and fast-forwards the stream to the given
// draw count.
func (s *countingSource) jump(draws int64) {
	s.src.Seed(s.seed)
	s.draws = 0
	for s.draws < draws {
		s.draws++
		s.src.Int63()
	}
}

// checkpoint is one recovery point: the engine state serialized at the
// barrier entering superstep step, plus the job's own snapshot.
type checkpoint struct {
	step int
	data []byte // engine state (stats, master, globals, aggregators, workers)
	job  []byte // Checkpointable snapshot; nil when the job is stateless
}

// checkpointDue reports whether a checkpoint should be taken at the
// barrier entering step. With CheckpointEvery = k, checkpoints land
// before supersteps 0, k, 2k, …; with only a fault plan configured, a
// single superstep-0 checkpoint makes full replay possible. A fresh
// rollback target for the same step is never retaken (the state would be
// byte-identical).
func (e *engine) checkpointDue(step int) bool {
	if !e.ckptOn {
		return false
	}
	if e.ckpt != nil && e.ckpt.step == step {
		return false
	}
	if e.cfg.CheckpointEvery > 0 {
		return step%e.cfg.CheckpointEvery == 0
	}
	return step == 0
}

// takeCheckpoint snapshots engine and job state at the barrier entering
// step and accounts the serialized size. The previous snapshot is
// retained as the fallback target for torn-write recovery. Spilled
// inboxes are restored to RAM first (the encoder serializes resident
// state); the post-checkpoint govern pass re-spills if the budget still
// demands it.
func (e *engine) takeCheckpoint(step int) error {
	if e.gov != nil {
		if err := e.unspillAll(); err != nil {
			return err
		}
	}
	ck := &checkpoint{step: step, data: e.encodeState()}
	if c, ok := e.job.(Checkpointable); ok {
		ck.job = c.SnapshotState()
	}
	e.ckptPrev = e.ckpt
	e.ckpt = ck
	e.stats.Checkpoints++
	e.stats.CheckpointBytes += int64(len(ck.data) + len(ck.job))
	if _, ok := e.armFault(step, 1<<FaultCheckpoint); ok {
		// Injected crash mid-write: flip a byte in the middle of the
		// snapshot, as a torn write would. The corruption is detected by
		// verifyFrame on the next rollback, which falls back to ckptPrev.
		ck.data[len(ck.data)/2] ^= 0xFF
	}
	return nil
}

// rollback restores the last checkpoint after an injected fault and
// returns the superstep to resume from. A snapshot that fails its
// integrity frame (torn write, bit rot) is discarded in favor of the
// retained previous checkpoint. Rollback fails when no valid checkpoint
// exists; the caller then surfaces the error with whatever partial Stats
// accumulated.
func (e *engine) rollback(f *InjectedFault) (int, error) {
	if e.ckpt == nil {
		return 0, fmt.Errorf("%w (no checkpoint to recover from)", f)
	}
	if !verifyFrame(e.ckpt.data) {
		if e.ckptPrev == nil || !verifyFrame(e.ckptPrev.data) {
			return 0, fmt.Errorf("%w (checkpoint at superstep %d is corrupt and no valid fallback exists)",
				f, e.ckpt.step)
		}
		// Promote the fallback; checkpointDue will retake the discarded
		// step with a fresh snapshot when replay reaches it.
		e.ckpt = e.ckptPrev
		e.ckptPrev = nil
	}
	// Supersteps whose work is re-executed: everything since the
	// checkpoint plus the failed superstep itself.
	recovered := f.Superstep - e.ckpt.step + 1
	if err := e.restoreCheckpoint(); err != nil {
		return 0, err
	}
	e.stats.Recoveries++
	e.stats.RecoveredSupersteps += recovered
	return e.ckpt.step, nil
}

func (e *engine) restoreCheckpoint() (err error) {
	if derr := e.decodeState(e.ckpt.data); derr != nil {
		return fmt.Errorf("pregel: corrupt checkpoint: %w", derr)
	}
	if c, ok := e.job.(Checkpointable); ok && e.ckpt.job != nil {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("pregel: job RestoreState panicked: %v", r)
			}
		}()
		c.RestoreState(e.ckpt.job)
	}
	return nil
}

// ---- Engine state serialization ----
//
// The engine state at a barrier is serialized to a flat byte buffer:
// master return/halt flags, the master RNG draw count, globals,
// aggregator cells, the Stats counters a rollback must rewind, and per
// worker the active flags, routed inbox (CSR), fold slots and RNG draw
// count. Outboxes and per-step counters are never stored: at a
// checkpoint barrier their contents are either already routed into the
// serialized inboxes or per-step transients, so restore just
// truncates/clears them (capacity is retained for the replay).

// checkpointVersion is bumped whenever the serialized layout changes;
// decodeState rejects any other version rather than misreading bytes.
// History: v1 encoded three per-step counters; v2 extends StepStats to
// six (adds NetworkMsgs, LocalBytes, ControlBytes); v3 wraps the payload
// in an integrity frame —
//
//	[version:u8][payloadLen:u64 LE][payload][fnv64a(payload):u64 LE]
//
// — so a torn or bit-flipped snapshot is detected instead of decoded;
// v4 appended a per-superstep direction history, which v5 drops along
// with the pull direction; v6 follows each worker's inbox with its
// present fold slots when the job declares folds (a job without folds
// writes the v5 payload byte for byte).
const checkpointVersion = 6

// frameHeaderBytes is the version byte plus the payload-length word;
// frameTrailerBytes the checksum word; ckptMsgBytes one serialized inbox
// message (destination, type, MaxPayloadSlots payload words);
// ckptFoldBytes one fold slot (local index, type, payload word);
// ckptStepBytes one StepStats record (six counters).
const (
	frameHeaderBytes  = 1 + 8
	frameTrailerBytes = 8
	ckptMsgBytes      = 4 + 1 + 8*MaxPayloadSlots
	ckptFoldBytes     = 4 + 1 + 8
	ckptStepBytes     = 6 * 8
)

// fnv64a is the FNV-1a hash of b (the checkpoint integrity checksum).
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// verifyFrame reports whether data is a structurally intact checkpoint
// frame: current version, exact length, and payload checksum all match.
func verifyFrame(data []byte) bool {
	if len(data) < frameHeaderBytes+frameTrailerBytes || data[0] != checkpointVersion {
		return false
	}
	plen := binary.LittleEndian.Uint64(data[1:frameHeaderBytes])
	if uint64(len(data)) != frameHeaderBytes+plen+frameTrailerBytes {
		return false
	}
	payload := data[frameHeaderBytes : frameHeaderBytes+plen]
	return fnv64a(payload) == binary.LittleEndian.Uint64(data[frameHeaderBytes+plen:])
}

type stateEnc struct{ b []byte }

func (w *stateEnc) u8(v byte)    { w.b = append(w.b, v) }
func (w *stateEnc) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *stateEnc) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *stateEnc) i64(v int64)  { w.u64(uint64(v)) }
func (w *stateEnc) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

type stateDec struct {
	b   []byte
	off int
	bad bool
}

func (r *stateDec) take(n int) []byte {
	if r.bad || r.off+n > len(r.b) {
		r.bad = true
		return make([]byte, n)
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}
func (r *stateDec) u8() byte    { return r.take(1)[0] }
func (r *stateDec) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *stateDec) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *stateDec) i64() int64  { return int64(r.u64()) }
func (r *stateDec) bool() bool  { return r.u8() != 0 }

func (e *engine) encodeState() []byte {
	w := &stateEnc{}
	w.u8(checkpointVersion)
	w.u64(0) // payload length, patched once the payload is complete
	w.bool(e.halted)
	w.bool(e.stats.ReturnedIsSet)
	w.bool(e.stats.ReturnedIsInt)
	w.i64(e.stats.ReturnedInt)
	w.u64(floatBits(e.stats.ReturnedFloat))
	w.i64(e.masterSrc.draws)
	w.u32(uint32(len(e.globals)))
	for _, g := range e.globals {
		w.u64(g)
	}
	w.i64(e.globalBytes)
	w.u32(uint32(len(e.aggValues)))
	for _, c := range e.aggValues {
		w.bool(c.set)
		w.i64(c.i)
		w.u64(floatBits(c.f))
	}
	w.i64(int64(e.stats.Supersteps))
	w.i64(e.stats.MessagesSent)
	w.i64(e.stats.NetworkMsgs)
	w.i64(e.stats.NetworkBytes)
	w.i64(e.stats.LocalBytes)
	w.i64(e.stats.ControlBytes)
	w.i64(e.stats.VertexCalls)
	w.u32(uint32(len(e.stats.Steps)))
	for _, s := range e.stats.Steps {
		w.i64(s.Messages)
		w.i64(s.NetworkBytes)
		w.i64(s.VertexCalls)
		w.i64(s.NetworkMsgs)
		w.i64(s.LocalBytes)
		w.i64(s.ControlBytes)
	}
	w.u32(uint32(len(e.workers)))
	for _, wk := range e.workers {
		// Layout compatibility: v2 reserved a per-worker RNG draw count
		// here. Vertex RNG streams are now seeded per (vertex, superstep)
		// and carry no position, so the slot is written as zero and
		// ignored on decode.
		w.i64(0)
		// A halted vertex a message waits for is written active, the flag
		// runChunk will give it: the frame holds the vertices the next
		// superstep runs.
		w.u32(uint32(len(wk.active)))
		for li, a := range wk.active {
			w.bool(a || wk.waits(li))
		}
		// Messages keep the v5 layout — dst, type, MaxPayloadSlots words —
		// whatever the run's record width: the slots a record does not
		// carry are written as the zeros they stand for.
		w.u32(uint32(wk.inTotal))
		for i := 0; i < len(wk.inFlat); i += e.stride {
			rec := wk.inFlat[i : i+e.stride]
			w.u32(uint32(rec[0]))
			w.u8(headerType(rec[0]))
			for _, v := range rec[1:] {
				w.u64(v)
			}
			for s := e.slots; s < MaxPayloadSlots; s++ {
				w.u64(0)
			}
		}
		w.u32(uint32(len(wk.inOff)))
		for _, o := range wk.inOff {
			w.u32(uint32(o))
		}
		if nf := len(e.folds); nf > 0 {
			// The present-slot count, patched once the slots are written.
			at, present := len(w.b), 0
			w.u32(0)
			for i, s := range wk.folds {
				if s.stamp == e.foldEpoch {
					w.u32(uint32(i / nf))
					w.u8(e.foldTypes[i%nf])
					w.u64(s.val)
					present++
				}
			}
			binary.LittleEndian.PutUint32(w.b[at:], uint32(present))
		}
	}
	plen := len(w.b) - frameHeaderBytes
	binary.LittleEndian.PutUint64(w.b[1:frameHeaderBytes], uint64(plen))
	w.u64(fnv64a(w.b[frameHeaderBytes : frameHeaderBytes+plen]))
	return w.b
}

// waits reports whether a message, routed or folded, waits for wk's
// local vertex li.
func (wk *worker) waits(li int) bool {
	if wk.inOff[li+1] > wk.inOff[li] {
		return true
	}
	nf := len(wk.e.folds)
	for _, s := range wk.folds[li*nf : li*nf+nf] {
		if s.stamp == wk.e.foldEpoch {
			return true
		}
	}
	return false
}

// decodeState restores the engine to the serialized barrier state,
// clearing every transient a crashed superstep may have dirtied
// (outboxes, fold slots, per-step counters, local aggregator cells,
// worker errors). The stats are rewound to the serialized ones, the
// monotone counters kept (rewind).
func (e *engine) decodeState(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("truncated checkpoint (%d bytes)", len(data))
	}
	if v := data[0]; v != checkpointVersion {
		return fmt.Errorf("unknown checkpoint version %d", v)
	}
	if len(data) < frameHeaderBytes {
		return fmt.Errorf("truncated checkpoint (%d bytes)", len(data))
	}
	plen := binary.LittleEndian.Uint64(data[1:frameHeaderBytes])
	if uint64(len(data)) < frameHeaderBytes+plen+frameTrailerBytes {
		return fmt.Errorf("truncated checkpoint (%d bytes)", len(data))
	}
	payload := data[frameHeaderBytes : frameHeaderBytes+plen]
	if fnv64a(payload) != binary.LittleEndian.Uint64(data[frameHeaderBytes+plen:]) {
		return fmt.Errorf("checkpoint checksum mismatch")
	}
	r := &stateDec{b: payload}
	e.halted = r.bool()
	st := Stats{ReturnedIsSet: r.bool(), ReturnedIsInt: r.bool(), ReturnedInt: r.i64(), ReturnedFloat: floatFromBits(r.u64())}
	// Draws only grow between a checkpoint and its rollback, so a count
	// beyond the live stream's is corrupt (and would replay for as long).
	draws := r.i64()
	if draws < 0 || draws > e.masterSrc.draws {
		return fmt.Errorf("master RNG draw count %d outside [0, %d]", draws, e.masterSrc.draws)
	}
	e.masterSrc.jump(draws)
	if n := int(r.u32()); n != len(e.globals) {
		return fmt.Errorf("global count mismatch: %d vs %d", n, len(e.globals))
	}
	for i := range e.globals {
		e.globals[i] = r.u64()
	}
	e.globalBytes = r.i64()
	if n := int(r.u32()); n != len(e.aggValues) {
		return fmt.Errorf("aggregator count mismatch: %d vs %d", n, len(e.aggValues))
	}
	for i := range e.aggValues {
		e.aggValues[i] = aggCell{set: r.bool(), i: r.i64(), f: floatFromBits(r.u64())}
	}
	st.Supersteps, st.MessagesSent, st.NetworkMsgs, st.NetworkBytes = int(r.i64()), r.i64(), r.i64(), r.i64()
	st.LocalBytes, st.ControlBytes, st.VertexCalls = r.i64(), r.i64(), r.i64()
	n := int(r.u32())
	if n > (len(r.b)-r.off)/ckptStepBytes {
		return fmt.Errorf("%d step records overrun the checkpoint", n)
	}
	if n > 0 {
		st.Steps = make([]StepStats, n)
		for i := range st.Steps {
			st.Steps[i] = StepStats{
				Messages:     r.i64(),
				NetworkBytes: r.i64(),
				VertexCalls:  r.i64(),
				NetworkMsgs:  r.i64(),
				LocalBytes:   r.i64(),
				ControlBytes: r.i64(),
			}
		}
	}
	e.rewind(st)
	if n := int(r.u32()); n != len(e.workers) {
		return fmt.Errorf("worker count mismatch: %d vs %d", n, len(e.workers))
	}
	for _, wk := range e.workers {
		r.i64() // reserved per-worker RNG draw count (always zero; see encode)
		if n := int(r.u32()); n != len(wk.active) {
			return fmt.Errorf("worker %d active-flag count mismatch", wk.index)
		}
		for i := range wk.active {
			wk.active[i] = r.bool()
		}
		wk.inTotal = int(r.u32())
		if wk.inTotal > (len(r.b)-r.off)/ckptMsgBytes {
			return fmt.Errorf("worker %d inbox of %d messages overruns the checkpoint", wk.index, wk.inTotal)
		}
		wk.inFlat = wk.inFlat[:0]
		for i := 0; i < wk.inTotal; i++ {
			dst, typ := nodeFromU32(r.u32()), r.u8()
			if int(typ) >= len(e.foldIdx) || e.foldIdx[typ] >= 0 {
				return fmt.Errorf("worker %d inbox message %d has type %d, not a declared unfolded type", wk.index, i, typ)
			}
			wk.inFlat = append(wk.inFlat, packHeader(dst, typ))
			for s := 0; s < MaxPayloadSlots; s++ {
				v := r.u64()
				if s < e.slots {
					wk.inFlat = append(wk.inFlat, v)
				} else if v != 0 {
					return fmt.Errorf("worker %d inbox message %d carries payload slot %d, the run's records hold %d",
						wk.index, i, s, e.slots)
				}
			}
		}
		if n := int(r.u32()); n != len(wk.inOff) {
			return fmt.Errorf("worker %d inbox-offset count mismatch", wk.index)
		}
		// The offsets index the restored inbox: they start at 0, never
		// decrease, and end at its length, and each vertex's window holds
		// only messages addressed to it.
		wk.inMax = 0
		for i := range wk.inOff {
			o, end := r.u32(), uint32(wk.inTotal)
			if i == 0 && o != 0 || i > 0 && o < uint32(wk.inOff[i-1]) || o > end || i == len(wk.inOff)-1 && o != end {
				return fmt.Errorf("worker %d inbox offset %d = %d breaks the CSR over %d messages", wk.index, i, o, wk.inTotal)
			}
			wk.inOff[i] = int32(o)
			if i > 0 {
				wk.inMax = max(wk.inMax, int(wk.inOff[i]-wk.inOff[i-1]))
				for k := int(wk.inOff[i-1]); k < int(o); k++ {
					if d := headerDst(wk.inFlat[k*e.stride]); d != wk.ids[i-1] {
						return fmt.Errorf("worker %d inbox message %d is for vertex %d, in vertex %d's window", wk.index, k, d, wk.ids[i-1])
					}
				}
			}
		}
		if err := e.decodeFolds(r, wk); err != nil {
			return err
		}
		// Transients a crashed superstep may have dirtied. Box slices keep
		// their capacity: replay reuses them. Chunk active counters are
		// recomputed from the restored flags so they match the flags
		// before the next vertex phase.
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			na := int32(0)
			for li := ck.lo; li < ck.hi; li++ {
				if wk.active[li] {
					na++
				}
			}
			ck.numActive = na
			ck.truncateBoxes()
			for s := range ck.agg {
				ck.agg[s] = aggCell{}
			}
			ck.st = StepStats{}
			ck.err = nil
		}
		wk.cursor.Store(0)
		wk.crashed.Store(false)
		wk.faultAt = -1
		wk.stealFault.Store(false)
		wk.spilled = false
	}
	for _, x := range e.executors {
		x.err = nil
		x.rngStep = -1
	}
	if r.bad {
		return fmt.Errorf("truncated checkpoint (%d bytes)", len(data))
	}
	return nil
}

// decodeFolds restores wk's present fold slots and clears the rest,
// failing closed on a count that overruns the checkpoint, a local index
// out of range, a type the job does not fold, or a slot listed twice.
func (e *engine) decodeFolds(r *stateDec, wk *worker) error {
	nf := len(e.folds)
	if nf == 0 {
		return nil
	}
	e.foldEpoch = 1
	clear(wk.folds)
	if wk.foldTotal = int(r.u32()); wk.foldTotal > (len(r.b)-r.off)/ckptFoldBytes {
		return fmt.Errorf("worker %d: %d fold slots overrun the checkpoint", wk.index, wk.foldTotal)
	}
	for i := 0; i < wk.foldTotal; i++ {
		li, typ, v := int(r.u32()), r.u8(), r.u64()
		switch {
		case li >= len(wk.ids):
			return fmt.Errorf("worker %d fold slot %d: local index %d out of range (%d vertices)", wk.index, i, li, len(wk.ids))
		case int(typ) >= len(e.foldIdx) || e.foldIdx[typ] < 0:
			return fmt.Errorf("worker %d fold slot %d: message type %d is not folded", wk.index, i, typ)
		case wk.folds[li*nf+int(e.foldIdx[typ])].stamp == e.foldEpoch:
			return fmt.Errorf("worker %d fold slot %d: vertex %d type %d listed twice", wk.index, i, li, typ)
		}
		wk.folds[li*nf+int(e.foldIdx[typ])] = foldSlot{val: v, stamp: e.foldEpoch}
	}
	return nil
}
