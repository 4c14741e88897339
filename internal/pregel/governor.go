package pregel

import (
	"errors"
	"fmt"

	"gmpregel/internal/obs"
)

// ErrBudgetExceeded is returned (wrapped) when a run's accounted memory
// exceeds Config.MemoryBudget even after every degradation stage: the
// run aborts cleanly with partial Stats instead of running out of
// memory. Test with errors.Is.
var ErrBudgetExceeded = errors.New("pregel: memory budget exceeded")

// Message buffers are accounted at their real width: a buffered message
// is one record of the run's stride (record.go), 8*(1+slots) bytes —
// 16 for a one-slot schema, 40 for an undeclared one — in RAM and in a
// spill segment alike. Accounting multiplies buffer lengths (not
// capacities) by recWordBytes, and the stride is fixed by the Schema, so
// accounted usage is a pure function of schema, configuration and seed —
// identical across chunk sizes, stealing, and executor schedules — which
// keeps governor decisions deterministic.

// governor enforces Config.MemoryBudget with staged graceful
// degradation, checked on the barrier goroutine at the two accounted
// peaks of a superstep (after a checkpoint is taken and after routing,
// when outboxes and the freshly routed inboxes coexist):
//
//	stage 1: release routed outbox retention — the boxes' contents were
//	         already copied into inboxes, and dropping their high-water
//	         capacity halves the duplicated message footprint;
//	stage 2: spill the largest resident inboxes to an unlinked temp-file
//	         segment store, restored bit-identically (and lazily, one
//	         chunk window at a time) during the next vertex phase;
//	stage 3: abort with ErrBudgetExceeded carrying partial Stats.
type governor struct {
	budget int64
	spill  spillStore
	enc    []byte // retained spill-encode scratch
}

// ckptHeldBytes is the resident footprint of retained checkpoints (the
// current rollback target and the torn-write fallback).
//
//gm:noalloc
func (e *engine) ckptHeldBytes() int64 {
	var u int64
	if e.ckpt != nil {
		u += int64(len(e.ckpt.data) + len(e.ckpt.job))
	}
	if e.ckptPrev != nil {
		u += int64(len(e.ckptPrev.data) + len(e.ckptPrev.job))
	}
	return u
}

// accountedUsage sums the engine's governed memory: buffered messages
// (inboxes and chunk boxes), inbox offset tables, the fold slots and the
// broadcast index once built (both fixed for the run and never spilled;
// the index is free at one worker, where it is the graph's CSR), and
// retained checkpoints. Spilled inboxes have zero resident length and
// drop out of the sum automatically. Runs on the barrier goroutine; the
// fast path is pure arithmetic over retained lengths.
//
//gm:noalloc
func (e *engine) accountedUsage() int64 {
	var u int64
	for _, wk := range e.workers {
		words := len(wk.inFlat)
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			for d := range ck.boxes {
				words += len(ck.boxes[d]) + len(ck.fboxes[d])
			}
		}
		u += int64(words)*recWordBytes + int64(len(wk.inOff))*4 + int64(len(wk.folds))*foldSlotBytes
	}
	return u + e.nbrs.bytes() + e.ckptHeldBytes()
}

// releaseOutboxes drops every chunk box — contents and retained
// capacity — and returns the accounted bytes freed. Safe at
// a govern point: routing has already copied the contents into inboxes,
// and send paths re-grow the buffers on demand (the zero-allocation
// steady state resumes once capacity recovers its high-water mark).
func (e *engine) releaseOutboxes() int64 {
	words := 0
	for _, wk := range e.workers {
		for ci := range wk.chunks {
			ck := &wk.chunks[ci]
			for d := range ck.boxes {
				words += len(ck.boxes[d]) + len(ck.fboxes[d])
				ck.boxes[d], ck.fboxes[d] = nil, nil
			}
		}
	}
	return int64(words) * recWordBytes
}

// spillInbox writes wk's routed inbox to the segment store and drops the
// resident copy; the next vertex phase streams it back one chunk window
// at a time. Returns the accounted bytes freed.
func (e *engine) spillInbox(wk *worker, step int) (int64, error) {
	g := e.gov
	bytes := int64(len(wk.inFlat)) * recWordBytes
	var t0 int64
	if e.obsOn {
		t0 = e.nowNS()
	}
	off, enc, err := g.spill.writeSegment(wk.inFlat, g.enc)
	g.enc = enc
	if err != nil {
		return 0, err
	}
	wk.spillOff = off
	wk.spilled = true
	wk.inFlat = nil
	e.stats.Spills++
	e.stats.SpillBytes += bytes
	if e.obsOn {
		e.emit(obs.Span{Superstep: step, Worker: wk.index, Phase: obs.PhaseSpill,
			StartNS: t0, DurNS: e.nowNS() - t0, Messages: int64(wk.inTotal), Bytes: bytes})
	}
	return bytes, nil
}

// govern runs the staged degradation at one accounted peak. It returns
// nil when usage fits the budget (possibly after degradation) and a
// wrapped ErrBudgetExceeded when even a fully spilled engine does not.
func (e *engine) govern(step int) error {
	g := e.gov
	usage := e.accountedUsage()
	if usage > e.stats.MemoryPeakBytes {
		e.stats.MemoryPeakBytes = usage
	}
	if usage <= g.budget {
		return nil
	}
	usage -= e.releaseOutboxes()
	for usage > g.budget {
		var victim *worker
		for _, wk := range e.workers {
			if len(wk.inFlat) > 0 && (victim == nil || len(wk.inFlat) > len(victim.inFlat)) {
				victim = wk
			}
		}
		if victim == nil {
			break
		}
		freed, err := e.spillInbox(victim, step)
		if err != nil {
			return err
		}
		usage -= freed
	}
	if usage <= g.budget {
		return nil
	}
	return fmt.Errorf("%w: superstep %d needs %d accounted bytes after outbox release and inbox spill, budget is %d",
		ErrBudgetExceeded, step, usage, g.budget)
}

// readSpillWindow streams the chunk's slice of wk's spilled inbox into
// this executor's retained scratch. The window is contiguous on disk
// because chunk local-index ranges are contiguous in the CSR inbox.
func (x *executor) readSpillWindow(wk *worker, ck *chunk) ([]uint64, error) {
	stride := x.e.stride
	first := int(wk.inOff[ck.lo])
	count := int(wk.inOff[ck.hi]) - first
	recs, raw, err := x.e.gov.spill.readWindow(x.spillRecs, x.spillRaw, wk.spillOff, first*stride, count*stride)
	x.spillRecs, x.spillRaw = recs, raw
	return recs, err
}

// readSpilledInbox reads back a worker's whole spilled inbox (the
// checkpoint encoder needs the full contents; chunk execution uses the
// windowed path instead).
func (e *engine) readSpilledInbox(wk *worker) ([]uint64, error) {
	recs, _, err := e.gov.spill.readWindow(nil, nil, wk.spillOff, 0, wk.inTotal*e.stride)
	return recs, err
}

// unspillAll restores every spilled inbox to RAM, bit-identical to its
// pre-spill contents. Called before a checkpoint is encoded; the
// post-checkpoint govern pass re-spills if the budget still demands it.
func (e *engine) unspillAll() error {
	for _, wk := range e.workers {
		if !wk.spilled {
			continue
		}
		recs, err := e.readSpilledInbox(wk)
		if err != nil {
			return err
		}
		wk.inFlat = recs
		wk.spilled = false
	}
	return nil
}
