package pregel

import "fmt"

// FaultPhase selects the point inside a superstep at which an injected
// fault fires.
type FaultPhase uint8

// Fault phases, covering every stage of the chunked-stealing scheduler
// and the segmented routing pipeline:
//
//   - FaultVertexCompute crashes the worker midway through its vertex
//     loop (after half of its vertices ran, so job state and outboxes
//     are partially mutated).
//   - FaultRouting crashes it during the message routing barrier, after
//     the superstep's counters were merged.
//   - FaultChunkExec crashes the worker at the start of its middle
//     scheduling chunk, leaving earlier chunks fully executed.
//   - FaultSteal crashes the worker the moment one of its chunks is
//     executed by a stealing executor (falling back to a phase-end crash
//     when nothing was stolen, e.g. under NumWorkers 1).
//   - FaultRouteCount / FaultRoutePrefix / FaultRoutePlace fail the
//     worker inside the corresponding segmented-routing sub-phase (the
//     count runs inside the vertex phase, as the first source shard's
//     outboxes are counted into the worker's staging row); the sub-phase
//     completes its work (fail-stop semantics: a dead worker's partial
//     writes are discarded wholesale by rollback, never acted on), and
//     the failure is collected at the routing barrier.
//   - FaultCheckpoint tears the snapshot written at that superstep's
//     checkpoint barrier (a crash mid-write); the corruption is caught
//     by the codec's integrity frame on the next rollback, which falls
//     back to the previous checkpoint.
const (
	FaultVertexCompute FaultPhase = iota
	FaultRouting
	FaultChunkExec
	FaultSteal
	FaultRouteCount
	FaultRoutePrefix
	FaultRoutePlace
	FaultCheckpoint
)

var faultPhaseNames = [...]string{
	FaultVertexCompute: "vertex-compute",
	FaultRouting:       "routing",
	FaultChunkExec:     "chunk-exec",
	FaultSteal:         "steal",
	FaultRouteCount:    "route-count",
	FaultRoutePrefix:   "route-prefix",
	FaultRoutePlace:    "route-place",
	FaultCheckpoint:    "checkpoint",
}

func (p FaultPhase) String() string {
	if int(p) < len(faultPhaseNames) {
		return faultPhaseNames[p]
	}
	return fmt.Sprintf("fault-phase(%d)", uint8(p))
}

// Fault is one deterministically injected worker failure. Superstep and
// Worker must be non-negative and Phase one of the constants above;
// Worker is taken modulo the resolved worker count, so plans stay valid
// when the engine shrinks NumWorkers for tiny graphs.
type Fault struct {
	Superstep int
	Worker    int
	Phase     FaultPhase
}

// FaultPlan is a deterministic schedule of injected worker failures.
// At most one fault fires per superstep attempt; listing the same
// (superstep, worker) several times makes the worker crash again on each
// replay until the plan (or the recovery budget) is exhausted.
type FaultPlan []Fault

// validate rejects a plan entry that could never fire as written: a
// negative superstep or worker, or a phase outside the armable set.
// Such an entry would otherwise be silently ignored or index a worker
// out of range.
func (p FaultPlan) validate() error {
	for i, f := range p {
		switch {
		case f.Superstep < 0:
			return fmt.Errorf("pregel: fault plan entry %d: negative superstep %d", i, f.Superstep)
		case f.Worker < 0:
			return fmt.Errorf("pregel: fault plan entry %d: negative worker %d", i, f.Worker)
		case int(f.Phase) >= len(faultPhaseNames):
			return fmt.Errorf("pregel: fault plan entry %d: unknown phase %v", i, f.Phase)
		}
	}
	return nil
}

// faultState tracks whether a planned fault has fired.
type faultState struct {
	Fault
	fired bool
}

// InjectedFault is the failure reported by a planned crash. The engine
// converts it into rollback-and-replay when a checkpoint is available;
// it surfaces as an error only when recovery is impossible or the
// budget is exhausted.
type InjectedFault struct {
	Superstep int
	Worker    int
	Phase     FaultPhase
}

func (f *InjectedFault) Error() string {
	return fmt.Sprintf("pregel: injected fault: worker %d crashed in superstep %d (%s phase)",
		f.Worker, f.Superstep, f.Phase)
}

// armVertexFault consumes the first unfired fault planned for step
// that fires inside the vertex phase (vertex compute, chunk exec, steal,
// and the outbox count overlapped with it) and arms the target
// worker.
func (e *engine) armVertexFault(step int) {
	for i := range e.faults {
		f := &e.faults[i]
		if f.fired || f.Superstep != step {
			continue
		}
		wk := e.workers[f.Worker%e.numWorkers]
		switch f.Phase {
		case FaultVertexCompute:
			f.fired = true
			wk.faultAt = len(wk.ids) / 2
			return
		case FaultChunkExec:
			f.fired = true
			wk.chunkFaultAt = len(wk.chunks) / 2
			return
		case FaultSteal:
			f.fired = true
			wk.stealFault.Store(true)
			return
		case FaultRouteCount:
			f.fired = true
			wk.routeFaultOn = true
			wk.routeFault = FaultRouteCount
			wk.faultStep = step
			return
		}
	}
}

// armRoutingFault consumes the first unfired post-barrier routing fault
// planned for step. A FaultRouting fires immediately (returned for the
// caller to raise); the prefix and place sub-phase faults arm the target
// worker and are collected at the routing barrier.
func (e *engine) armRoutingFault(step int) *InjectedFault {
	for i := range e.faults {
		f := &e.faults[i]
		if f.fired || f.Superstep != step {
			continue
		}
		w := f.Worker % e.numWorkers
		switch f.Phase {
		case FaultRouting:
			f.fired = true
			return &InjectedFault{Superstep: step, Worker: w, Phase: FaultRouting}
		case FaultRoutePrefix, FaultRoutePlace:
			f.fired = true
			wk := e.workers[w]
			wk.routeFaultOn = true
			wk.routeFault = f.Phase
			wk.faultStep = step
			return nil
		}
	}
	return nil
}

// armCheckpointFault consumes an unfired checkpoint-write fault planned
// for step, reporting whether the snapshot just written should be torn.
func (e *engine) armCheckpointFault(step int) bool {
	for i := range e.faults {
		f := &e.faults[i]
		if f.fired || f.Superstep != step || f.Phase != FaultCheckpoint {
			continue
		}
		f.fired = true
		return true
	}
	return false
}
