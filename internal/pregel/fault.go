package pregel

import "fmt"

// FaultPhase selects the point inside a superstep at which an injected
// fault fires.
type FaultPhase uint8

// Fault phases, one per distinct state a crash can leave the engine in:
//
//   - FaultVertexCompute crashes the worker midway through its vertex
//     loop (after half of its vertices ran, so job state and outboxes
//     are partially mutated).
//   - FaultRouting crashes it after the barrier merged the superstep's
//     counters and before any message is routed.
//   - FaultSteal crashes the worker the moment one of its chunks is
//     executed by a stealing executor (falling back to a phase-end crash
//     when nothing was stolen, e.g. under NumWorkers 1).
//   - FaultCheckpoint tears the snapshot written at that superstep's
//     checkpoint barrier (a crash mid-write); the corruption is caught
//     by the codec's integrity frame on the next rollback, which falls
//     back to the previous checkpoint.
const (
	FaultVertexCompute FaultPhase = iota
	FaultRouting
	FaultSteal
	FaultCheckpoint
)

var faultPhaseNames = [...]string{
	FaultVertexCompute: "vertex-compute",
	FaultRouting:       "routing",
	FaultSteal:         "steal",
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
// replay until the plan is exhausted. Every entry fires at most once,
// so a plan bounds its own recoveries.
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
// it surfaces as an error only when no valid checkpoint remains.
type InjectedFault struct {
	Superstep int
	Worker    int
	Phase     FaultPhase
}

func (f *InjectedFault) Error() string {
	return fmt.Sprintf("pregel: injected fault: worker %d crashed in superstep %d (%s phase)",
		f.Worker, f.Superstep, f.Phase)
}

// armFault consumes the first unfired fault planned for step whose phase
// is in phases (a bit set, 1<<FaultPhase per member) and arms it: a
// vertex-compute fault marks the vertex its worker dies at, a steal fault
// the worker a thief kills. The consumed fault is returned, its Worker
// resolved, for the routing and checkpoint call sites to raise at once.
//
//gm:noalloc
func (e *engine) armFault(step int, phases uint8) (Fault, bool) {
	for i := range e.faults {
		f := &e.faults[i]
		if f.fired || f.Superstep != step || phases&(1<<f.Phase) == 0 {
			continue
		}
		f.fired = true
		w := f.Worker % e.numWorkers
		switch wk := e.workers[w]; f.Phase {
		case FaultVertexCompute:
			wk.faultAt = len(wk.ids) / 2
		case FaultSteal:
			wk.stealFault.Store(true)
		}
		return Fault{Superstep: step, Worker: w, Phase: f.Phase}, true
	}
	return Fault{}, false
}
