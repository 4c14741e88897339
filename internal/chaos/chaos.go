// Package chaos is a deterministic chaos harness for the pregel engine:
// a seeded generator of fault schedules spanning every injectable phase
// of a superstep, composed with memory-budget pressure and injected
// worker stalls, plus a runner that verifies every schedule recovers to
// bit-identical results and semantic Stats against a fault-free run.
//
// Everything is derived from a seed: the same (seed, count, horizon)
// triple always yields the same schedules, and each schedule's run is as
// deterministic as the engine itself, so a surviving seed matrix can be
// gated in CI.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gmpregel/internal/pregel"
)

// Chaos-pressure tuning: the injected stall must comfortably exceed
// the paired StepDeadline (so the watchdog provably trips) and the
// deadline must comfortably exceed a healthy superstep (so it trips
// only on the stall); raceScale stretches both for race-instrumented
// binaries. Budget pressure starts between 35% and 65% of the
// schedule's measured accounted peak.
const (
	stallDuration = 100 * time.Millisecond * raceScale
	stallDeadline = 20 * time.Millisecond * raceScale
	maxRecoveries = 32
)

// armablePhases is every fault phase a plan can arm, in enum order. The
// generator cycles through it so any window of len(armablePhases)
// consecutive schedules covers every phase.
var armablePhases = []pregel.FaultPhase{
	pregel.FaultVertexCompute,
	pregel.FaultRouting,
	pregel.FaultChunkExec,
	pregel.FaultSteal,
	pregel.FaultRouteCount,
	pregel.FaultRoutePrefix,
	pregel.FaultRoutePlace,
	pregel.FaultCheckpoint,
}

// Schedule is one deterministic chaos scenario: a fault plan, optional
// worker stalls guarded by a superstep deadline, and optional memory
// pressure expressed as a fraction of the run's unconstrained accounted
// peak.
type Schedule struct {
	ID   int   `json:"id"`
	Seed int64 `json:"seed"`

	CheckpointEvery int              `json:"checkpoint_every"`
	Faults          pregel.FaultPlan `json:"faults"`
	Stalls          []pregel.Stall   `json:"stalls,omitempty"`
	StepDeadline    time.Duration    `json:"step_deadline,omitempty"`
	BudgetFrac      float64          `json:"budget_frac,omitempty"`
}

// Phases names the fault phases the schedule injects, for reporting.
func (s Schedule) Phases() []string {
	var out []string
	for _, f := range s.Faults {
		out = append(out, f.Phase.String())
	}
	return out
}

// String is a compact human-readable label for one schedule.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ckpt=%d faults=%s", s.CheckpointEvery, strings.Join(s.Phases(), ","))
	if len(s.Stalls) > 0 {
		fmt.Fprintf(&b, " stall@%d", s.Stalls[0].Superstep)
	}
	if s.BudgetFrac > 0 {
		fmt.Fprintf(&b, " budget=%.0f%%", 100*s.BudgetFrac)
	}
	return b.String()
}

// Generate derives count schedules from seed. horizon is the exclusive
// upper bound for fault supersteps — pass the fault-free run's superstep
// count so every fault lands inside the run. The primary fault phase
// cycles through armablePhases (guaranteeing full phase coverage every
// eight schedules); every fourth schedule adds a deadline-guarded worker
// stall and every third adds memory-budget pressure, so the pressure
// dimensions compose with every phase over a full matrix.
func Generate(seed int64, count, horizon int) []Schedule {
	if horizon < 3 {
		horizon = 3
	}
	out := make([]Schedule, 0, count)
	for i := 0; i < count; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)*0x9e3779b9)) //gm:nondeterministic-ok seeded schedule generator: pure function of (seed, i)
		s := Schedule{ID: i, Seed: seed}
		phase := armablePhases[i%len(armablePhases)]
		step := 1 + rng.Intn(horizon-1)
		worker := rng.Intn(8)

		if phase == pregel.FaultCheckpoint {
			// A torn checkpoint is only observable when a later crash rolls
			// back onto it before the next checkpoint barrier replaces it:
			// tear the first periodic snapshot (the superstep-0 snapshot
			// stays as the verified fallback) and crash one superstep later.
			ce := 2 + rng.Intn(2)
			if ce >= horizon {
				ce = horizon - 1
			}
			s.CheckpointEvery = ce
			s.Faults = pregel.FaultPlan{
				{Superstep: ce, Worker: worker, Phase: pregel.FaultCheckpoint},
				{Superstep: ce + 1, Worker: worker, Phase: pregel.FaultVertexCompute},
			}
		} else {
			s.CheckpointEvery = 1 + rng.Intn(3)
			s.Faults = pregel.FaultPlan{{Superstep: step, Worker: worker, Phase: phase}}
			if rng.Intn(2) == 0 {
				// Compose a second, independent crash in another superstep.
				extra := armablePhases[rng.Intn(len(armablePhases)-1)] // excludes FaultCheckpoint
				at := 1 + rng.Intn(horizon-1)
				if at == step {
					at = 1 + at%(horizon-1)
				}
				s.Faults = append(s.Faults, pregel.Fault{Superstep: at, Worker: rng.Intn(8), Phase: extra})
			}
		}
		if i%4 == 1 {
			s.Stalls = []pregel.Stall{{Superstep: 1 + rng.Intn(horizon-1), Worker: rng.Intn(8), Duration: stallDuration}}
			s.StepDeadline = stallDeadline
		}
		if i%3 == 2 {
			s.BudgetFrac = 0.35 + 0.3*rng.Float64()
		}
		out = append(out, s)
	}
	return out
}
