package chaos

import (
	"errors"
	"fmt"
	"reflect"

	"gmpregel/internal/obs"
	"gmpregel/internal/pregel"
)

// Target runs the job under test with cfg and returns its vertex output
// (compared with reflect.DeepEqual for bit-identity), the run's Stats,
// and any error. A Target must be a pure function of cfg: the runner
// invokes it many times and compares results across invocations.
type Target func(cfg pregel.Config) (any, pregel.Stats, error)

// SemanticStats zeroes the monotone fault-tolerance and
// resource-governance counters, leaving exactly the fields a recovered
// chaotic run must reproduce bit-identically from a fault-free run.
func SemanticStats(st pregel.Stats) pregel.Stats {
	st.Checkpoints, st.CheckpointBytes, st.Recoveries, st.RecoveredSupersteps = 0, 0, 0, 0
	st.Spills, st.SpillBytes, st.MemoryPeakBytes = 0, 0, 0
	return st
}

// Result is the outcome of one chaos schedule.
type Result struct {
	ID        int      `json:"id"`
	Label     string   `json:"label"`
	Phases    []string `json:"phases"`
	Budget    int64    `json:"budget,omitempty"`  // final memory budget applied, after floor retries
	Retries   int      `json:"retries,omitempty"` // budget doublings needed to clear the spill floor
	Survived  bool     `json:"survived"`          // run completed without error
	Identical bool     `json:"identical"`         // vertex output and semantic Stats bit-identical

	Recoveries int   `json:"recoveries"`
	Spills     int   `json:"spills"`
	SpillBytes int64 `json:"spill_bytes"`
	MTTRNS     int64 `json:"mttr_ns"` // mean recovery span duration (rollback + state restore)

	Err string `json:"err,omitempty"`
}

// Report is the machine-readable survival report of a chaos campaign.
type Report struct {
	Seed      int64 `json:"seed"`
	Schedules int   `json:"schedules"`
	Survived  int   `json:"survived"`
	Identical int   `json:"identical"`

	Recoveries int   `json:"recoveries"`
	Spills     int   `json:"spills"`
	SpillBytes int64 `json:"spill_bytes"`
	MeanMTTRNS int64 `json:"mean_mttr_ns"`

	Results []Result `json:"results"`
}

// Runner executes chaos schedules against a target with a fixed base
// engine configuration (workers, seed, chunk size, partitioner). The
// base configuration must itself be chaos-free; the runner layers each
// schedule's knobs on top of it.
type Runner struct {
	Base   pregel.Config
	Target Target
}

// budgetRetries bounds the budget-doubling loop: a budget below the
// engine's post-degradation floor (offset tables plus retained
// checkpoints) aborts cleanly with ErrBudgetExceeded, and doubling from
// 35% of the accounted peak reaches the peak itself — where no
// degradation is needed at all — in at most two steps; the headroom
// covers degenerate tiny-graph geometries.
const budgetRetries = 16

// Run executes every schedule, comparing each against a fault-free
// baseline run. It returns an error only when the harness itself cannot
// proceed (the baseline fails); per-schedule failures are recorded in
// the report.
func (r *Runner) Run(seed int64, schedules []Schedule) (*Report, error) {
	baseOut, baseStats, err := r.Target(r.Base)
	if err != nil {
		return nil, fmt.Errorf("chaos: fault-free baseline failed: %w", err)
	}
	wantStats := SemanticStats(baseStats)

	// Budget pressure is expressed against the accounted peak of an
	// unconstrained run with the same checkpoint cadence (retained
	// snapshots are part of governed memory), probed once per cadence.
	peaks := map[int]int64{}
	peakFor := func(ce int) (int64, error) {
		if p, ok := peaks[ce]; ok {
			return p, nil
		}
		cfg := r.Base
		cfg.CheckpointEvery = ce
		cfg.MemoryBudget = 1 << 40
		_, st, err := r.Target(cfg)
		if err != nil {
			return 0, err
		}
		peaks[ce] = st.MemoryPeakBytes
		return st.MemoryPeakBytes, nil
	}

	rep := &Report{Seed: seed, Schedules: len(schedules)}
	var mttrSum, mttrN int64
	for _, s := range schedules {
		res := Result{ID: s.ID, Label: s.String(), Phases: s.Phases()}
		cfg := r.Base
		cfg.CheckpointEvery = s.CheckpointEvery
		cfg.Faults = s.Faults
		if s.BudgetFrac > 0 {
			peak, perr := peakFor(s.CheckpointEvery)
			if perr != nil {
				res.Err = perr.Error()
				rep.Results = append(rep.Results, res)
				continue
			}
			cfg.MemoryBudget = int64(s.BudgetFrac * float64(peak))
			if cfg.MemoryBudget < 1 {
				cfg.MemoryBudget = 1
			}
		}

		var out any
		var st pregel.Stats
		var runErr error
		for try := 0; ; try++ {
			ring := obs.NewRing(1 << 14)
			cfg.Observer = obs.Multi(r.Base.Observer, ring)
			out, st, runErr = r.Target(cfg)
			if errors.Is(runErr, pregel.ErrBudgetExceeded) && cfg.MemoryBudget > 0 && try < budgetRetries {
				// Below the post-degradation floor: ease pressure and retry.
				// The clean abort (instead of an OOM) is itself the governor
				// contract under test.
				cfg.MemoryBudget *= 2
				res.Retries++
				continue
			}
			res.Budget = cfg.MemoryBudget
			var recNS, recs int64
			for _, sp := range ring.Spans() {
				if sp.Phase == obs.PhaseRecovery {
					recNS += sp.DurNS
					recs++
				}
			}
			if recs > 0 {
				res.MTTRNS = recNS / recs
				mttrSum += recNS
				mttrN += recs
			}
			break
		}
		if runErr != nil {
			res.Err = runErr.Error()
			rep.Results = append(rep.Results, res)
			continue
		}
		res.Survived = true
		res.Recoveries = st.Recoveries
		res.Spills = st.Spills
		res.SpillBytes = st.SpillBytes
		res.Identical = reflect.DeepEqual(baseOut, out) &&
			reflect.DeepEqual(wantStats, SemanticStats(st))
		if !res.Identical {
			res.Err = "survived but diverged from the fault-free run"
		}

		rep.Survived++
		if res.Identical {
			rep.Identical++
		}
		rep.Recoveries += res.Recoveries
		rep.Spills += res.Spills
		rep.SpillBytes += res.SpillBytes
		rep.Results = append(rep.Results, res)
	}
	if mttrN > 0 {
		rep.MeanMTTRNS = mttrSum / mttrN
	}
	return rep, nil
}
