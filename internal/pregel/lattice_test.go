package pregel

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// The schedule lattice: the one place the tests enumerate the Config
// fields that change how a superstep is scheduled without changing what
// it computes. Every Config field is registered here either as an axis
// (enumerated by scheduleGroups) or as fixed (left to the test's base
// config); TestScheduleLatticeCoversConfig fails on a field that is
// neither, so a new knob cannot ship without a decision about where the
// determinism, zero-alloc and fault matrices cover it.
var (
	scheduleAxes = map[string]bool{
		"NumWorkers": true, "ChunkSize": true, "Partitioner": true,
	}
	scheduleFixed = map[string]bool{
		"MaxSupersteps": true, "Seed": true, "TraceSteps": true,
		"CheckpointEvery": true, "Faults": true, "MaxRecoveries": true,
		"Deadline": true, "Observer": true, "MemoryBudget": true,
		"Watchdog": true, "StepDeadline": true, "BackoffBase": true,
		"BackoffCap": true, "Stalls": true,
	}
)

// oneChunk is a ChunkSize no partition reaches: every worker runs as a
// single chunk, so there is nothing to split and no raw-log fold. It is
// the reference schedule the chunked, stolen ones are checked against.
const oneChunk = 1 << 30

// workerCounts is the NumWorkers axis.
func workerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// scheduleGroups enumerates the lattice over base: NumWorkers
// {1, 2, 7, GOMAXPROCS} × Partitioner {mod, degree} × ChunkSize
// {≥n, auto, 1, 16, 64}. Points are grouped by (NumWorkers,
// Partitioner) — placement legitimately decides the network/local byte
// split — and only ChunkSize varies inside a group, so every point must
// reproduce its group's first point, the oneChunk reference, bit for
// bit.
func scheduleGroups(base Config) [][]Config {
	var groups [][]Config
	for _, w := range workerCounts() {
		for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
			var group []Config
			for _, chunk := range []int{oneChunk, 0, 1, 16, 64} {
				cfg := base
				cfg.NumWorkers, cfg.Partitioner, cfg.ChunkSize = w, part, chunk
				group = append(group, cfg)
			}
			groups = append(groups, group)
		}
	}
	return groups
}

// scheduleName labels a lattice point for subtests and failures.
func scheduleName(cfg Config) string {
	part, chunk := "mod", fmt.Sprint(cfg.ChunkSize)
	if cfg.Partitioner == PartitionDegree {
		part = "degree"
	}
	if cfg.ChunkSize == oneChunk {
		chunk = "one"
	}
	return fmt.Sprintf("W=%d/part=%s/chunk=%s", cfg.NumWorkers, part, chunk)
}

func TestScheduleLatticeCoversConfig(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	if typ.NumField() != len(scheduleAxes)+len(scheduleFixed) {
		t.Errorf("Config has %d fields, the lattice registers %d axes + %d fixed",
			typ.NumField(), len(scheduleAxes), len(scheduleFixed))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if scheduleAxes[name] == scheduleFixed[name] {
			t.Errorf("Config.%s must be registered as exactly one of schedule axis or fixed", name)
		}
	}
}
