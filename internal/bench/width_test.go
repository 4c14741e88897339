package bench

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gmpregel/internal/core"
	"gmpregel/internal/machine"
	"gmpregel/internal/manual"
	"gmpregel/internal/pregel"
)

// No job falls back to the 40-byte default record by accident. The
// engine sizes its message record from Schema.MessageSlots, and a schema
// that forgets to declare it still runs — just two and a half times
// wider. This walks everything the benchmark runs: the nine corpus
// programs (read-only, from benchmark/corpus) must hand the engine one
// slot per message field, each hand-written job must declare the same
// slot counts as the program compiled from its algorithm, and the three
// engine workloads of BENCHMARK.json must come out at 16 bytes a
// message in both arms.
func TestNoJobFallsBackToWideRecords(t *testing.T) {
	files, err := filepath.Glob("../../benchmark/corpus/*.gm")
	if err != nil || len(files) != 9 {
		t.Fatalf("benchmark corpus: %d programs (%v), want 9", len(files), err)
	}
	manuals := map[string]pregel.Job{
		"avgteen":     &manual.AvgTeen{},
		"pagerank":    &manual.PageRank{},
		"conductance": &manual.Conductance{},
		"sssp":        &manual.SSSP{},
		"bipartite":   &manual.Bipartite{},
	}
	narrow := map[string]bool{"pagerank": true, "sssp": true, "bipartite": true}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".gm")
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := core.Compile(string(src), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog := compiled.Program
		schema := prog.Schema(machine.RunOptions{})
		if len(schema.MessageSlots) != len(prog.Msgs) {
			t.Errorf("%s: %d message types, %d MessageSlots entries", name, len(prog.Msgs), len(schema.MessageSlots))
			continue
		}
		var fields []int
		for i, m := range prog.Msgs {
			if schema.MessageSlots[i] != len(m.Fields) {
				t.Errorf("%s: message %q has %d fields but declares %d slots", name, m.Name, len(m.Fields), schema.MessageSlots[i])
			}
			fields = append(fields, len(m.Fields))
		}
		check16 := func(arm string, s pregel.Schema) {
			if got, err := pregel.RecordBytes(s); narrow[name] && (err != nil || got != 16) {
				t.Errorf("%s (%s): record is %d bytes (%v), want 16", name, arm, got, err)
			}
		}
		check16("generated", schema)
		job, ok := manuals[name]
		if !ok {
			continue
		}
		delete(manuals, name)
		// Hand-written jobs number their types as they please; the slot
		// counts must match the compiler's as a multiset.
		declared := append([]int(nil), job.Schema().MessageSlots...)
		sort.Ints(declared)
		sort.Ints(fields)
		if len(declared) != len(fields) {
			t.Errorf("%s (manual): declares slots %v, the compiled program's types have %v fields", name, declared, fields)
			continue
		}
		for i := range declared {
			if declared[i] != fields[i] {
				t.Errorf("%s (manual): declares slots %v, the compiled program's types have %v fields", name, declared, fields)
				break
			}
		}
		check16("manual", job.Schema())
	}
	for name := range manuals {
		t.Errorf("manual job %s has no corpus program to be checked against", name)
	}
}
