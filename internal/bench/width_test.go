package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gmpregel/internal/core"
	"gmpregel/internal/manual"
	"gmpregel/internal/pregel"
)

// No job declares a record wider than its messages need. The engine
// sizes its message record from the widest declared MessageType, so a
// job that declares a field its messages never carry still runs — just
// wider. This walks everything the benchmark runs: the nine corpus
// programs (read-only, from benchmark/corpus) must hand the engine one
// field per message field, of its kind, each hand-written job must
// declare the same field lists as the program compiled from its
// algorithm, and the three engine workloads of BENCHMARK.json must come
// out at 16 bytes a message in both arms. The same walk pins which
// message types the compiler folds at delivery, and requires each
// hand-written job to declare the same folds, so the generated/manual
// comparison keeps both arms on one delivery path.
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
	wantFolds := map[string][]string{
		"pagerank": {"t0 sum/float"},
		"sssp":     {"t0 min/int"},
		"hits":     {"t1 sum/float", "t2 sum/float"},
		"wcc":      {"t1 min/int", "t2 min/int"},
	}
	// folds lists a schema's folds as "t<type> <op>/<kind>", or without
	// the type when untyped (hand-written jobs number types as they
	// please, so those compare as a sorted multiset).
	folds := func(s pregel.Schema, typed bool) []string {
		var out []string
		for t, m := range s.Messages {
			switch {
			case m.Fold == nil:
			case typed:
				out = append(out, fmt.Sprintf("t%d %v/%v", t, *m.Fold, m.Fields[0]))
			default:
				out = append(out, fmt.Sprintf("%v/%v", *m.Fold, m.Fields[0]))
			}
		}
		sort.Strings(out)
		return out
	}
	// fields lists a schema's field lists as a sorted multiset.
	fields := func(s pregel.Schema) []string {
		var out []string
		for _, m := range s.Messages {
			out = append(out, fmt.Sprint(m.Fields))
		}
		sort.Strings(out)
		return out
	}
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
		schema := prog.Schema()
		if got := folds(schema, true); !reflect.DeepEqual(got, wantFolds[name]) {
			t.Errorf("%s: folds %v, want %v", name, got, wantFolds[name])
		}
		if len(schema.Messages) != len(prog.Msgs) {
			t.Errorf("%s: %d message types, %d declared", name, len(prog.Msgs), len(schema.Messages))
			continue
		}
		for i, m := range prog.Msgs {
			if got := schema.Messages[i].Fields; len(got) != len(m.Fields) {
				t.Errorf("%s: message %q has fields %v but declares %v", name, m.Name, m.Fields, got)
			}
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
		if got, want := folds(job.Schema(), false), folds(schema, false); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (manual): declares folds %v, the compiled program folds %v", name, got, want)
		}
		// Hand-written jobs number their types as they please; the field
		// lists must match the compiler's as a multiset.
		if got, want := fields(job.Schema()), fields(schema); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (manual): declares fields %v, the compiled program's types have %v", name, got, want)
		}
		check16("manual", job.Schema())
	}
	for name := range manuals {
		t.Errorf("manual job %s has no corpus program to be checked against", name)
	}
}
