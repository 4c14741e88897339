package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables fails when BENCHMARK.json and the
// tables the program prints from drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, program has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, d)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: not a valid name or unit", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q named twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
}

// TestSmoke runs all five workloads at -smoke size, untraced and traced,
// and checks the output contract: every metric of the run's table printed
// once with its unit, the last line the result object with exactly those
// metrics, no failed operation, and a trace file from the traced run.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			dir := t.TempDir()
			var out bytes.Buffer
			res, err := runWorkload(&out, w, defaultSeed, 0, traced, true, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			if res.failed != 0 || res.attempted < 1 || res.values["fail_share"] != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed\n%s", w.name, traced, res.failed, res.attempted, out.String())
			}
			lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
			printed := map[string]string{}
			for _, line := range lines {
				f := strings.Fields(line)
				if len(f) >= 4 && f[0] == "metric" {
					if _, dup := printed[f[1]]; dup {
						t.Errorf("%s traced=%v: metric %s printed twice", w.name, traced, f[1])
					}
					printed[f[1]] = f[3]
				}
			}
			var last struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", w.name, traced, err)
			}
			if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
				t.Errorf("%s traced=%v: result object %s", w.name, traced, lines[len(lines)-1])
			}
			if len(last.Metrics) != len(defs) || len(printed) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result object, %d printed, table has %d",
					w.name, traced, len(last.Metrics), len(printed), len(defs))
			}
			for _, d := range defs {
				m, ok := last.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit || printed[d.Name] != d.Unit {
					t.Errorf("%s traced=%v: metric %s (%s) missing or with the wrong unit", w.name, traced, d.Name, d.Unit)
				}
				if !traced && ok && m.Value != nil && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, *m.Value)
				}
			}
			if traced {
				data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				if n := bytes.Count(data, []byte("\n")); n < 2 {
					t.Errorf("%s: trace has %d spans", w.name, n)
				}
			}
		}
	}
}

// TestInputDriftGuard checks that the guard passes on the pinned inputs,
// fails on any other, and ignores seeds that have no pin.
func TestInputDriftGuard(t *testing.T) {
	w, _ := workloadByName("sssp-social")
	good := w.pin(true)
	if err := checkPin(w.name, true, defaultSeed, good); err != nil {
		t.Errorf("pinned inputs rejected: %v", err)
	}
	bad := good
	bad.Edges++
	if err := checkPin(w.name, true, defaultSeed, bad); err == nil {
		t.Error("drifted inputs accepted")
	}
	if err := checkPin(w.name, true, defaultSeed+1, bad); err != nil {
		t.Errorf("unpinned seed rejected: %v", err)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("median reordered its argument")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(hundred, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Nearest rank never interpolates: p99 of 10 samples is the maximum.
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99); got != 10 {
		t.Errorf("p99 of ten = %v, want 10", got)
	}
	if got := relSpread([]float64{9, 10, 11}); got != 0.2 {
		t.Errorf("relSpread = %v, want 0.2", got)
	}
}

func TestRotation(t *testing.T) {
	position := map[[2]int]bool{} // (arm, position) pairs seen
	for r := 0; r < 4; r++ {
		order := rotation(r, 4)
		seen := map[int]bool{}
		for pos, arm := range order {
			seen[arm] = true
			position[[2]int{arm, pos}] = true
		}
		if len(seen) != 4 {
			t.Errorf("round %d: order %v is not a permutation", r, order)
		}
	}
	if len(position) != 16 {
		t.Errorf("over 4 rounds arms took %d of 16 (arm, position) pairs", len(position))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, DurNS: 100},  // root
		{ID: 2, Parent: 1, StartNS: 10, DurNS: 30},  // child, [10,40)
		{ID: 3, Parent: 1, StartNS: 30, DurNS: 30},  // overlaps the first: [30,60), 20 new
		{ID: 4, Parent: 1, StartNS: 90, DurNS: 50},  // sticks out of the root: clipped to [90,100)
		{ID: 5, Parent: 2, StartNS: 15, DurNS: 5},   // grandchild
		{ID: 6, Parent: 99, StartNS: 0, DurNS: 7},   // parent not in the set: a root of its own
		{ID: 7, Parent: 1, StartNS: 200, DurNS: 10}, // wholly outside: covers nothing
	}
	want := []int64{100 - 30 - 20 - 10, 25, 30, 50, 5, 7, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var rec *recorder
	sp := rec.begin("t", nil, "layer", "name")
	if sp != nil || sp.end(nil) != 0 {
		t.Error("nil recorder must hand out nil spans that end as no-ops")
	}
	(&engineSpans{}).attach(sp)
}
