package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric of the benchmark. The two tables below are
// the source of truth; BENCHMARK.json repeats them and the smoke test
// fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // relative worsening that counts as a regression; end-to-end only
	// Exact marks a count that repeats exactly for one seed on one
	// machine, so -repeat can demand identical values across its sets.
	Exact bool
}

// endToEnd are the metrics every workload reports with -trace 0. They
// are the same three questions asked of each workload: how long until it
// is ready, how long one operation takes at one worker, and how many
// operations per second its parallel path completes at Wn. What
// "operation" means is fixed per workload (see README.md): a full-corpus
// compile pass; a generated job from source text to result at one worker,
// and hand-written jobs per second at Wn workers; a served cache-hit
// request, and OK responses per second from Wn clients. The bounds are
// two to three times the spread across ten seeds measured on the shared
// 2-core sandbox this was written on, whose speed drifts by that much
// (README.md has the numbers).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rate_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer are the metrics every workload reports with -trace 1: the
// workload-specific end-to-end names first (they carry no bound of their
// own; op_ms and rate_per_s gate them), then one block per module. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// Workload-specific end-to-end names.
	{Name: "job_s", Unit: "s", Better: "lower"},
	{Name: "manual_s", Unit: "s", Better: "lower"},
	{Name: "job_w1_s", Unit: "s", Better: "lower"},
	{Name: "manual_w1_s", Unit: "s", Better: "lower"},
	{Name: "gen_over_manual", Unit: "ratio", Better: "lower"},
	{Name: "compile_ms", Unit: "ms", Better: "lower"},
	{Name: "compile_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve_rps", Unit: "1/s", Better: "higher"},
	{Name: "serve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},
	// Front end.
	{Name: "parser.us", Unit: "us", Better: "lower"},
	{Name: "sema.us", Unit: "us", Better: "lower"},
	{Name: "analysis.us", Unit: "us", Better: "lower"},
	{Name: "core.us", Unit: "us", Better: "lower"},
	{Name: "core.rules_fired", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.states", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.msg_types", Unit: "count", Better: "lower", Exact: true},
	{Name: "codegen.us", Unit: "us", Better: "lower"},
	{Name: "codegen.java_lines", Unit: "count", Better: "lower", Exact: true},
	{Name: "machine.encode_us", Unit: "us", Better: "lower"},
	{Name: "machine.decode_us", Unit: "us", Better: "lower"},
	{Name: "machine.artifact_bytes", Unit: "count", Better: "lower", Exact: true},
	// Generated-program runtime.
	{Name: "machine.bind_s", Unit: "s", Better: "lower"},
	{Name: "machine.interp_s", Unit: "s", Better: "lower"},
	{Name: "machine.speedup_wn", Unit: "ratio", Better: "higher"},
	{Name: "machine.gen_over_manual_wn", Unit: "ratio", Better: "lower"},
	// Engine.
	{Name: "pregel.speedup_wn", Unit: "ratio", Better: "higher"},
	{Name: "pregel.cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "seq.ref_s", Unit: "s", Better: "lower"},
	{Name: "pregel.busy_s", Unit: "s", Better: "lower"},
	{Name: "pregel.idle_share", Unit: "ratio", Better: "lower"},
	{Name: "pregel.ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "pregel.allocs_per_superstep", Unit: "count", Better: "lower"},
	{Name: "pregel.messages", Unit: "count", Better: "lower", Exact: true},
	{Name: "pregel.network_bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "pregel.supersteps_gen", Unit: "count", Better: "lower", Exact: true},
	{Name: "pregel.supersteps_manual", Unit: "count", Better: "lower", Exact: true},
	{Name: "pregel.control_bytes_gen", Unit: "count", Better: "lower", Exact: true},
	{Name: "pregel.control_bytes_manual", Unit: "count", Better: "lower", Exact: true},
	{Name: "pregel.vertex_calls_gen", Unit: "count", Better: "lower", Exact: true},
	{Name: "pregel.vertex_calls_manual", Unit: "count", Better: "lower", Exact: true},
	// Graph substrate.
	{Name: "graph.gen_s", Unit: "s", Better: "lower"},
	{Name: "graph.reverse_csr_s", Unit: "s", Better: "lower"},
	// Job server.
	{Name: "serve.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.source_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "serve.cache_misses", Unit: "count", Better: "lower"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "serve.rejects", Unit: "count", Better: "lower"},
	// The traced run itself.
	{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "obs.self_time_cover", Unit: "ratio", Better: "higher"},
}

// result collects what one workload run measured.
type result struct {
	values    map[string]float64
	samples   map[string]int
	extra     []extraRow // rows whose names are not fixed (per-phase busy time)
	attempted int
	failed    int
	failures  []string // first few oracle or operation failures, for the log
}

type extraRow struct {
	name, unit string
	value      float64
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric value and the number of samples behind it.
func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// report prints every metric in defs by name with its unit, then the
// extra rows, then the one-line JSON object the driver reads.
func (r *result) report(w io.Writer, defs []metricDef) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := r.values[d.Name]
		fmt.Fprintf(w, "metric %-28s %16.6f %-6s n=%d\n", d.Name, v, d.Unit, r.samples[d.Name])
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	sort.Slice(r.extra, func(i, j int) bool { return r.extra[i].name < r.extra[j].name })
	for _, e := range r.extra {
		fmt.Fprintf(w, "layer  %-28s %16.6f %s\n", e.name, e.value, e.unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL   %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
