package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/core"
	"gmpregel/internal/gm/analysis"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
)

const (
	testWorkers = 4
	testSeed    = int64(1)
)

// newTestServer builds a server + HTTP endpoint with the twitter graph
// loaded under the gmbench input convention (inputs seed = seed+7).
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = testWorkers
	}
	if opts.Seed == 0 {
		opts.Seed = testSeed
	}
	s := New(opts)
	t.Cleanup(s.Close)
	if _, _, err := s.LoadGraph(GraphSpec{Name: "bench", Builder: "twitter", Scale: 1, InputsSeed: testSeed + 7}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// postJSON posts body as JSON. A failure before a response arrives is
// reported with t.Error, not t.Fatal, so the storm's goroutines can call
// it too; the caller then sees status 0.
func postJSON(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return 0, http.Header{}, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Error(err)
		return 0, http.Header{}, nil
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, resp.Header, payload
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(payload, v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, payload)
		}
	}
	return resp.StatusCode
}

// TestServedStatsBitIdenticalToBench is the acceptance gate: a job
// through gmserve produces Stats bit-identical to the same
// algorithm/params run directly on the engine under gmbench's input
// convention on the same graph — on the cache miss (fresh engine run)
// and again on the hit.
func TestServedStatsBitIdenticalToBench(t *testing.T) {
	_, hs := newTestServer(t, Options{})

	// The reference: a direct run on the identical graph/inputs.
	spec, err := algorithms.GraphByName("twitter")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(1)
	in := algorithms.MakeInputs(g, 0, testSeed+7)
	p := algorithms.DefaultParams()
	cfg := pregel.Config{NumWorkers: testWorkers, Seed: testSeed}

	cases := []struct {
		algo   string
		params map[string]any
	}{
		{"pagerank", map[string]any{"e": p.PRBeps, "d": p.PRDamping, "max_iter": float64(p.PRMaxIter)}},
		{"avgteen", map[string]any{"K": float64(p.AvgTeenK)}},
		{"conductance", map[string]any{"num": float64(p.ConductNum)}},
		{"sssp", map[string]any{}},
	}
	for _, tc := range cases {
		c, err := core.Compile(algorithms.ByName[tc.algo], core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := machine.Run(c.Program, g, algorithms.Bindings(tc.algo, in, p), cfg)
		if err != nil {
			t.Fatalf("%s: direct reference run: %v", tc.algo, err)
		}
		req := JobRequest{Tenant: "t1", Graph: "bench", Algorithm: tc.algo, Params: tc.params, Wait: true}

		// Miss: a fresh in-process engine run through the server.
		code, hdr, payload := postJSON(t, hs.URL+"/jobs", req)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", tc.algo, code, payload)
		}
		if hdr.Get("X-Cache") != "miss" {
			t.Fatalf("%s: first run should miss, got %q", tc.algo, hdr.Get("X-Cache"))
		}
		var st JobStatus
		if err := json.Unmarshal(payload, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != "done" || st.Result == nil {
			t.Fatalf("%s: job not done: %+v", tc.algo, st)
		}
		if !reflect.DeepEqual(st.Result.Stats, want.Stats) {
			t.Errorf("%s: served Stats differ from the direct run (miss path)\n got %+v\nwant %+v", tc.algo, st.Result.Stats, want.Stats)
		}

		// Hit: the cached payload replays the identical Stats.
		code, hdr, payload = postJSON(t, hs.URL+"/jobs", req)
		if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
			t.Fatalf("%s: expected cache hit, got HTTP %d %q", tc.algo, code, hdr.Get("X-Cache"))
		}
		var st2 JobStatus
		if err := json.Unmarshal(payload, &st2); err != nil {
			t.Fatal(err)
		}
		if !st2.Cached || st2.Result == nil {
			t.Fatalf("%s: hit not marked cached: %+v", tc.algo, st2)
		}
		if !reflect.DeepEqual(st2.Result.Stats, want.Stats) {
			t.Errorf("%s: cached Stats differ from the direct run\n got %+v\nwant %+v", tc.algo, st2.Result.Stats, want.Stats)
		}
	}
}

// degSumSource is a valid ad-hoc program; brokenSource fails sema.
const (
	degSumSource = `Procedure deg_sum(G: Graph, deg: Node_Prop<Int>) : Int
{
    Int total = 0;
    Foreach (n: G.Nodes) {
        n.deg = n.Degree();
    }
    total = Sum(n: G.Nodes)(n.deg);
    Return total;
}
`
	brokenSource = `Procedure broken(G: Graph) : Int
{
    Int x = 0;
    x = True;
    Return x;
}
`
)

// inDegreeSource type-checks, but InDegree() has no Pregel translation.
const inDegreeSource = `
Procedure indeg(G: Graph, x: Node_Prop<Int>) {
    Foreach (n: G.Nodes) { n.x = n.InDegree(); }
}
`

// TestCompileFromSource covers the ad-hoc Green-Marl path: a valid
// source executes; a broken one comes back 400 with structured
// diagnostics rather than a bare string.
func TestCompileFromSource(t *testing.T) {
	_, hs := newTestServer(t, Options{})

	req := JobRequest{Tenant: "dev", Graph: "bench", Source: degSumSource, Wait: true}
	code, _, payload := postJSON(t, hs.URL+"/jobs", req)
	if code != http.StatusOK {
		t.Fatalf("valid source: HTTP %d: %s", code, payload)
	}
	var st JobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || st.Result.Ret == nil || st.Result.Ret.Kind != "int" {
		t.Fatalf("expected an int return, got %+v", st)
	}
	if st.Result.Ret.Int <= 0 {
		t.Errorf("degree sum should be positive, got %d", st.Result.Ret.Int)
	}
	if !strings.HasPrefix(st.Result.ProgramHash, "gmp1:") {
		t.Errorf("result should carry the program hash, got %q", st.Result.ProgramHash)
	}

	// A type error and a construct the compiler rejects both come back
	// as one positioned diagnostics report.
	for _, tc := range []struct{ src, code string }{
		{brokenSource, analysis.CodeSema},
		{inDegreeSource, analysis.CodeUnsupported},
	} {
		code, _, payload = postJSON(t, hs.URL+"/jobs", JobRequest{Tenant: "dev", Graph: "bench", Source: tc.src, Wait: true})
		if code != http.StatusBadRequest {
			t.Fatalf("rejected source: want 400, got %d: %s", code, payload)
		}
		var errBody struct {
			Error       string          `json:"error"`
			Diagnostics analysis.Report `json:"diagnostics"`
		}
		if err := json.Unmarshal(payload, &errBody); err != nil {
			t.Fatalf("error body not JSON: %v\n%s", err, payload)
		}
		ds := errBody.Diagnostics.Diagnostics
		if errBody.Error != "compile failed" || errBody.Diagnostics.Errors == 0 || len(ds) == 0 {
			t.Fatalf("unexpected error shape: %s", payload)
		}
		if d := ds[0]; d.Code != tc.code || d.Severity != analysis.SevError || d.Pos.Line == 0 || d.Msg == "" {
			t.Errorf("want a positioned %s error, got %s", tc.code, payload)
		}
	}
}

// TestQuotaRejectionWith429 locks in saturation behavior: a tenant at
// MaxConcurrent=1 with no queue gets 429 + Retry-After on its second
// concurrent submission, and the rejection is visible in the metrics.
func TestQuotaRejectionWith429(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	s.SetQuota("small", Quota{MaxConcurrent: 1, MaxQueued: -1, Weight: 1})

	long := JobRequest{Tenant: "small", Graph: "bench", Algorithm: "pagerank",
		Params: map[string]any{"e": 0.0, "d": 0.85, "max_iter": 40}, NoCache: true}
	code, _, payload := postJSON(t, hs.URL+"/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("first job: want 202, got %d: %s", code, payload)
	}
	var first JobStatus
	if err := json.Unmarshal(payload, &first); err != nil {
		t.Fatal(err)
	}

	code, hdr, payload := postJSON(t, hs.URL+"/jobs", long)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second job: want 429, got %d: %s", code, payload)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	var rej struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(payload, &rej); err != nil {
		t.Fatal(err)
	}
	if rej.RetryAfterMS <= 0 {
		t.Errorf("want a positive retry_after_ms, got %s", payload)
	}

	// The decision is on the metrics surface.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), `serve_admission_total{decision="reject",tenant="small"} 1`) {
		t.Errorf("reject not in metrics:\n%s", prom)
	}

	// Let the long job finish so the test server shuts down cleanly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		getJSON(t, hs.URL+"/jobs/"+first.ID, &st)
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("long job never finished: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHotSwapDrainsOldVersion is the no-leak acceptance gate: swapping
// a graph under a live job neither fails the job (it stays pinned to
// the old version) nor leaks the old snapshot once the job drains.
func TestHotSwapDrainsOldVersion(t *testing.T) {
	s, hs := newTestServer(t, Options{})

	// Hold a reference to v1 so we can inspect it after the swap.
	v1, err := s.snaps.Acquire("bench")
	if err != nil {
		t.Fatal(err)
	}

	long := JobRequest{Tenant: "swap", Graph: "bench", Algorithm: "pagerank",
		Params: map[string]any{"e": 0.0, "d": 0.85, "max_iter": 60}, NoCache: true}
	code, _, payload := postJSON(t, hs.URL+"/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("long job: want 202, got %d: %s", code, payload)
	}
	var job1 JobStatus
	if err := json.Unmarshal(payload, &job1); err != nil {
		t.Fatal(err)
	}

	// Swap in v2 while the job runs.
	code, _, payload = postJSON(t, hs.URL+"/graphs", GraphSpec{Name: "bench", Builder: "ring", Scale: 1, InputsSeed: 9})
	if code != http.StatusOK {
		t.Fatalf("swap: HTTP %d: %s", code, payload)
	}
	var swap struct {
		Graph   string `json:"graph"`
		Retired string `json:"retired"`
	}
	if err := json.Unmarshal(payload, &swap); err != nil {
		t.Fatal(err)
	}
	if swap.Graph != "bench@v2" || swap.Retired != "bench@v1" {
		t.Fatalf("unexpected swap response: %s", payload)
	}

	// The in-flight job completes against v1.
	var final JobStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, hs.URL+"/jobs/"+job1.ID, &final)
		if final.State == "done" || final.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("swapped-over job never finished: %+v", final)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != "done" {
		t.Fatalf("job pinned to the old version must succeed, got %+v", final)
	}
	if final.Result.Graph != "bench@v1" {
		t.Errorf("job should report the version it ran on, got %q", final.Result.Graph)
	}

	// New submissions run on v2.
	code, _, payload = postJSON(t, hs.URL+"/jobs", JobRequest{Tenant: "swap", Graph: "bench",
		Algorithm: "pagerank", Params: map[string]any{"e": 1e-4, "d": 0.85, "max_iter": 3}, Wait: true})
	if code != http.StatusOK {
		t.Fatalf("post-swap job: HTTP %d: %s", code, payload)
	}
	var st2 JobStatus
	if err := json.Unmarshal(payload, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Result.Graph != "bench@v2" {
		t.Errorf("post-swap job should run on v2, got %q", st2.Result.Graph)
	}

	// Drop our own pin: the retired snapshot must reach refcount zero
	// and be marked freed. The job's pin is released just after its
	// state turns observable, so poll briefly.
	v1.release()
	for time.Now().Before(deadline) && !v1.FreedForTest() {
		time.Sleep(5 * time.Millisecond)
	}
	if got := v1.Refs(); got != 0 {
		t.Errorf("retired snapshot still has %d refs", got)
	}
	if !v1.FreedForTest() {
		t.Error("retired snapshot was never freed")
	}

	// The drain is observable in metrics.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve_graph_swaps_total 1", "serve_graphs_freed_total 1"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobTraceStreamsProgress checks /jobs/{id}/trace serves the Live
// observer's snapshot for a finished job.
func TestJobTraceStreamsProgress(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	req := JobRequest{Tenant: "tracer", Graph: "bench", Algorithm: "pagerank",
		Params: map[string]any{"e": 1e-4, "d": 0.85, "max_iter": 4}, NoCache: true, Wait: true}
	code, _, payload := postJSON(t, hs.URL+"/jobs", req)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, payload)
	}
	var st JobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Run   struct {
			Superstep   int   `json:"superstep"`
			Done        bool  `json:"done"`
			Spans       int64 `json:"spans"`
			VertexCalls int64 `json:"vertex_calls"`
		} `json:"run"`
	}
	if code := getJSON(t, hs.URL+"/jobs/"+st.ID+"/trace", &trace); code != http.StatusOK {
		t.Fatalf("trace: HTTP %d", code)
	}
	if !trace.Run.Done || trace.Run.Spans == 0 || trace.Run.VertexCalls == 0 {
		t.Errorf("trace snapshot not populated: %+v", trace)
	}
	if trace.State != "done" {
		t.Errorf("trace state = %q", trace.State)
	}

	if code := getJSON(t, hs.URL+"/jobs/nope/trace", nil); code != http.StatusNotFound {
		t.Errorf("unknown job trace: want 404, got %d", code)
	}
}

// TestJobTimeoutFailsRun submits a PageRank that never converges (e<0,
// so only max_iter = 2^20 stops it) with a 50 ms timeout_ms: the budget
// is enforced at a superstep barrier, and the job ends failed with the
// context's deadline error and the partial stats of the supersteps run.
func TestJobTimeoutFailsRun(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	if _, _, err := s.LoadGraph(GraphSpec{Name: "ring", Builder: "ring", Scale: 1, InputsSeed: testSeed + 7}); err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Tenant: "hasty", Graph: "ring", Algorithm: "pagerank",
		Params:  map[string]any{"e": -1.0, "d": 0.85, "max_iter": 1 << 20},
		NoCache: true, Wait: true, TimeoutMS: 50}
	code, _, payload := postJSON(t, hs.URL+"/jobs", req)
	if code != http.StatusInternalServerError {
		t.Fatalf("want 500 for a timed-out job, got %d: %s", code, payload)
	}
	var st JobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !strings.Contains(st.Error, "deadline exceeded") {
		t.Errorf("want failed with a deadline error, got state %q error %q", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Stats.Supersteps == 0 {
		t.Errorf("timed-out job lost its partial stats: %+v", st.Result)
	}
}

// badRequests are the API's structured rejections, including bodies
// that would otherwise hang or exhaust the server.
var badRequests = []struct {
	name string
	path string
	body any
	want int
}{
	{"no tenant", "/jobs", JobRequest{Graph: "bench", Algorithm: "pagerank"}, http.StatusBadRequest},
	{"no graph", "/jobs", JobRequest{Tenant: "x", Algorithm: "pagerank"}, http.StatusBadRequest},
	{"unknown graph", "/jobs", JobRequest{Tenant: "x", Graph: "nope", Algorithm: "pagerank"}, http.StatusNotFound},
	{"unknown algorithm", "/jobs", JobRequest{Tenant: "x", Graph: "bench", Algorithm: "nope"}, http.StatusBadRequest},
	{"both algorithm and source", "/jobs", JobRequest{Tenant: "x", Graph: "bench", Algorithm: "pagerank", Source: "x"}, http.StatusBadRequest},
	{"missing params", "/jobs", JobRequest{Tenant: "x", Graph: "bench", Algorithm: "pagerank"}, http.StatusBadRequest},
	{"unknown param", "/jobs", JobRequest{Tenant: "x", Graph: "bench", Algorithm: "sssp",
		Params: map[string]any{"bogus": 1.0}}, http.StatusBadRequest},
	{"non-integer int param", "/jobs", JobRequest{Tenant: "x", Graph: "bench", Algorithm: "avgteen",
		Params: map[string]any{"K": 1.5}}, http.StatusBadRequest},
	// int64(1e300) is math.MinInt64 on amd64: the run would start
	// with a nonsense iteration bound.
	{"int param beyond 2^53", "/jobs", JobRequest{Tenant: "x", Graph: "bench", Algorithm: "pagerank",
		Params: map[string]any{"e": 1e-4, "d": 0.85, "max_iter": 1e300}, Wait: true}, http.StatusBadRequest},
	// The RMAT size search never terminates at this scale.
	{"sk2005 scale 1e15", "/graphs", GraphSpec{Name: "huge", Builder: "sk2005", Scale: 1e15}, http.StatusBadRequest},
	// 5e9 vertices: the generator would take the server down.
	{"twitter scale 1e6", "/graphs", GraphSpec{Name: "huge", Builder: "twitter", Scale: 1000000}, http.StatusBadRequest},
	// Quotas the admission ledger cannot honour: a negative bound queues
	// jobs nothing dispatches, a negative weight jumps every queue.
	{"negative max_concurrent", "/tenants", map[string]any{"name": "t", "quota": Quota{MaxConcurrent: -1}}, http.StatusBadRequest},
	{"negative weight", "/tenants", map[string]any{"name": "t", "quota": Quota{Weight: -1}}, http.StatusBadRequest},
	{"negative memory_bytes", "/tenants", map[string]any{"name": "t", "quota": Quota{MemoryBytes: -1}}, http.StatusBadRequest},
	{"negative deadline_ms", "/tenants", map[string]any{"name": "t", "quota": Quota{DeadlineMS: -1}}, http.StatusBadRequest},
	{"max_queued below -1", "/tenants", map[string]any{"name": "t", "quota": Quota{MaxQueued: -2}}, http.StatusBadRequest},
}

// TestBadRequests checks that each of badRequests is refused with its
// status and a structured JSON error.
func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	for _, tc := range badRequests {
		code, _, payload := postJSON(t, hs.URL+tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: want %d, got %d: %s", tc.name, tc.want, code, payload)
		}
		var body map[string]any
		if err := json.Unmarshal(payload, &body); err != nil || body["error"] == nil {
			t.Errorf("%s: rejection body not structured JSON: %s", tc.name, payload)
		}
	}
}

// asInt accepts every integer a JSON number carries exactly and refuses
// the rest, whose int64 conversion is implementation-defined.
func TestAsIntRange(t *testing.T) {
	for _, f := range []float64{0, -1, 1 << 53, -(1 << 53)} {
		if n, err := asInt("n", f); err != nil || n != int64(f) {
			t.Errorf("asInt(%v) = %d, %v; want %d", f, n, err, int64(f))
		}
	}
	for _, f := range []float64{1<<53 + 2, -(1<<53 + 2), 1e300, math.Inf(1)} {
		if _, err := asInt("n", f); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("asInt(%v): want an out-of-range error, got %v", f, err)
		}
	}
}

// buildGraph refuses a scale above maxGraphScale for every builder,
// naming the bound, before any generator runs; an unset scale means 1.
func TestBuildGraphScaleBound(t *testing.T) {
	for _, b := range []string{"twitter", "bipartite", "sk2005", "ring", "random"} {
		_, _, err := buildGraph(GraphSpec{Builder: b, Scale: maxGraphScale + 1})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxGraphScale)) {
			t.Errorf("%s at scale %d: want an error naming the bound, got %v", b, maxGraphScale+1, err)
		}
	}
	g, _, err := buildGraph(GraphSpec{Builder: "ring"})
	if err != nil || g.NumNodes() != 512 {
		t.Fatalf("ring at default scale: %v", err)
	}
}

// TestLoadStorm256Concurrent is the serving layer's concurrency gate:
// 256 concurrent clients of three tenants, mixing cached and uncached
// built-ins with compile-from-source jobs against one resident graph,
// get only 200s and 429s, hit the warm cache, and leave per-tenant
// admission decisions on /metrics. CI runs it under -race.
func TestLoadStorm256Concurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test skipped in -short mode")
	}
	s, hs := newTestServer(t, Options{Workers: 2, Capacity: 8})
	// The ring keeps per-request engine work trivial so the storm
	// exercises the serving layer, not the kernels.
	if _, _, err := s.LoadGraph(GraphSpec{Name: "ring", Builder: "ring", Scale: 1, InputsSeed: testSeed + 7}); err != nil {
		t.Fatal(err)
	}
	s.SetQuota("alpha", Quota{MaxConcurrent: 4, MaxQueued: 1024, Weight: 4})
	s.SetQuota("beta", Quota{MaxConcurrent: 2, MaxQueued: 1024, Weight: 1})
	s.SetQuota("limited", Quota{MaxConcurrent: 1, MaxQueued: -1, Weight: 1})

	queries := []JobRequest{
		{Algorithm: "pagerank", Params: map[string]any{"e": 1e-4, "d": 0.85, "max_iter": 5}},
		{Algorithm: "avgteen", Params: map[string]any{"K": 40}},
		{Source: algorithms.DegreeStats},
		{Algorithm: "pagerank", Params: map[string]any{"e": 1e-4, "d": 0.85, "max_iter": 3}, NoCache: true},
	}
	for _, q := range queries[:3] { // warm every cacheable query once
		q.Tenant, q.Graph, q.Wait = "alpha", "ring", true
		if code, _, payload := postJSON(t, hs.URL+"/jobs", q); code != http.StatusOK {
			t.Fatalf("warm-up: HTTP %d: %s", code, payload)
		}
	}
	// "limited" fills its one slot with a long PageRank (e=0 on the
	// twitter graph; Close cancels it), so its uncached storm requests
	// are rejected.
	pin := JobRequest{Tenant: "limited", Graph: "bench", Algorithm: "pagerank",
		Params: map[string]any{"e": 0.0, "d": 0.85, "max_iter": 1 << 20}, NoCache: true}
	if code, _, payload := postJSON(t, hs.URL+"/jobs", pin); code != http.StatusAccepted {
		t.Fatalf("pinning job: want 202, got %d: %s", code, payload)
	}

	var (
		mu    sync.Mutex
		codes = map[int]int{}
		hits  int
		wg    sync.WaitGroup
	)
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := queries[i%len(queries)]
			req.Tenant, req.Graph, req.Wait = [...]string{"alpha", "beta"}[i%2], "ring", true
			if i%8 == 7 { // always the uncached query
				req.Tenant = "limited"
			}
			code, hdr, _ := postJSON(t, hs.URL+"/jobs", req)
			mu.Lock()
			defer mu.Unlock()
			codes[code]++
			if hdr.Get("X-Cache") == "hit" {
				hits++
			}
		}(i)
	}
	wg.Wait()

	t.Logf("storm: HTTP status counts %v, %d cache hits", codes, hits)
	for code, n := range codes {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Errorf("%d storm requests answered HTTP %d", n, code)
		}
	}
	if hits == 0 {
		t.Error("warm cache observed no hits during the storm")
	}
	if codes[http.StatusTooManyRequests] == 0 {
		t.Error("saturated tenant was never rejected with 429")
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`serve_admission_total{decision="admit",tenant="alpha"}`,
		`serve_admission_total{decision="admit",tenant="beta"}`,
		`serve_admission_total{decision="reject",tenant="limited"}`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestAsyncPolling covers the 202 + poll lifecycle.
func TestAsyncPolling(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	req := JobRequest{Tenant: "poller", Graph: "bench", Algorithm: "avgteen",
		Params: map[string]any{"K": 40}, NoCache: true}
	code, _, payload := postJSON(t, hs.URL+"/jobs", req)
	if code != http.StatusAccepted {
		t.Fatalf("want 202, got %d: %s", code, payload)
	}
	var st JobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("no job id in %s", payload)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur JobStatus
		if code := getJSON(t, fmt.Sprintf("%s/jobs/%s", hs.URL, st.ID), &cur); code != http.StatusOK {
			t.Fatalf("poll: HTTP %d", code)
		}
		if cur.State == "done" {
			if cur.Result == nil || cur.Result.Ret == nil {
				t.Fatalf("done without result: %+v", cur)
			}
			break
		}
		if cur.State == "failed" {
			t.Fatalf("job failed: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
