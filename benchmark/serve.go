package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"gmpregel/internal/core"
	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
	"gmpregel/internal/serve"
)

// Request classes of the serve-mix traffic.
const (
	classHit    = "hit"    // cacheable built-in, touched in the warm phase: served from the cache
	classMiss   = "miss"   // nocache built-in: admission, bind, engine run, encode
	classSource = "source" // raw Green-Marl with distinct text and params: compile, miss, cache insert
)

// query is one entry of the traffic mix with its oracle: the Stats a
// direct machine.Run of the same program on the same snapshot gives.
type query struct {
	class     string
	algorithm string
	params    map[string]any
	bindings  func(in *inputs) machine.Bindings
	want      pregel.Stats
}

const serveGraph = "bench"

// sourceE is the convergence threshold of source-class request id. Every
// request gets its own value, so every request has its own cache key;
// all are far below any reachable L1 delta, so the run stops on max_iter
// and its Stats do not depend on the value.
func sourceE(id int) float64 { return 1e-12 * float64(id+1) }

func pageRankBindings(e float64, maxIter int64) func(*inputs) machine.Bindings {
	return func(*inputs) machine.Bindings {
		return machine.Bindings{
			Float: map[string]float64{"e": e, "d": prDamping},
			Int:   map[string]int64{"max_iter": maxIter},
		}
	}
}

func ssspBindings(in *inputs) machine.Bindings { return (&sssp{}).bindings(in) }

// serveQueries is the mix: six cacheable built-ins, two nocache engine
// runs, and the source-class template (last).
func serveQueries() []*query {
	return []*query{
		{class: classHit, algorithm: "pagerank", params: map[string]any{"e": prEps, "d": prDamping, "max_iter": 5},
			bindings: pageRankBindings(prEps, 5)},
		{class: classHit, algorithm: "sssp", params: map[string]any{}, bindings: ssspBindings},
		{class: classHit, algorithm: "avgteen", params: map[string]any{"K": 40},
			bindings: func(in *inputs) machine.Bindings {
				return machine.Bindings{Int: map[string]int64{"K": 40}, NodePropInt: map[string][]int64{"age": in.age}}
			}},
		{class: classHit, algorithm: "conductance", params: map[string]any{"num": 1},
			bindings: func(in *inputs) machine.Bindings {
				return machine.Bindings{Int: map[string]int64{"num": 1}, NodePropInt: map[string][]int64{"member": in.member}}
			}},
		{class: classHit, algorithm: "wcc", params: map[string]any{},
			bindings: func(*inputs) machine.Bindings { return machine.Bindings{} }},
		{class: classHit, algorithm: "degree_stats", params: map[string]any{},
			bindings: func(*inputs) machine.Bindings { return machine.Bindings{} }},
		{class: classMiss, algorithm: "pagerank", params: map[string]any{"e": prEps, "d": prDamping, "max_iter": 3},
			bindings: pageRankBindings(prEps, 3)},
		{class: classMiss, algorithm: "sssp", params: map[string]any{}, bindings: ssspBindings},
		{class: classSource, algorithm: "pagerank", bindings: pageRankBindings(sourceE(0), 1)},
	}
}

// serveReplica rebuilds the graph and input columns the server's
// "twitter" builder makes for a snapshot, from the same generator call.
func serveReplica(scale int, inputsSeed int64) (*graph.Directed, *inputs) {
	g := gen.TwitterLike(5000*scale, 16, 101)
	return g, makeInputs(g, 0, inputsSeed)
}

func serveScale(smoke bool) int {
	if smoke {
		return 1
	}
	return 4
}

// server is one running job server behind an HTTP listener.
type server struct {
	srv  *serve.Server
	http *httptest.Server
	hc   *http.Client
	// nodes and edges are what POST /graphs reported for the snapshot.
	nodes int
	edges int64
}

func (s *server) close() {
	s.http.Close()
	s.srv.Close()
}

func (s *server) post(path string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.hc.Post(s.http.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return resp.StatusCode, payload, err
}

// startServer starts a server and loads the snapshot.
func startServer(c *runCtx) (*server, error) {
	s := &server{srv: serve.New(serve.Options{Workers: 1, Capacity: c.wn, Seed: c.seed})}
	s.http = httptest.NewServer(s.srv.Handler())
	s.hc = s.http.Client()
	code, body, err := s.post("/graphs", serve.GraphSpec{
		Name: serveGraph, Builder: "twitter", Scale: serveScale(c.smoke), InputsSeed: c.seed + 7,
	})
	var loaded struct {
		Nodes int   `json:"nodes"`
		Edges int64 `json:"edges"`
	}
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, body)
	}
	if err == nil {
		err = json.Unmarshal(body, &loaded)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("POST /graphs: %w", err)
	}
	s.nodes, s.edges = loaded.Nodes, loaded.Edges
	return s, nil
}

// sample is one request as its client saw it.
type sample struct {
	class     string
	ms        float64
	elapsedMS float64 // the engine time the server reported, miss class only
}

// do sends one request and checks the response against the oracle: 200,
// state done, the predicted cached flag, and Stats equal to the direct
// run's. The latency is recorded whether or not the check passes.
func (s *server) do(q *query, req serve.JobRequest, wantCached bool) (sample, error) {
	start := time.Now()
	code, body, err := s.post("/jobs", req)
	smp := sample{class: q.class, ms: float64(time.Since(start).Nanoseconds()) / 1e6}
	var st serve.JobStatus
	switch {
	case err != nil:
		return smp, err
	case code != http.StatusOK:
		return smp, fmt.Errorf("status %d: %s", code, body)
	case json.Unmarshal(body, &st) != nil || st.State != "done" || st.Result == nil:
		return smp, fmt.Errorf("not a finished job: %s", body)
	case st.Cached != wantCached:
		return smp, fmt.Errorf("cached=%v, predicted %v", st.Cached, wantCached)
	case !reflect.DeepEqual(st.Result.Stats, q.want):
		return smp, fmt.Errorf("served Stats %+v, direct run %+v", st.Result.Stats, q.want)
	}
	smp.elapsedMS = float64(st.Result.ElapsedNS) / 1e6
	return smp, nil
}

func (q *query) request(tenant string, id int) serve.JobRequest {
	req := serve.JobRequest{Tenant: tenant, Graph: serveGraph, Wait: true, NoCache: q.class == classMiss}
	if q.class == classSource {
		// Distinct text defeats the server's per-source compile memo,
		// distinct params its result cache.
		req.Source = corpusSource(q.algorithm) + fmt.Sprintf("// request %d\n", id)
		req.Params = map[string]any{"e": sourceE(id), "d": prDamping, "max_iter": 1}
	} else {
		req.Algorithm = q.algorithm
		req.Params = q.params
	}
	return req
}

// warm touches every cacheable key once; each is a miss that fills the
// cache, so every later hit-class request is predicted cached.
func (s *server) warm(c *runCtx, queries []*query) {
	for _, q := range queries {
		if q.class != classHit {
			continue
		}
		c.res.attempted++
		if _, err := s.do(q, q.request("warm", 0), false); err != nil {
			c.res.fail("warm %s: %v", q.algorithm, err)
		}
	}
}

// pick draws a query: 60 % hit, 25 % miss, 15 % source.
func pick(queries []*query, rng *rand.Rand) *query {
	class := classSource
	switch r := rng.Intn(100); {
	case r < 60:
		class = classHit
	case r < 85:
		class = classMiss
	}
	var of []*query
	for _, q := range queries {
		if q.class == class {
			of = append(of, q)
		}
	}
	return of[rng.Intn(len(of))]
}

// storm is the closed loop: Wn clients, each sending its next request
// only when the previous one has answered, with no think time, until dur
// has passed (and at least minEach requests per client). Request ids
// start at idBase so two storms on one server never repeat a source-class
// key. It returns every sample and the wall time.
func (s *server) storm(c *runCtx, queries []*query, dur time.Duration, minEach, idBase int, rec *recorder) ([]sample, time.Duration) {
	perClient := make([][]sample, c.wn)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards c.res
	begin := time.Now()
	for cl := 0; cl < c.wn; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(c.seed*1000 + int64(cl)))
			tenant := fmt.Sprintf("client%d", cl)
			for i := 0; i < minEach || time.Since(begin) < dur; i++ {
				q := pick(queries, rng)
				id := idBase + cl*1_000_000 + i
				req := q.request(tenant, id)
				sp := rec.begin(fmt.Sprintf("%s/%d", tenant, id), nil, "serve", q.class)
				smp, err := s.do(q, req, q.class == classHit)
				sp.end(nil)
				perClient[cl] = append(perClient[cl], smp)
				mu.Lock()
				c.res.attempted++
				if err != nil {
					c.res.fail("%s request %d (%s %s): %v", tenant, i, q.class, q.algorithm, err)
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(begin)
	var all []sample
	for _, ss := range perClient {
		all = append(all, ss...)
	}
	return all, wall
}

// scrape reads the server's /metrics page into "name{labels}" -> value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.hc.Get(s.http.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func pinServeMix(smoke bool) pin {
	return pinGraph(serveReplica(serveScale(smoke), defaultSeed+7))
}

// stormStats are the client-side numbers of one storm.
type stormStats struct {
	n              int
	rps            float64
	p50, p99       float64
	byClass        map[string][]float64
	missOverheadMS []float64
}

func summarize(samples []sample, wall time.Duration, failed int) stormStats {
	st := stormStats{n: len(samples), byClass: map[string][]float64{}}
	var all []float64
	for _, smp := range samples {
		all = append(all, smp.ms)
		st.byClass[smp.class] = append(st.byClass[smp.class], smp.ms)
		if smp.class == classMiss && smp.elapsedMS > 0 {
			st.missOverheadMS = append(st.missOverheadMS, smp.ms-smp.elapsedMS)
		}
	}
	st.rps = float64(len(samples)-failed) / wall.Seconds()
	st.p50, st.p99 = median(all), percentile(all, 99)
	return st
}

func runServeMix(c *runCtx) error {
	// The oracle first, untimed: every query run directly on a replica of
	// the snapshot the server will build.
	queries := serveQueries()
	g, in := serveReplica(serveScale(c.smoke), c.seed+7)
	for _, q := range queries {
		compiled, err := core.Compile(corpusSource(q.algorithm), core.Options{})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q.algorithm, err)
		}
		res, err := machine.Run(compiled.Program, g, q.bindings(in), pregel.Config{NumWorkers: 1, Seed: c.seed})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q.algorithm, err)
		}
		q.want = res.Stats
	}

	// Set-up: server start, graph load, warm phase.
	setups := setupRuns
	if c.traced || c.smoke {
		setups = 1
	}
	var s *server
	var setupS []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		sp := c.rec.begin("setup", nil, "serve", "setup")
		var err error
		if s, err = startServer(c); err != nil {
			return err
		}
		s.warm(c, queries)
		sp.end(nil)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()
	c.res.set("setup_s", median(setupS), len(setupS))
	if s.nodes != g.NumNodes() || s.edges != g.NumEdges() {
		return fmt.Errorf("served snapshot has %d nodes / %d edges, the replica %d / %d: the serve builder changed",
			s.nodes, s.edges, g.NumNodes(), g.NumEdges())
	}
	if err := checkPin("serve-mix", c.smoke, c.seed, pinGraph(g, in)); err != nil {
		return err
	}

	dur, minEach := time.Duration(c.seconds*float64(time.Second)), 0
	if c.traced {
		dur /= 2
	}
	if c.smoke {
		minEach = 40
	}
	failedBefore := c.res.failed
	samples, wall := s.storm(c, queries, dur, minEach, 0, nil)
	st := summarize(samples, wall, c.res.failed-failedBefore)
	// The operation is a hit-class request: the median over all classes
	// sits in the tail of the hit distribution, and where exactly depends
	// on the seeded hit share.
	c.res.set("op_ms", median(st.byClass[classHit]), len(st.byClass[classHit]))
	c.res.set("rate_per_s", st.rps, st.n)
	c.res.set("serve_rps", st.rps, st.n)
	c.res.set("serve_p50_ms", st.p50, st.n)
	c.res.set("serve_p99_ms", st.p99, st.n)
	c.res.set("serve.hit_p50_ms", median(st.byClass[classHit]), len(st.byClass[classHit]))
	c.res.set("serve.miss_p50_ms", median(st.byClass[classMiss]), len(st.byClass[classMiss]))
	c.res.set("serve.source_p50_ms", median(st.byClass[classSource]), len(st.byClass[classSource]))
	c.res.set("serve.overhead_ms", median(st.missOverheadMS), len(st.missOverheadMS))
	if !c.traced {
		return nil
	}

	// Traced storm: the same loop with one span per request.
	failedBefore = c.res.failed
	samples, wall = s.storm(c, queries, dur, minEach, 500_000, c.rec)
	traced := summarize(samples, wall, c.res.failed-failedBefore)
	c.res.set("obs.trace_overhead", st.rps/traced.rps, traced.n)
	m, err := s.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	hits, misses := m["serve_cache_hits_total"], m["serve_cache_misses_total"]
	c.res.set("serve.cache_hits", hits, 1)
	c.res.set("serve.cache_misses", misses, 1)
	c.res.set("serve.cache_evictions", m["serve_cache_evictions_total"], 1)
	c.res.set("serve.cache_hit_share", hits/(hits+misses), int(hits+misses))
	var rejects float64
	for series, v := range m {
		if strings.HasPrefix(series, "serve_admission_total{") && strings.Contains(series, `decision="reject"`) {
			rejects += v
		}
	}
	c.res.set("serve.rejects", rejects, 1)
	return nil
}
