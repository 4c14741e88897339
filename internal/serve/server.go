package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/core"
	"gmpregel/internal/gm/analysis"
	"gmpregel/internal/machine"
	"gmpregel/internal/obs"
	"gmpregel/internal/pregel"
)

// Options configures a Server.
type Options struct {
	// Workers is the engine worker count for every served run (0 = 4).
	// Fixed per server — with Seed, it makes served Stats bit-identical
	// to a gmbench run at the same -workers/-seed.
	Workers int
	// Seed seeds every engine run. Serving the same query twice must
	// produce the same result (that is what makes the cache sound), so
	// the seed is server-wide, not per-request.
	Seed int64
	// Capacity bounds globally concurrent engine runs (0 = 8).
	Capacity int
	// CacheBytes is the result-cache byte budget (0 = 64 MiB).
	CacheBytes int64
	// DefaultDeadline is the per-job wall budget when neither the
	// tenant quota nor the request tightens it (0 = 30s).
	DefaultDeadline time.Duration
	// Registry receives every server decision as metrics (nil = a new
	// registry, exposed on /metrics).
	Registry *obs.Registry
}

// Server is the long-lived multi-tenant job server. Create with New,
// mount Handler on an http.Server, Close on shutdown.
type Server struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	reg    *obs.Registry
	snaps  *snapshotRegistry
	adm    *admission
	cache  *resultCache

	jobsMu   sync.Mutex
	jobs     map[string]*job
	jobOrder []string // submission order, for bounded history
	nextID   int64

	compileMu sync.Mutex
	compiled  map[string]*compiledProgram // builtins by name + sources by text

	// Decision metrics (ISSUE: admit/queue/reject/hit/miss/evict all
	// observable on the existing obs handler).
	jobsRunning *obs.Gauge
	queueDepth  *obs.Gauge
	cacheBytes  *obs.Gauge
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	cacheEvicts *obs.Counter
	graphLoads  *obs.Counter
	graphSwaps  *obs.Counter
	graphFreed  *obs.Counter
}

type compiledProgram struct {
	prog *machine.Program
	hash string
}

const maxJobHistory = 4096

// New builds a Server. It serves nothing until a graph is loaded via
// `POST /graphs` (or LoadGraph).
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 8
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 64 << 20
	}
	if opts.DefaultDeadline <= 0 {
		opts.DefaultDeadline = 30 * time.Second
	}
	// Tenants that never posted a quota get 2 concurrent, 64 queued,
	// weight 1, DefaultDeadline and the governor off.
	dq := Quota{
		MaxConcurrent: 2, MaxQueued: 64, Weight: 1,
		DeadlineMS: opts.DefaultDeadline.Milliseconds(),
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		reg:      reg,
		adm:      newAdmission(opts.Capacity, dq),
		cache:    newResultCache(opts.CacheBytes),
		jobs:     map[string]*job{},
		compiled: map[string]*compiledProgram{},
	}
	s.snaps = newSnapshotRegistry(func(*Snapshot) { s.graphFreed.Inc() })
	s.jobsRunning = reg.Gauge("serve_jobs_running", "engine runs in flight")
	s.queueDepth = reg.Gauge("serve_queue_depth", "jobs waiting in tenant queues")
	s.cacheBytes = reg.Gauge("serve_cache_bytes", "result-cache bytes in use")
	s.cacheHits = reg.Counter("serve_cache_hits_total", "result-cache hits")
	s.cacheMisses = reg.Counter("serve_cache_misses_total", "result-cache misses")
	s.cacheEvicts = reg.Counter("serve_cache_evictions_total", "result-cache evictions")
	s.graphLoads = reg.Counter("serve_graph_loads_total", "graph snapshots loaded")
	s.graphSwaps = reg.Counter("serve_graph_swaps_total", "graph versions hot-swapped")
	s.graphFreed = reg.Counter("serve_graphs_freed_total", "retired snapshots drained and freed")
	return s
}

// Close cancels every in-flight run (at its next superstep barrier)
// and stops accepting work meaningfully; intended for tests and
// process shutdown.
func (s *Server) Close() { s.cancel() }

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// LoadGraph loads or hot-swaps a snapshot programmatically (the
// `POST /graphs` handler calls this too).
func (s *Server) LoadGraph(spec GraphSpec) (*Snapshot, *Snapshot, error) {
	if spec.Name == "" {
		return nil, nil, fmt.Errorf("serve: graph name required")
	}
	fresh, old, err := s.snaps.Load(spec)
	if err != nil {
		return nil, nil, err
	}
	s.graphLoads.Inc()
	if old != nil {
		s.graphSwaps.Inc()
	}
	return fresh, old, nil
}

// SetQuota installs a tenant quota programmatically.
func (s *Server) SetQuota(tenant string, q Quota) {
	s.adm.setQuota(tenant, q)
}

func (s *Server) admitCounter(tenant string, d decision) *obs.Counter {
	return s.reg.Counter("serve_admission_total", "admission decisions",
		obs.L("tenant", tenant), obs.L("decision", d.String()))
}

func (s *Server) jobsDone(tenant, state string) *obs.Counter {
	return s.reg.Counter("serve_jobs_completed_total", "finished jobs",
		obs.L("tenant", tenant), obs.L("state", state))
}

func (s *Server) jobSeconds(tenant string) *obs.Histogram {
	return s.reg.Histogram("serve_job_seconds", "job wall time", obs.DurationBuckets(),
		obs.L("tenant", tenant))
}

// resolveProgram turns a request into an executable program + content
// hash: built-ins compile once and are memoized; ad-hoc sources are
// memoized by source text (the program hash is what the cache keys on,
// so formatting-only variants still share result-cache entries).
func (s *Server) resolveProgram(req *JobRequest) (*compiledProgram, *apiError) {
	name := req.Algorithm
	src := ""
	switch {
	case name != "" && req.Source != "":
		return nil, badRequest("specify algorithm or source, not both")
	case name != "":
		var ok bool
		src, ok = algorithms.ByName[name]
		if !ok {
			src, ok = algorithms.ExtraByName[name]
		}
		if !ok {
			return nil, badRequest(fmt.Sprintf("unknown algorithm %q", name))
		}
	case req.Source != "":
		src = req.Source
	default:
		return nil, badRequest("specify an algorithm name or Green-Marl source")
	}

	memoKey := "algo:" + name
	if name == "" {
		memoKey = "src:" + src
	}
	s.compileMu.Lock()
	cp, ok := s.compiled[memoKey]
	if ok {
		s.compileMu.Unlock()
		return cp, nil
	}
	if len(s.compiled) > 256 {
		// Bound the memo table; recompiles are correct, just slower.
		s.compiled = map[string]*compiledProgram{}
	}
	s.compileMu.Unlock()

	c, err := core.Compile(src, core.Options{})
	if err != nil {
		return nil, compileError(err)
	}
	h, err := core.ProgramHash(c.Program)
	if err != nil {
		return nil, &apiError{status: http.StatusInternalServerError, body: map[string]any{"error": err.Error()}}
	}
	cp = &compiledProgram{prog: c.Program, hash: h}
	s.compileMu.Lock()
	s.compiled[memoKey] = cp
	s.compileMu.Unlock()
	return cp, nil
}

// apiError is a structured HTTP error payload.
type apiError struct {
	status int
	body   map[string]any
	header map[string]string
}

func badRequest(msg string) *apiError {
	return &apiError{status: http.StatusBadRequest, body: map[string]any{"error": msg}}
}

// compileError shapes every compile failure — parse, sema or the
// compiler's rejection — as one structured diagnostics report: each
// diagnostic carries its code, severity and position, so clients can
// annotate source.
func compileError(err error) *apiError {
	return &apiError{status: http.StatusBadRequest, body: map[string]any{
		"error":       "compile failed",
		"detail":      err.Error(),
		"diagnostics": analysis.FromError(err).Report(),
	}}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (e *apiError) write(w http.ResponseWriter) {
	for k, v := range e.header {
		w.Header().Set(k, v)
	}
	writeJSON(w, e.status, e.body)
}

func encodeResult(r *JobResult) ([]byte, error) { return json.Marshal(r) }

// Handler returns the server's HTTP API. Serve routes take precedence;
// everything else (metrics, healthz, pprof) falls through to the
// standard obs introspection handler on the same registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graphs", s.handleLoadGraph)
	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.snaps.List())
	})
	mux.HandleFunc("POST /jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("POST /tenants", s.handleSetQuota)
	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		infos, running, capacity := s.adm.snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"tenants": infos, "running": running, "capacity": capacity,
		})
	})
	mux.HandleFunc("GET /serverz", func(w http.ResponseWriter, r *http.Request) {
		infos, running, capacity := s.adm.snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"graphs":   s.snaps.List(),
			"tenants":  infos,
			"running":  running,
			"capacity": capacity,
			"cache":    s.cache.info(),
		})
	})
	mux.Handle("/", obs.Handler(s.reg, nil))
	return mux
}

func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	var spec GraphSpec
	if err := decodeBody(r, &spec); err != nil {
		err.write(w)
		return
	}
	fresh, old, err := s.LoadGraph(spec)
	if err != nil {
		badRequest(err.Error()).write(w)
		return
	}
	resp := map[string]any{
		"graph":   fresh.ID(),
		"builder": fresh.Builder,
		"nodes":   fresh.Graph.NumNodes(),
		"edges":   fresh.Graph.NumEdges(),
	}
	if old != nil {
		resp["retired"] = old.ID()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSetQuota(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Name  string `json:"name"`
		Quota Quota  `json:"quota"`
	}
	if err := decodeBody(r, &body); err != nil {
		err.write(w)
		return
	}
	if body.Name == "" {
		badRequest("tenant name required").write(w)
		return
	}
	// A negative bound never lets a job dispatch, and a negative weight
	// moves its tenant ahead of every other on each dispatch.
	if q := body.Quota; q.MaxConcurrent < 0 || q.Weight < 0 || q.MemoryBytes < 0 || q.DeadlineMS < 0 || q.MaxQueued < -1 {
		badRequest("quota fields must not be negative (max_queued may be -1, no queue)").write(w)
		return
	}
	s.SetQuota(body.Name, body.Quota)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func decodeBody(r *http.Request, v any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: " + err.Error())
	}
	return nil
}

// submitRequest runs the whole admission pipeline for one request and returns
// the job (nil on cache hit or rejection). It is the programmatic core
// of `POST /jobs`; the HTTP handler only adds wait/poll plumbing.
func (s *Server) submitRequest(req *JobRequest) (*job, *JobStatus, *apiError) {
	if req.Tenant == "" {
		return nil, nil, badRequest("tenant required")
	}
	if req.Graph == "" {
		return nil, nil, badRequest("graph required")
	}
	cp, aerr := s.resolveProgram(req)
	if aerr != nil {
		return nil, nil, aerr
	}
	snap, err := s.snaps.Acquire(req.Graph)
	if err != nil {
		return nil, nil, &apiError{status: http.StatusNotFound, body: map[string]any{"error": err.Error()}}
	}
	bindings, err := buildBindings(cp.prog, snap, req.Params)
	if err != nil {
		snap.release()
		return nil, nil, badRequest(err.Error())
	}

	key := ""
	if !req.NoCache {
		key = cacheKey(snap.ID(), cp.hash, req.Params)
		if payload, ok := s.cache.get(key); ok {
			s.cacheHits.Inc()
			snap.release()
			var jr JobResult
			if err := json.Unmarshal(payload, &jr); err == nil {
				return nil, &JobStatus{
					Tenant: req.Tenant, Graph: jr.Graph, Algorithm: req.Algorithm,
					State: "done", Cached: true, Result: &jr,
				}, nil
			}
			// Unreadable entry: fall through to a fresh run.
		}
		s.cacheMisses.Inc()
	}

	quota := s.adm.quotaFor(req.Tenant)
	deadline := time.Duration(quota.DeadlineMS) * time.Millisecond
	if req.TimeoutMS > 0 && time.Duration(req.TimeoutMS)*time.Millisecond < deadline {
		deadline = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	j := &job{
		id:          s.newJobID(),
		tenant:      req.Tenant,
		algorithm:   req.Algorithm,
		snap:        snap,
		prog:        cp.prog,
		programHash: cp.hash,
		bindings:    bindings,
		cacheKey:    key,
		live:        obs.NewLive(),
		state:       "queued",
		deadline:    deadline,
		done:        make(chan struct{}),
	}
	j.cfg = pregel.Config{
		NumWorkers:   s.opts.Workers,
		Seed:         s.opts.Seed,
		MemoryBudget: quota.MemoryBytes,
		Observer:     j.live,
	}
	s.registerJob(j)

	d, retry := s.adm.submit(j)
	s.admitCounter(req.Tenant, d).Inc()
	switch d {
	case decideRun:
		go s.runJob(j)
	case decideQueue:
		s.queueDepth.Add(1)
	case decideReject:
		s.dropJob(j)
		snap.release()
		secs := int(retry / time.Second)
		if secs < 1 {
			secs = 1
		}
		return nil, nil, &apiError{
			status: http.StatusTooManyRequests,
			body: map[string]any{
				"error":          "tenant quota exceeded",
				"tenant":         req.Tenant,
				"retry_after_ms": retry.Milliseconds(),
			},
			header: map[string]string{"Retry-After": strconv.Itoa(secs)},
		}
	}
	st := j.status()
	return j, &st, nil
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if aerr := decodeBody(r, &req); aerr != nil {
		aerr.write(w)
		return
	}
	j, st, aerr := s.submitRequest(&req)
	if aerr != nil {
		aerr.write(w)
		return
	}
	if j == nil {
		// Cache hit: O(lookup), no engine, no queue.
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, st)
		return
	}
	w.Header().Set("X-Cache", "miss")
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	select {
	case <-j.done:
		final := j.status()
		code := http.StatusOK
		if final.State == "failed" {
			code = http.StatusInternalServerError
		}
		writeJSON(w, code, final)
	case <-r.Context().Done():
		// Client gave up; the job keeps running (it holds a slot and a
		// snapshot pin) and stays pollable by id.
		cur := j.status()
		writeJSON(w, http.StatusAccepted, cur)
	}
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":    j.id,
		"state": j.status().State,
		"run":   j.live.Snapshot(),
	})
}

func (s *Server) newJobID() string {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.nextID++
	return fmt.Sprintf("j-%06d", s.nextID)
}

func (s *Server) registerJob(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	// Bounded history: drop the oldest finished jobs. Running/queued
	// jobs are never dropped (they are bounded by capacity + queues).
	for len(s.jobOrder) > maxJobHistory {
		oldest := s.jobOrder[0]
		oj := s.jobs[oldest]
		if oj != nil {
			st := oj.status().State
			if st != "done" && st != "failed" {
				break
			}
			delete(s.jobs, oldest)
		}
		s.jobOrder = s.jobOrder[1:]
	}
}

func (s *Server) dropJob(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	delete(s.jobs, j.id)
}

func (s *Server) lookupJob(id string) *job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}

// quotaFor reports the tenant's effective quota.
func (a *admission) quotaFor(tenant string) Quota {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tenant(tenant).quota
}
