package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"gmpregel/internal/graph"
	"gmpregel/internal/ir"
	"gmpregel/internal/machine"
	"gmpregel/internal/obs"
	"gmpregel/internal/pregel"
)

// JobRequest is the `POST /jobs` body. Exactly one of Algorithm (a
// built-in name: the paper's six plus the extension set) or Source
// (Green-Marl text, compiled per submission) selects the program.
type JobRequest struct {
	Tenant    string         `json:"tenant"`
	Graph     string         `json:"graph"`
	Algorithm string         `json:"algorithm,omitempty"`
	Source    string         `json:"source,omitempty"`
	Params    map[string]any `json:"params,omitempty"`
	// TimeoutMS tightens (never loosens) the tenant's deadline quota.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache entirely: no lookup, no store.
	NoCache bool `json:"nocache,omitempty"`
	// Wait makes the submission synchronous: the response is the final
	// job status instead of 202 + a job id to poll.
	Wait bool `json:"wait,omitempty"`
}

// RetValue is a program's return value in JSON form.
type RetValue struct {
	Kind  string  `json:"kind"` // "int" or "float"
	Int   int64   `json:"int,omitempty"`
	Float float64 `json:"float,omitempty"`
}

// JobResult is the completed-run payload; it is also exactly what the
// result cache stores, so a hit replays the original run's Stats (and
// its ElapsedNS — the price the engine paid, not the lookup).
type JobResult struct {
	Graph       string       `json:"graph"` // snapshot id, name@vN
	ProgramHash string       `json:"program_hash"`
	Stats       pregel.Stats `json:"stats"`
	Ret         *RetValue    `json:"ret,omitempty"`
	ElapsedNS   int64        `json:"elapsed_ns"`
}

// JobStatus is the `GET /jobs/{id}` (and synchronous `POST /jobs`)
// response body.
type JobStatus struct {
	ID        string     `json:"id"`
	Tenant    string     `json:"tenant"`
	Graph     string     `json:"graph"`
	Algorithm string     `json:"algorithm,omitempty"`
	State     string     `json:"state"` // queued | running | done | failed
	Cached    bool       `json:"cached,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	Error     string     `json:"error,omitempty"`
}

// job is one admitted (or queued) unit of work. The snapshot pin is
// taken at submission — before queueing — so hot-swaps never pull a
// graph out from under a waiting job.
type job struct {
	id          string
	tenant      string
	algorithm   string
	snap        *Snapshot
	prog        *machine.Program
	programHash string
	bindings    machine.Bindings
	cacheKey    string // "" when the request opted out
	cfg         pregel.Config
	deadline    time.Duration // wall budget from the start of the run; 0 means none
	live        *obs.Live

	mu     sync.Mutex
	state  string
	result *JobResult
	errMsg string
	done   chan struct{}
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Tenant: j.tenant, Graph: j.snap.ID(), Algorithm: j.algorithm,
		State: j.state, Result: j.result, Error: j.errMsg,
	}
}

// buildBindings maps a program's declared parameters onto the request
// params and the snapshot's deterministic input columns, mirroring
// algorithms.Bindings (age/member/is_boy/len columns, root node) so a
// served run is bit-identical to the CLI run.
func buildBindings(p *machine.Program, snap *Snapshot, params map[string]any) (machine.Bindings, error) {
	b := machine.Bindings{}
	declared := map[string]bool{}
	for _, sc := range p.Scalars {
		if !sc.IsParam {
			continue
		}
		declared[sc.Name] = true
		v, ok := params[sc.Name]
		if !ok {
			if sc.Kind == ir.KNode && sc.Name == "root" {
				if b.Node == nil {
					b.Node = map[string]graph.NodeID{}
				}
				b.Node[sc.Name] = snap.Inputs.Root
				continue
			}
			return b, fmt.Errorf("missing scalar param %q (%v)", sc.Name, sc.Kind)
		}
		switch sc.Kind {
		case ir.KInt:
			n, err := asInt(sc.Name, v)
			if err != nil {
				return b, err
			}
			if b.Int == nil {
				b.Int = map[string]int64{}
			}
			b.Int[sc.Name] = n
		case ir.KFloat:
			f, ok := v.(float64)
			if !ok {
				return b, fmt.Errorf("param %q: want number, got %T", sc.Name, v)
			}
			if b.Float == nil {
				b.Float = map[string]float64{}
			}
			b.Float[sc.Name] = f
		case ir.KBool:
			bv, ok := v.(bool)
			if !ok {
				return b, fmt.Errorf("param %q: want bool, got %T", sc.Name, v)
			}
			if b.Bool == nil {
				b.Bool = map[string]bool{}
			}
			b.Bool[sc.Name] = bv
		case ir.KNode:
			n, err := asInt(sc.Name, v)
			if err != nil {
				return b, err
			}
			if n < 0 || n >= int64(snap.Graph.NumNodes()) {
				return b, fmt.Errorf("param %q: node %d out of range [0,%d)", sc.Name, n, snap.Graph.NumNodes())
			}
			if b.Node == nil {
				b.Node = map[string]graph.NodeID{}
			}
			b.Node[sc.Name] = graph.NodeID(n)
		default:
			return b, fmt.Errorf("param %q: unsupported kind %v", sc.Name, sc.Kind)
		}
	}
	for name := range params {
		if !declared[name] {
			return b, fmt.Errorf("unknown param %q (program %s declares no such parameter)", name, p.Name)
		}
	}
	// Input property columns bind by their conventional names; a
	// property parameter outside the convention starts zero-filled
	// (the machine's default), which is the documented semantics for
	// output-only parameters.
	in := snap.Inputs
	for _, pd := range p.Props {
		if !pd.IsParam {
			continue
		}
		switch {
		case pd.Name == "age" && !pd.IsEdge:
			if b.NodePropInt == nil {
				b.NodePropInt = map[string][]int64{}
			}
			b.NodePropInt["age"] = in.Age
		case pd.Name == "member" && !pd.IsEdge:
			if b.NodePropInt == nil {
				b.NodePropInt = map[string][]int64{}
			}
			b.NodePropInt["member"] = in.Member
		case pd.Name == "is_boy" && !pd.IsEdge:
			b.NodePropBool = map[string][]bool{"is_boy": in.IsBoy}
		case pd.Name == "len" && pd.IsEdge:
			b.EdgePropInt = map[string][]int64{"len": in.EdgeLen}
		}
	}
	return b, nil
}

func asInt(name string, v any) (int64, error) {
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("param %q: want integer, got %T", name, v)
	}
	if f != math.Trunc(f) {
		return 0, fmt.Errorf("param %q: want integer, got %v", name, f)
	}
	// JSON numbers decode as float64, exact only up to 2^53; beyond that
	// the int64 conversion is implementation-defined (1e300 becomes
	// math.MinInt64 on amd64).
	if math.Abs(f) > 1<<53 {
		return 0, fmt.Errorf("param %q: integer out of range (|n| <= 2^53), got %v", name, f)
	}
	return int64(f), nil
}

// runJob executes an admitted job on the engine, publishes its result
// (to the job record, any waiters, the cache, and the metrics
// registry), releases the snapshot pin, and hands the freed slot to
// the admission controller's dispatcher.
func (s *Server) runJob(j *job) {
	j.setState("running")
	s.jobsRunning.Add(1)
	start := time.Now()
	// The budget starts here, not at submission: queue wait is not run time.
	ctx, cancel := s.ctx, context.CancelFunc(func() {})
	if j.deadline > 0 {
		ctx, cancel = context.WithTimeout(s.ctx, j.deadline)
	}
	res, err := machine.RunContext(ctx, j.prog, j.snap.Graph, j.bindings, j.cfg)
	cancel()
	elapsed := time.Since(start)

	j.mu.Lock()
	if err != nil {
		j.state = "failed"
		j.errMsg = err.Error()
		if res != nil {
			// Partial stats stay readable alongside the abort error
			// (deadline, budget, cancellation).
			j.result = &JobResult{
				Graph: j.snap.ID(), ProgramHash: j.programHash,
				Stats: res.Stats, ElapsedNS: elapsed.Nanoseconds(),
			}
		}
	} else {
		jr := &JobResult{
			Graph: j.snap.ID(), ProgramHash: j.programHash,
			Stats: res.Stats, ElapsedNS: elapsed.Nanoseconds(),
		}
		if res.Stats.ReturnedIsSet {
			if res.Stats.ReturnedIsInt {
				jr.Ret = &RetValue{Kind: "int", Int: res.Stats.ReturnedInt}
			} else {
				jr.Ret = &RetValue{Kind: "float", Float: res.Stats.ReturnedFloat}
			}
		}
		j.state = "done"
		j.result = jr
	}
	state, result := j.state, j.result
	j.mu.Unlock()

	if state == "done" && j.cacheKey != "" {
		if payload, err := encodeResult(result); err == nil {
			s.cacheEvicts.Add(s.cache.put(j.cacheKey, payload))
			s.cacheBytes.Set(float64(s.cache.info().UsedBytes))
		}
	}
	s.jobsRunning.Add(-1)
	s.jobSeconds(j.tenant).Observe(elapsed.Seconds())
	s.jobsDone(j.tenant, state).Inc()
	j.snap.release()
	close(j.done)
	for _, next := range s.adm.release(j) {
		s.queueDepth.Add(-1)
		go s.runJob(next)
	}
}
