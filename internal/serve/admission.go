package serve

import (
	"sort"
	"sync"
	"time"
)

// Quota is one tenant's admission envelope. The zero value of any
// field inherits the server default, so `POST /tenants` bodies can be
// sparse.
type Quota struct {
	// MaxConcurrent bounds the tenant's simultaneously running jobs.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxQueued bounds the tenant's waiting jobs; a submission past it
	// is rejected with 429 + Retry-After instead of degrading every
	// other tenant. Use -1 for "no queue at all".
	MaxQueued int `json:"max_queued,omitempty"`
	// MemoryBytes is the per-job engine MemoryBudget (the PR 7
	// governor); 0 leaves the governor off.
	MemoryBytes int64 `json:"memory_bytes,omitempty"`
	// DeadlineMS is the per-job wall-clock budget, counted from the
	// start of the run and checked at every superstep barrier; 0
	// inherits the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Weight is the tenant's weighted-fair share of dequeue bandwidth
	// (default 1): a weight-4 tenant drains its backlog 4× as fast as a
	// weight-1 tenant when both are saturated.
	Weight float64 `json:"weight,omitempty"`
}

func (q Quota) withDefaults(d Quota) Quota {
	if q.MaxConcurrent == 0 {
		q.MaxConcurrent = d.MaxConcurrent
	}
	if q.MaxQueued == 0 {
		q.MaxQueued = d.MaxQueued
	}
	if q.MaxQueued < 0 {
		q.MaxQueued = 0
	}
	if q.Weight == 0 {
		q.Weight = d.Weight
	}
	if q.DeadlineMS == 0 {
		q.DeadlineMS = d.DeadlineMS
	}
	return q
}

// decision is the admission verdict for one submission.
type decision int

const (
	decideRun decision = iota
	decideQueue
	decideReject
)

func (d decision) String() string {
	switch d {
	case decideRun:
		return "admit"
	case decideQueue:
		return "queue"
	default:
		return "reject"
	}
}

// tenantState is one tenant's live admission ledger.
type tenantState struct {
	name    string
	quota   Quota
	running int
	queue   []*job
	// vtime is the tenant's weighted-fair virtual time: work
	// dispatched divided by weight. The dispatcher always serves the
	// backlogged tenant with the smallest vtime, which is classic WFQ —
	// bandwidth converges to the weight ratio under saturation.
	vtime float64
}

// admission is the server's weighted-fair admission controller. One
// mutex guards the whole ledger; every operation is O(tenants + moved
// jobs), and decisions are deterministic given the arrival order.
type admission struct {
	mu           sync.Mutex
	capacity     int // global concurrent-jobs bound
	running      int
	tenants      map[string]*tenantState
	defaultQuota Quota
}

func newAdmission(capacity int, defaultQuota Quota) *admission {
	if capacity <= 0 {
		capacity = 8
	}
	return &admission{
		capacity:     capacity,
		tenants:      map[string]*tenantState{},
		defaultQuota: defaultQuota,
	}
}

// setQuota installs (or replaces) a tenant's quota.
func (a *admission) setQuota(tenant string, q Quota) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenant(tenant)
	ts.quota = q.withDefaults(a.defaultQuota)
}

// tenant returns the tenant's state, creating it at the default quota.
// New tenants start at the minimum live vtime so they compete fairly
// without starving incumbents. Callers hold a.mu.
func (a *admission) tenant(name string) *tenantState {
	ts, ok := a.tenants[name]
	if !ok {
		min := 0.0
		first := true
		for _, t := range a.tenants {
			if t.running > 0 || len(t.queue) > 0 {
				if first || t.vtime < min {
					min, first = t.vtime, false
				}
			}
		}
		ts = &tenantState{name: name, quota: a.defaultQuota, vtime: min}
		a.tenants[name] = ts
	}
	return ts
}

// submit decides a job's fate at arrival: run now, wait in the
// tenant's queue, or reject with a Retry-After hint.
func (a *admission) submit(j *job) (decision, time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenant(j.tenant)
	if a.running < a.capacity && ts.running < ts.quota.MaxConcurrent {
		a.dispatch(ts)
		return decideRun, 0
	}
	if len(ts.queue) < ts.quota.MaxQueued {
		ts.queue = append(ts.queue, j)
		return decideQueue, 0
	}
	// Saturated: the hint scales with the tenant's own backlog so
	// well-behaved clients back off proportionally.
	wait := time.Second * time.Duration(1+len(ts.queue)+ts.running)
	return decideReject, wait
}

// dispatch charges one job start to ts. Callers hold a.mu.
func (a *admission) dispatch(ts *tenantState) {
	ts.running++
	a.running++
	ts.vtime += 1 / ts.quota.Weight
}

// release returns a finished job's slot and drains the queues: while
// global capacity remains, the backlogged, under-quota tenant with the
// smallest virtual time runs next (ties break by name, so the schedule
// is deterministic for a fixed arrival order). Returns the jobs to
// start; the caller spawns them outside the lock.
func (a *admission) release(j *job) []*job {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenant(j.tenant)
	ts.running--
	a.running--
	var started []*job
	for a.running < a.capacity {
		next := a.pickNext()
		if next == nil {
			break
		}
		nj := next.queue[0]
		copy(next.queue, next.queue[1:])
		next.queue = next.queue[:len(next.queue)-1]
		a.dispatch(next)
		started = append(started, nj)
	}
	return started
}

// pickNext selects the WFQ winner among eligible tenants. Callers hold
// a.mu.
func (a *admission) pickNext() *tenantState {
	names := make([]string, 0, len(a.tenants))
	for name := range a.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	var best *tenantState
	for _, name := range names {
		ts := a.tenants[name]
		if len(ts.queue) == 0 || ts.running >= ts.quota.MaxConcurrent {
			continue
		}
		if best == nil || ts.vtime < best.vtime {
			best = ts
		}
	}
	return best
}

// TenantInfo is the introspection view of one tenant's ledger.
type TenantInfo struct {
	Name    string  `json:"name"`
	Quota   Quota   `json:"quota"`
	Running int     `json:"running"`
	Queued  int     `json:"queued"`
	VTime   float64 `json:"vtime"`
}

// snapshot reports every tenant's state, sorted by name.
func (a *admission) snapshot() (infos []TenantInfo, running, capacity int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ts := range a.tenants {
		infos = append(infos, TenantInfo{
			Name: ts.name, Quota: ts.quota, Running: ts.running,
			Queued: len(ts.queue), VTime: ts.vtime,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, a.running, a.capacity
}
