package obs

import "sync"

// RunSnapshot is the live view of a run in flight, maintained by a Live
// observer and served by the HTTP endpoint's /run route.
type RunSnapshot struct {
	Superstep   int    `json:"superstep"`
	Phase       string `json:"phase"`
	State       string `json:"state,omitempty"`
	Messages    int64  `json:"messages"`
	Bytes       int64  `json:"bytes"`
	VertexCalls int64  `json:"vertex_calls"`
	Recoveries  int64  `json:"recoveries"`
	Checkpoints int64  `json:"checkpoints"`
	ElapsedNS   int64  `json:"elapsed_ns"`
	Done        bool   `json:"done"`
	Spans       int64  `json:"spans"`
}

// Live maintains a RunSnapshot from the span stream, for cheap
// introspection of a run in progress.
type Live struct {
	mu   sync.Mutex
	snap RunSnapshot
}

// NewLive creates a Live observer.
func NewLive() *Live { return &Live{} }

// ObserveSpan folds s into the snapshot.
func (l *Live) ObserveSpan(s Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sn := &l.snap
	sn.Spans++
	sn.Superstep = s.Superstep
	sn.Phase = s.Phase.String()
	if s.State != "" {
		sn.State = s.State
	}
	if end := s.StartNS + s.DurNS; end > sn.ElapsedNS {
		sn.ElapsedNS = end
	}
	switch s.Phase {
	case PhaseVertexCompute:
		sn.Messages += s.Messages
		sn.Bytes += s.Bytes
		sn.VertexCalls += s.VertexCalls
	case PhaseRecovery:
		sn.Recoveries++
	case PhaseCheckpoint:
		sn.Checkpoints++
	case PhaseRun:
		// The run span carries authoritative totals (recovery rewinds
		// the engine's counters but not the incremental sums above).
		sn.Messages, sn.Bytes, sn.VertexCalls = s.Messages, s.Bytes, s.VertexCalls
		sn.Done = true
	}
}

// Snapshot returns a copy of the current view.
func (l *Live) Snapshot() RunSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snap
}

// MetricsObserver converts spans into registry metrics:
//
//	pregel_phase_seconds{phase=...}   histogram of phase wall time
//	pregel_supersteps_total           completed supersteps (barrier spans)
//	pregel_messages_total             messages sent
//	pregel_network_bytes_total        network bytes sent
//	pregel_vertex_calls_total         vertex.compute invocations
//	pregel_checkpoints_total          checkpoints taken
//	pregel_checkpoint_bytes_total     serialized checkpoint bytes
//	pregel_recoveries_total           rollback-and-replay recoveries
//	pregel_spills_total               governor inbox spills
//	pregel_spill_bytes_total          bytes written to the spill store
//	pregel_watchdog_trips_total       superstep watchdog trips
//	pregel_runs_total                 completed runs
type MetricsObserver struct {
	phase       [PhaseRun + 1]*Histogram
	supersteps  *Counter
	messages    *Counter
	netBytes    *Counter
	vertexCalls *Counter
	checkpoints *Counter
	ckptBytes   *Counter
	recoveries  *Counter
	spills      *Counter
	spillBytes  *Counter
	wdTrips     *Counter
	runs        *Counter
}

// NewMetricsObserver registers the engine metric families on reg and
// returns an observer feeding them. Multiple observers may share one
// registry; the instruments are the same series.
func NewMetricsObserver(reg *Registry) *MetricsObserver {
	m := &MetricsObserver{
		supersteps:  reg.Counter("pregel_supersteps_total", "completed supersteps"),
		messages:    reg.Counter("pregel_messages_total", "messages sent"),
		netBytes:    reg.Counter("pregel_network_bytes_total", "serialized bytes of cross-worker messages"),
		vertexCalls: reg.Counter("pregel_vertex_calls_total", "vertex.compute invocations"),
		checkpoints: reg.Counter("pregel_checkpoints_total", "recovery checkpoints taken"),
		ckptBytes:   reg.Counter("pregel_checkpoint_bytes_total", "serialized checkpoint bytes"),
		recoveries:  reg.Counter("pregel_recoveries_total", "rollback-and-replay recoveries"),
		spills:      reg.Counter("pregel_spills_total", "governor inbox spills to the segment store"),
		spillBytes:  reg.Counter("pregel_spill_bytes_total", "bytes written to the governor spill store"),
		wdTrips:     reg.Counter("pregel_watchdog_trips_total", "superstep watchdog trips"),
		runs:        reg.Counter("pregel_runs_total", "completed engine runs"),
	}
	for p := PhaseMaster; p <= PhaseRun; p++ {
		m.phase[p] = reg.Histogram("pregel_phase_seconds", "engine phase wall time",
			DurationBuckets(), L("phase", p.String()))
	}
	return m
}

// ObserveSpan records s into the registry.
func (m *MetricsObserver) ObserveSpan(s Span) {
	if int(s.Phase) < len(m.phase) && m.phase[s.Phase] != nil {
		m.phase[s.Phase].Observe(float64(s.DurNS) / 1e9)
	}
	switch s.Phase {
	case PhaseVertexCompute:
		m.messages.Add(s.Messages)
		m.netBytes.Add(s.Bytes)
		m.vertexCalls.Add(s.VertexCalls)
	case PhaseBarrier:
		m.supersteps.Inc()
	case PhaseCheckpoint:
		m.checkpoints.Inc()
		m.ckptBytes.Add(s.Bytes)
	case PhaseRecovery:
		m.recoveries.Inc()
	case PhaseSpill:
		m.spills.Inc()
		m.spillBytes.Add(s.Bytes)
	case PhaseWatchdog:
		m.wdTrips.Inc()
	case PhaseRun:
		m.runs.Inc()
	}
}
