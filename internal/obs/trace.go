package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Phase identifies the engine phase a Span covers.
type Phase uint8

// Engine phases. PhaseSpill covers one governor inbox spill to the
// temp-file segment store (Messages = spilled messages, Bytes = on-disk
// segment size); PhaseWatchdog is emitted when the superstep watchdog
// trips, with State carrying the stall diagnosis and Worker the suspect.
// PhaseRun is the whole-run summary span emitted once when a run
// finishes (successfully or not).
const (
	PhaseMaster Phase = iota
	PhaseVertexCompute
	PhaseRouting
	PhaseBarrier
	PhaseCheckpoint
	PhaseRecovery
	PhaseChunk
	PhaseSpill
	PhaseWatchdog
	// PhaseRouteEager covers one source shard's eager outbox count,
	// overlapped with the vertex phase (emitted at the barrier like all
	// spans): Worker carries the source-shard index, Executor the pool
	// goroutine that ran the count.
	PhaseRouteEager
	PhaseRun
)

var phaseNames = [...]string{
	PhaseMaster:        "master",
	PhaseVertexCompute: "vertex-compute",
	PhaseRouting:       "routing",
	PhaseBarrier:       "barrier",
	PhaseCheckpoint:    "checkpoint",
	PhaseRecovery:      "recovery",
	PhaseChunk:         "chunk",
	PhaseSpill:         "spill",
	PhaseWatchdog:      "watchdog",
	PhaseRouteEager:    "route-eager",
	PhaseRun:           "run",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// MarshalJSON renders the phase by name.
func (p Phase) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON parses a phase name.
func (p *Phase) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range phaseNames {
		if n == s {
			*p = Phase(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown phase %q", s)
}

// Span is one structured trace event: a timed slice of engine work with
// message, byte, and vertex-call attribution. Worker is -1 for spans
// scoped to the whole engine (master, routing, barrier, checkpoint,
// run); State carries the job-level label (the machine executor reports
// the Green-Marl vertex-state name) when the job provides one.
//
// Counter fields are deterministic for a fixed configuration and seed;
// StartNS/DurNS are wall-clock (nanoseconds since run start) and vary
// run to run. Spans from supersteps later undone by crash recovery stay
// in the trace: the trace records what the engine did, while Stats
// records the converged outcome.
//
// PhaseChunk spans attribute one scheduling chunk of a worker's vertex
// phase: Worker is the partition that owns the chunk, Executor the pool
// goroutine that ran it, and Stolen marks the two differing (work
// stealing moved the chunk). For every other phase Executor and Stolen
// are zero-valued and omitted from JSON.
type Span struct {
	Superstep   int    `json:"superstep"`
	Worker      int    `json:"worker"`
	Phase       Phase  `json:"phase"`
	State       string `json:"state,omitempty"`
	StartNS     int64  `json:"start_ns"`
	DurNS       int64  `json:"dur_ns"`
	Messages    int64  `json:"messages,omitempty"`
	Bytes       int64  `json:"bytes,omitempty"`
	VertexCalls int64  `json:"vertex_calls,omitempty"`
	Executor    int    `json:"executor,omitempty"`
	Stolen      bool   `json:"stolen,omitempty"`
}

// Observer receives trace spans. The engine calls ObserveSpan from a
// single goroutine (spans are emitted at barriers, never concurrently),
// so implementations only need internal locking if they are also read
// from other goroutines while a run is in flight.
type Observer interface {
	ObserveSpan(Span)
}

// Multi fans spans out to every non-nil observer; it returns nil when
// none remain, so callers can assign the result to Config.Observer
// directly and keep the no-observer fast path.
func Multi(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) ObserveSpan(s Span) {
	for _, o := range m {
		o.ObserveSpan(s)
	}
}

// Ring retains the most recent spans in a fixed-capacity ring buffer.
type Ring struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	full    bool
	dropped int64
}

// NewRing creates a ring that retains the last capacity spans
// (capacity <= 0 defaults to 4096).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Ring{buf: make([]Span, capacity)}
}

// ObserveSpan appends s, evicting the oldest span when full.
func (r *Ring) ObserveSpan(s Span) {
	r.mu.Lock()
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (r *Ring) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Span(nil), r.buf[:r.next]...)
	}
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Dropped reports how many spans were evicted.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// JSONL streams spans as JSON Lines (one span object per line), the
// on-disk trace format ReadJSONL parses back (exposed publicly as
// gmpregel.NewTraceWriter).
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL creates a JSONL streamer writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{enc: json.NewEncoder(w)} }

// ObserveSpan encodes s as one line; the first write error is latched
// and subsequent spans are dropped.
func (j *JSONL) ObserveSpan(s Span) {
	j.mu.Lock()
	if j.err == nil {
		j.err = j.enc.Encode(s)
	}
	j.mu.Unlock()
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReadJSONL parses a JSONL trace back into spans.
func ReadJSONL(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var spans []Span
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return spans, err
		}
		spans = append(spans, s)
	}
}
