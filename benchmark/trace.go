package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"gmpregel/internal/obs"
)

// span is one harness trace record. Spans of one operation (an arm, a
// compile pass, a request) share Trace; Parent is the ID of the span
// that caused this one, 0 for the operation's root.
type span struct {
	Trace   string           `json:"trace"`
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Layer   string           `json:"layer"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	DurNS   int64            `json:"dur_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps the traced rounds' spans in memory until the run ends.
// A nil *recorder is the untraced run: begin returns a nil *openSpan and
// every method on either is a no-op, so traced and untraced rounds share
// one code path.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a span whose end has not been recorded yet.
type openSpan struct {
	rec   *recorder
	span  span
	start time.Time
}

func (r *recorder) begin(trace string, parent *openSpan, layer, name string) *openSpan {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.mu.Lock()
	// The slot is reserved at begin so IDs follow start order.
	r.spans = append(r.spans, span{})
	id := len(r.spans)
	r.mu.Unlock()
	o := &openSpan{rec: r, start: now, span: span{
		Trace: trace, ID: id, Layer: layer, Name: name, StartNS: now.Sub(r.t0).Nanoseconds(),
	}}
	if parent != nil {
		o.span.Parent = parent.span.ID
	}
	return o
}

// end closes the span with optional counts and returns its duration.
func (o *openSpan) end(counts map[string]int64) time.Duration {
	if o == nil {
		return 0
	}
	d := time.Since(o.start)
	o.span.DurNS = d.Nanoseconds()
	o.span.Counts = counts
	o.rec.mu.Lock()
	o.rec.spans[o.span.ID-1] = o.span
	o.rec.mu.Unlock()
	return d
}

// engineSpans buffers the engine's own spans for one run; attach turns
// them into children of the harness span that wrapped the run.
type engineSpans struct{ spans []obs.Span }

func (e *engineSpans) ObserveSpan(s obs.Span) { e.spans = append(e.spans, s) }

// attach records the buffered engine spans under parent (the machine.Run
// or pregel.Run harness span, already ended). The engine stamps spans
// relative to its own start and emits a final "run" span whose duration
// is the whole engine run, so the run is anchored to end where parent
// ended. Per-chunk spans become children of their worker's
// vertex-compute span, which the engine defines as their sum plus the
// fold; everything else hangs off the run span.
func (e *engineSpans) attach(parent *openSpan) {
	if parent == nil || len(e.spans) == 0 {
		return
	}
	r := parent.rec
	var runDur int64
	for _, s := range e.spans {
		if s.Phase.String() == "run" {
			runDur = s.DurNS
		}
	}
	base := parent.span.StartNS + parent.span.DurNS - runDur
	r.mu.Lock()
	defer r.mu.Unlock()
	add := func(parentID int, s obs.Span, start int64) int {
		counts := map[string]int64{"superstep": int64(s.Superstep), "worker": int64(s.Worker)}
		if s.Messages != 0 {
			counts["messages"] = s.Messages
		}
		if s.Bytes != 0 {
			counts["bytes"] = s.Bytes
		}
		if s.VertexCalls != 0 {
			counts["vertex_calls"] = s.VertexCalls
		}
		r.spans = append(r.spans, span{
			Trace: parent.span.Trace, ID: len(r.spans) + 1, Parent: parentID,
			Layer: "pregel", Name: s.Phase.String(), StartNS: start, DurNS: s.DurNS, Counts: counts,
		})
		return len(r.spans)
	}
	runID := parent.span.ID
	for _, s := range e.spans {
		if s.Phase.String() == "run" {
			runID = add(parent.span.ID, s, base)
		}
	}
	type key struct{ step, worker int }
	vertexID := map[key]int{}
	for _, s := range e.spans {
		switch s.Phase.String() {
		case "run", "chunk":
		case "vertex-compute":
			vertexID[key{s.Superstep, s.Worker}] = add(runID, s, base+s.StartNS)
		default:
			add(runID, s, base+s.StartNS)
		}
	}
	for _, s := range e.spans {
		if s.Phase.String() == "chunk" {
			add(vertexID[key{s.Superstep, s.Worker}], s, base+s.StartNS)
		}
	}
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the part of its interval that its child
// spans cover. Children that overlap (parallel workers) or stick out of
// the parent are merged and clipped first, so self time is never
// negative.
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		lo, hi := s.StartNS, s.StartNS+s.DurNS
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, end := int64(0), lo
		for _, k := range kids {
			a, b := spans[k].StartNS, spans[k].StartNS+spans[k].DurNS
			if a < end {
				a = end
			}
			if b > hi {
				b = hi
			}
			if b > a {
				covered += b - a
				end = b
			}
		}
		self[i] = s.DurNS - covered
	}
	return self
}

// writeJSONL writes the recorded spans, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
