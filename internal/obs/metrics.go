// Package obs is the engine's observability layer: a metrics registry
// (counters, gauges, histograms with fixed bucket layouts), a structured
// trace of engine events (per-superstep, per-worker, per-phase spans
// with wall-time, message, and byte attribution), a skew report derived
// from traces, and an HTTP introspection endpoint serving Prometheus
// exposition text, health, and a live run snapshot.
//
// The package is self-contained (standard library only) and imported by
// the pregel engine; nothing here imports engine packages, so every
// layer of the system can attach instruments without cycles. The hot
// paths — Counter.Add, Gauge.Set, Histogram.Observe — are lock-free
// atomics and allocate nothing.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (a Prometheus label pair).
type Label struct {
	Key   string
	Value string
}

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (family, label-set) time series. Counters store an
// integer count in val; gauges store float64 bits in val; histograms
// use counts/sum/count.
type series struct {
	labels []Label
	sig    string

	val atomic.Uint64

	buckets []float64 // upper bounds, strictly increasing; histograms only
	counts  []atomic.Uint64
	sum     atomic.Uint64 // float64 bits
	count   atomic.Uint64
}

func addFloatBits(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// family is all series sharing one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64

	mu     sync.Mutex
	series []*series
	bySig  map[string]*series
}

// Registry holds metric families. Registration methods are idempotent:
// asking for an existing (name, labels) pair returns the same
// instrument, so call sites need no shared setup. Rendering walks
// families in registration order and series in label order, so output
// is deterministic.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

func (r *Registry) family(name, help string, typ metricType, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, bySig: make(map[string]*series)}
		r.byName[name] = f
		r.fams = append(r.fams, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	return f
}

func (f *family) seriesFor(labels []Label) *series {
	sig := labelSig(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.bySig[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...), sig: sig}
		if f.typ == typeHistogram {
			s.buckets = f.buckets
			s.counts = make([]atomic.Uint64, len(f.buckets)+1)
		}
		f.bySig[sig] = s
		f.series = append(f.series, s)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].sig < f.series[j].sig })
	}
	return s
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.s.val.Add(1) }

// Add adds a non-negative delta; negative deltas panic (counters are
// monotone by definition).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("obs: counter decreased")
	}
	c.s.val.Add(uint64(delta))
}

// Value returns the current count.
func (c *Counter) Value() int64 { return int64(c.s.val.Load()) }

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return &Counter{s: r.family(name, help, typeCounter, nil).seriesFor(labels)}
}

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.s.val.Store(math.Float64bits(v)) }

// Add shifts the gauge value by delta.
func (g *Gauge) Add(delta float64) { addFloatBits(&g.s.val, delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.val.Load()) }

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return &Gauge{s: r.family(name, help, typeGauge, nil).seriesFor(labels)}
}

// Histogram accumulates observations into a fixed bucket layout chosen
// at registration; the layout never changes afterwards, so exposition
// stays comparable across scrapes and runs.
type Histogram struct{ s *series }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.s.buckets, v)
	h.s.counts[i].Add(1)
	h.s.count.Add(1)
	addFloatBits(&h.s.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return int64(h.s.count.Load()) }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.sum.Load()) }

// Histogram registers (or finds) a histogram series. The first
// registration of a name fixes its bucket layout; nil buckets default
// to DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets()
	}
	bs := append([]float64(nil), buckets...)
	if !sort.Float64sAreSorted(bs) {
		panic(fmt.Sprintf("obs: histogram %q buckets not sorted", name))
	}
	return &Histogram{s: r.family(name, help, typeHistogram, bs).seriesFor(labels)}
}

// DefBuckets is the default histogram layout (the Prometheus client
// default: 5ms to 10s, wall-time oriented).
func DefBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// ExpBuckets returns n buckets starting at start, each factor times the
// previous — the fixed layout used for engine phase timings.
func ExpBuckets(start, factor float64, n int) []float64 {
	bs := make([]float64, n)
	for i := range bs {
		bs[i] = start
		start *= factor
	}
	return bs
}

// DurationBuckets is the fixed layout for engine phase durations in
// seconds: 1µs·4^k for 12 buckets, topping out near 4200s.
func DurationBuckets() []float64 { return ExpBuckets(1e-6, 4, 14) }

// ---- Rendering ----

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (f *family) snapshotSeries() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*series(nil), f.series...)
}

func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.fams...)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.snapshotSeries() {
			switch f.typ {
			case typeCounter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(s.labels), s.val.Load()); err != nil {
					return err
				}
			case typeGauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(s.labels), formatFloat(math.Float64frombits(s.val.Load()))); err != nil {
					return err
				}
			case typeHistogram:
				cum := uint64(0)
				for i, ub := range s.buckets {
					cum += s.counts[i].Load()
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(s.labels, L("le", formatFloat(ub))), cum); err != nil {
						return err
					}
				}
				cum += s.counts[len(s.buckets)].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(s.labels, L("le", "+Inf")), cum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, promLabels(s.labels), formatFloat(math.Float64frombits(s.sum.Load()))); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, promLabels(s.labels), s.count.Load()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

type jsonBucket struct {
	// Le is the bucket upper bound, rendered as a string so the +Inf
	// bucket survives JSON encoding.
	Le    string `json:"le"`
	Count uint64 `json:"count"` // cumulative
}

type jsonSeries struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Buckets []jsonBucket      `json:"buckets,omitempty"`
}

type jsonFamily struct {
	Name   string       `json:"name"`
	Type   string       `json:"type"`
	Help   string       `json:"help,omitempty"`
	Series []jsonSeries `json:"series"`
}

// WriteJSON renders the registry as a JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	var out []jsonFamily
	for _, f := range r.snapshotFamilies() {
		jf := jsonFamily{Name: f.name, Type: f.typ.String(), Help: f.help}
		for _, s := range f.snapshotSeries() {
			js := jsonSeries{}
			if len(s.labels) > 0 {
				js.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					js.Labels[l.Key] = l.Value
				}
			}
			switch f.typ {
			case typeCounter:
				v := float64(s.val.Load())
				js.Value = &v
			case typeGauge:
				v := math.Float64frombits(s.val.Load())
				js.Value = &v
			case typeHistogram:
				sum := math.Float64frombits(s.sum.Load())
				count := s.count.Load()
				js.Sum, js.Count = &sum, &count
				cum := uint64(0)
				for i, ub := range s.buckets {
					cum += s.counts[i].Load()
					js.Buckets = append(js.Buckets, jsonBucket{Le: formatFloat(ub), Count: cum})
				}
				cum += s.counts[len(s.buckets)].Load()
				js.Buckets = append(js.Buckets, jsonBucket{Le: "+Inf", Count: cum})
			}
			jf.Series = append(jf.Series, js)
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []jsonFamily `json:"metrics"`
	}{out})
}
