// Package gmpregel compiles Green-Marl graph-analysis programs into
// Pregel programs and runs them on a bundled GPS-like bulk-synchronous
// engine — a from-scratch reproduction of "Simplifying Scalable Graph
// Processing with a Domain-Specific Language" (Hong, Salihoglu, Widom,
// Olukotun; CGO 2014).
//
// Quick start:
//
//	prog, err := gmpregel.Compile(src, gmpregel.Options{})
//	if err != nil { ... }
//	g := gmpregel.TwitterLikeGraph(10000, 16, 1)
//	res, err := prog.Run(g, gmpregel.Bindings{
//	    Int:         map[string]int64{"K": 25},
//	    NodePropInt: map[string][]int64{"age": ages},
//	}, gmpregel.Config{NumWorkers: 8})
//
// The compiler applies the paper's transformation pipeline (bulk-assign
// lowering, reduction lowering, BFS lowering, random-access lowering,
// loop dissection, edge flipping) and translation rules (state machine
// construction, global objects, neighborhood/multiple/random-write
// communication, edge properties, incoming-neighbor prologue), plus the
// state-merging and intra-loop-merging optimizations. Inspect the result
// with JavaSource (the GPS-style generated code), StateMachine (the
// executable program listing), and TransformationTable (which rules
// fired).
//
// The engine runs every superstep on one path — push messaging, chunked
// work-stealing vertex compute, routing counted as chunks retire — so
// Config carries resources, limits, checkpoints and the chunk size and
// partitioner, but no execution-mode switches.
package gmpregel

import (
	"context"
	"io"
	"net/http"
	"os"

	"gmpregel/internal/codegen"
	"gmpregel/internal/core"
	"gmpregel/internal/gm/analysis"
	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/machine"
	"gmpregel/internal/obs"
	"gmpregel/internal/pregel"
)

// Options controls optional compiler steps; the zero value enables all
// optimizations.
type Options = core.Options

// Bindings supplies scalar parameters and property columns to a run.
type Bindings = machine.Bindings

// Result exposes final property values, the return value, and run
// statistics.
type Result = machine.Result

// Config controls an engine run: worker count, superstep limit, seed,
// scheduling (ChunkSize, Partitioner), periodic checkpoints
// (CheckpointEvery), MemoryBudget and Observer. Config.Workers reports
// the worker count a run resolves to; a wall-clock budget is a context
// with a timeout passed to Compiled.RunContext.
type Config = pregel.Config

// PartitionKind selects how vertices map to workers (Config.Partitioner).
type PartitionKind = pregel.PartitionKind

// Partitioners: round-robin by vertex ID (the GPS default), or
// contiguous ranges balanced by edge mass for skewed graphs.
const (
	PartitionMod    = pregel.PartitionMod
	PartitionDegree = pregel.PartitionDegree
)

// Stats summarizes a run: supersteps, messages, network/control bytes,
// checkpoint/recovery accounting, and the memory governor's spills.
type Stats = pregel.Stats

// Checkpointable is implemented by jobs whose state the engine snapshots
// at checkpoint barriers and restores on rollback; compiled programs
// implement it automatically.
type Checkpointable = pregel.Checkpointable

// ErrBudgetExceeded is returned (wrapped; test with errors.Is) when a
// run's accounted memory exceeds Config.MemoryBudget even after outbox
// release and inbox spill: the run aborts cleanly with partial Stats
// instead of running out of memory. See docs/ROBUSTNESS.md.
var ErrBudgetExceeded = pregel.ErrBudgetExceeded

// ---- Observability ----
//
// Set Config.Observer to receive a structured trace of every engine
// phase; see docs/OBSERVABILITY.md. With no observer configured the
// engine takes no timestamps.

// Observer receives trace spans from an engine run (Config.Observer).
type Observer = obs.Observer

// Span is one traced engine phase (superstep, worker, phase, wall time,
// message/byte/call attribution).
type Span = obs.Span

// TracePhase identifies which engine phase a span covers.
type TracePhase = obs.Phase

// Trace phases, in superstep order; PhaseSpill marks a governor inbox
// spill, and PhaseRun is the final run-scoped span carrying the
// authoritative totals.
const (
	PhaseMaster        = obs.PhaseMaster
	PhaseVertexCompute = obs.PhaseVertexCompute
	PhaseRouting       = obs.PhaseRouting
	PhaseBarrier       = obs.PhaseBarrier
	PhaseCheckpoint    = obs.PhaseCheckpoint
	PhaseRecovery      = obs.PhaseRecovery
	PhaseChunk         = obs.PhaseChunk
	PhaseSpill         = obs.PhaseSpill
	PhaseRun           = obs.PhaseRun
)

// TraceRing is a bounded in-memory span buffer observer.
type TraceRing = obs.Ring

// NewTraceRing creates an observer retaining the newest capacity spans.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRing(capacity) }

// NewTraceWriter creates an observer streaming spans as JSON lines to w.
func NewTraceWriter(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// ReadTrace parses a JSONL trace stream written by NewTraceWriter.
func ReadTrace(r io.Reader) ([]Span, error) { return obs.ReadJSONL(r) }

// MultiObserver fans spans out to several observers (nils are dropped).
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// MetricsRegistry holds counters, gauges, and histograms with
// Prometheus text, plain text, and JSON renderings.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewMetricsObserver registers the engine metric families on reg and
// returns an observer feeding them from trace spans.
func NewMetricsObserver(reg *MetricsRegistry) Observer { return obs.NewMetricsObserver(reg) }

// LiveObserver maintains a live snapshot of a run in flight, served by
// ObsHandler's /run endpoint.
type LiveObserver = obs.Live

// NewLiveObserver creates a live-snapshot observer.
func NewLiveObserver() *LiveObserver { return obs.NewLive() }

// ObsHandler serves /metrics (Prometheus exposition), /metrics.json,
// /healthz, /run, and /debug/pprof/*; reg and live may be nil.
func ObsHandler(reg *MetricsRegistry, live *LiveObserver) http.Handler {
	return obs.Handler(reg, live)
}

// SkewReport summarizes per-phase worker imbalance from a span trace.
type SkewReport = obs.SkewReport

// TraceSkew computes the worker-skew report (max/median worker time per
// phase) from a span trace.
func TraceSkew(spans []Span) *SkewReport { return obs.Skew(spans) }

// Diagnostic is one static-analysis finding (code, severity, position,
// message, optional fix hint).
type Diagnostic = analysis.Diagnostic

// Diagnostics is an ordered list of analysis findings.
type Diagnostics = analysis.List

// Graph is a directed graph in CSR form.
type Graph = graph.Directed

// GraphBuilder accumulates edges and builds a Graph.
type GraphBuilder = graph.Builder

// NodeID identifies a vertex; NilNode is Green-Marl's NIL.
type NodeID = graph.NodeID

// NilNode is the NIL node constant.
const NilNode = graph.NilNode

// Compiled is a compiled Green-Marl procedure ready to run.
type Compiled struct {
	c *core.Compiled
}

// Compile parses and compiles a single Green-Marl procedure.
func Compile(src string, opts Options) (*Compiled, error) {
	c, err := core.Compile(src, opts)
	if err != nil {
		return nil, err
	}
	return &Compiled{c: c}, nil
}

// CompileFile compiles the Green-Marl procedure in the named file.
func CompileFile(path string, opts Options) (*Compiled, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Compile(string(src), opts)
}

// Diagnose runs the parser, the semantic checker, and all static
// analyses over src without compiling it, returning every finding. It
// never returns an error: failures become diagnostics.
func Diagnose(src string) Diagnostics { return analysis.Diagnose(src) }

// DecodeDiagnostics parses the JSON produced by Diagnostics.JSON (and
// by gmpc -analyze -diag-format=json).
func DecodeDiagnostics(data []byte) (Diagnostics, error) { return analysis.DecodeJSON(data) }

// Name returns the procedure name.
func (p *Compiled) Name() string { return p.c.Program.Name }

// Diagnostics returns the static-analysis findings recorded while
// compiling. Empty for programs loaded from artifacts (the artifact
// keeps only the summary counts; see StateMachine's analysis block).
func (p *Compiled) Diagnostics() Diagnostics { return p.c.Diagnostics }

// Run executes the compiled program on g.
func (p *Compiled) Run(g *Graph, b Bindings, cfg Config) (*Result, error) {
	return machine.Run(p.c.Program, g, b, cfg)
}

// RunContext is Run under a cancellation context: the run aborts cleanly
// at the next superstep barrier once ctx is done, returning the partial
// Result alongside the error.
func (p *Compiled) RunContext(ctx context.Context, g *Graph, b Bindings, cfg Config) (*Result, error) {
	return machine.RunContext(ctx, p.c.Program, g, b, cfg)
}

// JavaSource renders the generated program as GPS-style Java source, the
// artifact the paper's compiler emits.
func (p *Compiled) JavaSource() string { return codegen.Java(p.c.Program) }

// GiraphSource renders the generated program as Apache-Giraph-style Java
// source (the backend variant the paper's footnote mentions).
func (p *Compiled) GiraphSource() string { return codegen.Giraph(p.c.Program) }

// StateMachine renders the executable state-machine listing.
func (p *Compiled) StateMachine() string { return p.c.Program.String() }

// SaveArtifact writes the compiled program as a JSON artifact that
// LoadArtifact can reload in another process (compilation and execution
// can then be separated, like shipping a jar to a GPS cluster).
func (p *Compiled) SaveArtifact(w io.Writer) error {
	data, err := machine.EncodeProgram(p.c.Program)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// LoadArtifact reloads a program saved with SaveArtifact. The result can
// Run and render its StateMachine and Java sources; source-level
// inspectors (CanonicalSource, TransformationTable) are unavailable and
// return empty strings.
func LoadArtifact(r io.Reader) (*Compiled, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	prog, err := machine.DecodeProgram(data)
	if err != nil {
		return nil, err
	}
	return &Compiled{c: &core.Compiled{Program: prog, Trace: nil}}, nil
}

// CanonicalSource renders the Pregel-canonical Green-Marl form after all
// transformations (§4.1). Empty for programs loaded from artifacts.
func (p *Compiled) CanonicalSource() string {
	if p.c.Canonical == nil {
		return ""
	}
	return astPrint(p.c)
}

// TransformationTable renders the applied-rule checklist (Table 3 row).
// Empty for programs loaded from artifacts.
func (p *Compiled) TransformationTable() string {
	if p.c.Trace == nil {
		return ""
	}
	return p.c.Trace.String()
}

// NumVertexStates reports the number of vertex-centric kernels.
func (p *Compiled) NumVertexStates() int { return p.c.Program.NumVertexStates() }

// NumMessageTypes reports the number of generated message types. A run
// declares each to the engine as one pregel.MessageType with the type's
// field kinds, from which the engine derives its wire size and its
// payload slots, one per field; the widest type fixes the size of the
// record the engine stores and moves every message of the run in: 8
// bytes of header plus 8 per field — 16 bytes for PageRank's or SSSP's
// one-field messages, not the 40 of a full Msg.
func (p *Compiled) NumMessageTypes() int { return len(p.c.Program.Msgs) }

func astPrint(c *core.Compiled) string {
	return core.PrintCanonical(c)
}

// ---- Graph construction helpers ----

// NewGraphBuilder creates a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// ReadEdgeList parses a plain-text edge list ("src dst" per line).
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g as a plain-text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// TwitterLikeGraph generates a preferential-attachment follower graph.
func TwitterLikeGraph(n, outDeg int, seed int64) *Graph {
	return gen.TwitterLike(n, outDeg, seed)
}

// BipartiteGraph generates a uniform random boy→girl bipartite graph;
// boys occupy IDs [0, nBoys).
func BipartiteGraph(nBoys, nGirls, outDeg int, seed int64) *Graph {
	return gen.Bipartite(nBoys, nGirls, outDeg, seed)
}

// WebLikeGraph generates an RMAT web-like graph with 2^scale vertices.
func WebLikeGraph(scale, edgeFactor int, seed int64) *Graph {
	return gen.WebLike(scale, edgeFactor, seed)
}

// RandomGraph generates an Erdős–Rényi-style graph.
func RandomGraph(n, m int, seed int64) *Graph { return gen.Random(n, m, seed) }
