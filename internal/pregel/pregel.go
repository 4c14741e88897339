// Package pregel implements a GPS-like bulk-synchronous vertex-centric
// graph processing engine: the substrate the paper's compiler targets.
//
// The engine reproduces the programming model of Pregel as extended by
// GPS (Salihoglu & Widom): a master.compute() function that runs at the
// beginning of every superstep, a vertex.compute() function invoked for
// each active vertex, push-only messaging with delivery in the next
// superstep, a global-objects map for master→vertex broadcast, reduction
// aggregators for vertex→master communication, and voteToHalt().
//
// Vertices are partitioned across W workers — hash partitioning
// (id mod W) by default, or degree-aware contiguous ranges with
// Config.Partitioner — and executed by W persistent executor goroutines,
// spawned once per run and parked on a reusable barrier between phases.
// Within a superstep each worker's vertex-compute and routing work is
// split into fixed-size chunks pulled from shared queues; an executor
// that drains its own worker's chunks deterministically steals remaining
// chunks from the most-loaded worker (see docs/ENGINE.md, "Hot path and
// scheduling"). Results and Stats are independent of which executor runs
// a chunk: per-chunk output is merged at the barrier in canonical
// (worker, chunk) order, delivery folds run in that same order, and
// vertex-level RNG streams are seeded per (vertex, superstep).
//
// Messages between vertices on different workers are accounted as
// network I/O at their serialized wire size; master broadcast and
// aggregator traffic is accounted separately as control I/O. Runs are
// deterministic for a fixed configuration and seed: inboxes are grouped
// in source-worker order regardless of chunk size or stealing.
package pregel

import (
	"math"
	"runtime"

	"gmpregel/internal/graph"
	"gmpregel/internal/obs"
)

// MaxPayloadSlots is the number of 64-bit payload slots in a Msg.
// Four slots cover every message schema the compiler generates (the most
// complex, Betweenness Centrality's reverse sweep, needs two).
const MaxPayloadSlots = 4

// Msg is a message between vertices, as jobs see it. Payload slots hold
// int64, float64 (bit-cast), bool, or node IDs; the schema of each Type
// determines how many slots are live and what their wire size is. The
// engine does not store Msg values: Send packs one into a schema-width
// record (see record.go) and Messages() unpacks records back.
type Msg struct {
	Dst  graph.NodeID
	Type uint8
	V    [MaxPayloadSlots]uint64
}

// SetInt stores an int64 in payload slot i.
//
//gm:noalloc
func (m *Msg) SetInt(i int, v int64) { m.V[i] = uint64(v) }

// Int reads payload slot i as an int64.
//
//gm:noalloc
func (m *Msg) Int(i int) int64 { return int64(m.V[i]) }

// SetFloat stores a float64 in payload slot i.
//
//gm:noalloc
func (m *Msg) SetFloat(i int, v float64) { m.V[i] = math.Float64bits(v) }

// Float reads payload slot i as a float64.
//
//gm:noalloc
func (m *Msg) Float(i int) float64 { return math.Float64frombits(m.V[i]) }

// SetBool stores a bool in payload slot i.
//
//gm:noalloc
func (m *Msg) SetBool(i int, v bool) {
	if v {
		m.V[i] = 1
	} else {
		m.V[i] = 0
	}
}

// Bool reads payload slot i as a bool.
//
//gm:noalloc
func (m *Msg) Bool(i int) bool { return m.V[i] != 0 }

// SetNode stores a node ID in payload slot i.
//
//gm:noalloc
func (m *Msg) SetNode(i int, v graph.NodeID) { m.V[i] = uint64(uint32(v)) }

// Node reads payload slot i as a node ID.
//
//gm:noalloc
func (m *Msg) Node(i int) graph.NodeID { return graph.NodeID(int32(uint32(m.V[i]))) }

// AggOp is an aggregator reduction operator.
type AggOp uint8

// Aggregator reduction operators. AggAny keeps an arbitrary (but
// deterministic: highest-indexed contributing chunk's last write)
// contributed value, mirroring the effect of parallel plain writes to a
// global.
const (
	AggSum AggOp = iota
	AggMin
	AggMax
	AggOr
	AggAnd
	AggAny
)

// AggKind is the value domain of an aggregator or of a message field.
type AggKind uint8

// Value kinds; node IDs aggregate as AggKindInt. AggKindNode is a node
// id as Msg.SetNode stores it (the low 32 bits of the word): only
// delivery folds tell it apart, an aggregator treats it as Int.
const (
	AggKindInt AggKind = iota
	AggKindFloat
	AggKindBool
	AggKindNode
)

// wireBytes is the serialized size of each kind, as GPS sizes message
// fields and globals: long 8, double 8, boolean 1, vertex id 4.
var wireBytes = [...]int{AggKindInt: 8, AggKindFloat: 8, AggKindBool: 1, AggKindNode: 4}

// WireBytes returns the serialized size of a value of kind k.
func (k AggKind) WireBytes() int { return wireBytes[k] }

// AggSpec declares one aggregator slot.
type AggSpec struct {
	Name string
	Kind AggKind
	Op   AggOp
}

// GlobalSpec declares one master-broadcast global slot. Size is the wire
// size in bytes used for control-I/O accounting.
type GlobalSpec struct {
	Name string
	Size int
}

// MessageType declares one message type: the kinds of its fields,
// which Msg carries in payload slots 0..len(Fields)-1, one slot per
// field whatever its kind. The fields fix the type's wire size (a
// 4-byte destination, a 1-byte type tag when the job declares more
// than one type, then WireBytes of each field) and the widest type
// fixes the engine's message record for the run, 8*(1+fields) bytes,
// so a one-field message costs 16 bytes to move. A message with a
// non-zero value in a slot past its type's fields aborts the run with
// a *SchemaError.
type MessageType struct {
	Fields []AggKind
	// Fold optionally folds the type at delivery with this operator
	// over its one field (see Fold); nil folds nothing.
	Fold *AggOp
	// EdgeAdd optionally declares an out-edge column — a []int64 or
	// []float64 of NumEdges values indexed by out-edge position, like an
	// edge property — that SendToAllNbrs of the type adds to the payload
	// on each edge: the neighbour over edge e is delivered payload +
	// col[e], exactly as a Send of that sum per edge would deliver it,
	// and billed the same. Only a type folded over an Int or Float field
	// may declare one, of the field's kind; Send is unaffected. The
	// engine reads the column when it delivers, so the job must not
	// write it during a run.
	EdgeAdd any
}

// Schema declares a job's communication shape.
type Schema struct {
	// Messages declares each message type, indexed by Msg.Type; empty
	// means the job sends no messages.
	Messages    []MessageType
	Aggregators []AggSpec
	Globals     []GlobalSpec
}

// Job is a Pregel program: the pair of compute functions plus the
// communication schema. MasterCompute runs once at the beginning of every
// superstep (GPS's master.compute); VertexCompute runs for every vertex
// that is active or has incoming messages.
type Job interface {
	MasterCompute(mc *MasterContext)
	VertexCompute(vc *VertexContext)
	Schema() Schema
}

// Config controls an engine run.
type Config struct {
	// NumWorkers is the number of simulated workers; 0 means GOMAXPROCS.
	NumWorkers int
	// MaxSupersteps aborts runaway jobs; 0 means 1 << 20.
	MaxSupersteps int
	// Seed seeds all randomness (the master RNG and the per-vertex
	// streams behind VertexContext.Rand).
	Seed int64
	// TraceSteps records per-superstep statistics in Stats.Steps.
	TraceSteps bool
	// ChunkSize is the number of vertices per scheduling chunk. 0 picks a
	// default that gives each worker about 16 chunks (at least 64 vertices
	// per chunk). Results and Stats are chunk-size independent except for
	// the reduction order of floating-point AggSum aggregators, which is
	// deterministic per configuration but not bit-portable across chunk
	// geometries.
	ChunkSize int
	// Partitioner selects vertex placement (default PartitionMod).
	Partitioner PartitionKind
	// CheckpointEvery takes a recovery checkpoint at the barrier entering
	// supersteps 0, k, 2k, …. 0 disables periodic checkpointing; when a
	// fault plan is configured, a single superstep-0 checkpoint is still
	// taken so rollback is always possible.
	CheckpointEvery int
	// Faults deterministically injects worker failures, for tests; each
	// failure is converted into rollback to the last checkpoint and
	// replay. A plan entry that could never fire (see Fault) fails the
	// run before superstep 0.
	Faults FaultPlan
	// Observer, when non-nil, receives a structured trace of the run: one
	// span per engine phase (master, per-worker vertex compute, per-chunk
	// execution with executor/steal attribution, barrier, routing,
	// checkpoint, recovery) plus a final run-scoped span carrying the
	// authoritative totals. Spans are emitted from the barrier goroutine,
	// never concurrently. When nil the engine takes no timestamps and the
	// hot path is identical to an unobserved run.
	Observer obs.Observer
	// MemoryBudget caps the engine's accounted message/inbox/checkpoint
	// memory (see docs/ROBUSTNESS.md). When the budget is exceeded the
	// governor degrades in stages — release routed outbox retention,
	// spill inboxes to a temp-file segment store — and aborts with
	// ErrBudgetExceeded (carrying partial Stats) only when even a fully
	// spilled engine does not fit. 0 disables the governor. Accounting is
	// a pure function of configuration and seed, so governed runs remain
	// deterministic.
	MemoryBudget int64
}

// Workers is the number of workers a run with c uses on a graph of
// numNodes vertices: NumWorkers, or GOMAXPROCS when that is not
// positive, capped at numNodes for a non-empty graph. Jobs that keep
// per-executor state (VertexContext.ExecutorIndex) size it with this.
func (c Config) Workers(numNodes int) int {
	w := c.NumWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > numNodes && numNodes > 0 {
		w = numNodes
	}
	return w
}

func (c Config) withDefaults() Config {
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 1 << 20
	}
	return c
}

// StepStats records one superstep's traffic. Every field is a
// deterministic counter — no wall times — so a crash-and-recover run
// reproduces the fault-free Steps slice bit for bit (timing lives in the
// Observer trace, which keeps rolled-back work visible instead).
type StepStats struct {
	Messages     int64
	NetworkBytes int64
	VertexCalls  int64
	NetworkMsgs  int64
	LocalBytes   int64
	ControlBytes int64
}

// add adds o's counters to s.
//
//gm:noalloc
func (s *StepStats) add(o StepStats) {
	s.Messages += o.Messages
	s.NetworkBytes += o.NetworkBytes
	s.VertexCalls += o.VertexCalls
	s.NetworkMsgs += o.NetworkMsgs
	s.LocalBytes += o.LocalBytes
	s.ControlBytes += o.ControlBytes
}

// PhaseLabeler is optionally implemented by jobs that know which logical
// state a superstep executes (the machine executor reports the compiled
// state-machine state picked by master.compute). The engine queries it
// after the master phase and attaches the label to that superstep's
// master, vertex-compute, and chunk spans.
type PhaseLabeler interface {
	PhaseLabel() string
}

// Stats summarizes a run. NetworkBytes counts serialized bytes of
// messages whose endpoints live on different workers (4-byte destination
// id, a 1-byte type tag when the job declares more than one message type,
// then the schema payload). ControlBytes counts global broadcast and
// aggregator traffic.
type Stats struct {
	Supersteps    int
	MessagesSent  int64
	NetworkMsgs   int64
	NetworkBytes  int64
	LocalBytes    int64
	ControlBytes  int64
	VertexCalls   int64
	ReturnedInt   int64
	ReturnedFloat float64
	ReturnedIsSet bool
	ReturnedIsInt bool
	Steps         []StepStats

	// Fault-tolerance accounting. Checkpoints and CheckpointBytes count
	// every checkpoint taken (engine state + job snapshot, serialized);
	// Recoveries counts rollbacks and RecoveredSupersteps the supersteps
	// re-executed because of them. These four are monotone: a rollback
	// rewinds every other counter to its checkpointed value but never
	// these. A fault-injected run therefore finishes with the same
	// Supersteps/Messages/Bytes/Returned* as an unfailed run, plus a
	// nonzero recovery bill.
	Checkpoints         int
	CheckpointBytes     int64
	Recoveries          int
	RecoveredSupersteps int

	// Governor accounting, monotone like the four counters above (never
	// rewound by rollback). All three stay zero unless MemoryBudget is
	// set, so they never perturb bit-identical Stats comparisons of
	// ungoverned runs. MemoryPeakBytes is the high-water accounted usage
	// observed at govern points, before any degradation.
	Spills          int
	SpillBytes      int64
	MemoryPeakBytes int64
}
