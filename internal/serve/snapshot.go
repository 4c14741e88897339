// Package serve is the long-lived graph-analytics job server: one
// resident set of immutable graph snapshots, many concurrent
// heterogeneous queries. It composes the engine's existing enforcement
// mechanisms — RunContext under a timeout context (supervision),
// MemoryBudget (the resource governor), and the obs metrics/trace
// surfaces — into a multi-tenant serving layer with admission control,
// result caching, and hot-swappable graph versions. See docs/SERVING.md.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// Snapshot is one immutable, refcounted graph version. Jobs pin the
// snapshot they were submitted against for their whole lifetime
// (queue wait included), so a hot-swap never invalidates an in-flight
// job: the old version drains and is freed when its last pin drops.
type Snapshot struct {
	Name    string
	Version int
	Builder string
	Scale   int
	// InputsSeed seeds the deterministic per-algorithm input columns
	// (ages, edge lengths, …) derived from the graph by
	// algorithms.MakeInputs, the convention gmbench and gmpc -run use, so
	// served runs are bit-identical to CLI runs.
	InputsSeed int64
	Graph      *graph.Directed
	Inputs     *algorithms.Inputs

	refs    atomic.Int64 // pins: registry's own ref + one per live job
	retired atomic.Bool  // no longer the current version of its name
	freed   atomic.Bool  // refcount reached zero after retirement
	onFree  func(*Snapshot)
}

// ID is the cache-key form of the snapshot identity.
func (s *Snapshot) ID() string { return fmt.Sprintf("%s@v%d", s.Name, s.Version) }

// Refs reports the current pin count (test and introspection surface).
func (s *Snapshot) Refs() int64 { return s.refs.Load() }

// FreedForTest reports whether the snapshot has been released by every
// pin after retirement (test surface for the no-leak guarantee).
func (s *Snapshot) FreedForTest() bool { return s.freed.Load() }

func (s *Snapshot) acquire() { s.refs.Add(1) }

// release drops one pin; the last release of a retired snapshot frees
// it. The graph pointer itself is reclaimed by the garbage collector
// once the job registry's bounded history lets go of the job records.
func (s *Snapshot) release() {
	if s.refs.Add(-1) == 0 && s.retired.Load() {
		s.freed.Store(true)
		if s.onFree != nil {
			s.onFree(s)
		}
	}
}

// GraphSpec describes how to materialize a snapshot. Builders are the
// paper's evaluation graphs (algorithms.Graphs) plus two small synthetic
// shapes for tests.
type GraphSpec struct {
	Name    string `json:"name"`
	Builder string `json:"builder"` // twitter | bipartite | sk2005 | ring | random
	// Scale multiplies the builder's size, 1 (the default) to
	// maxGraphScale.
	Scale int `json:"scale,omitempty"`
	// InputsSeed seeds the derived input columns; gmbench uses its
	// -seed value plus 7.
	InputsSeed int64 `json:"inputs_seed,omitempty"`
}

// maxGraphScale bounds GraphSpec.Scale. At 64 the largest builder,
// sk2005, is 2^19 vertices and ~9 M edges; a request far beyond it would
// exhaust the server's memory in the generator (or, for sk2005, never
// leave its size search), so it is refused up front.
const maxGraphScale = 64

// buildGraph materializes the spec's graph and input columns.
func buildGraph(spec GraphSpec) (*graph.Directed, *algorithms.Inputs, error) {
	scale := spec.Scale
	if scale <= 0 {
		scale = 1
	}
	if scale > maxGraphScale {
		return nil, nil, fmt.Errorf("serve: graph scale %d exceeds the maximum of %d", spec.Scale, maxGraphScale)
	}
	var g *graph.Directed
	boys := 0
	switch spec.Builder {
	case "twitter", "bipartite", "sk2005":
		bs, err := algorithms.GraphByName(spec.Builder)
		if err != nil {
			return nil, nil, err
		}
		g = bs.Build(scale)
		if bs.BipartiteBoys != nil {
			boys = bs.BipartiteBoys(scale)
		}
	case "ring":
		g = gen.Ring(512 * scale)
	case "random":
		g = gen.Random(1024*scale, 4096*scale, 99)
	default:
		return nil, nil, fmt.Errorf("serve: unknown graph builder %q (want twitter, bipartite, sk2005, ring, or random)", spec.Builder)
	}
	return g, algorithms.MakeInputs(g, boys, spec.InputsSeed), nil
}

// snapshotRegistry maps snapshot names to their current version and
// hands out pins under one lock, so a swap and an acquire can never
// race into a freed snapshot.
type snapshotRegistry struct {
	mu      sync.Mutex
	current map[string]*Snapshot
	nextVer map[string]int
	onFree  func(*Snapshot)
}

func newSnapshotRegistry(onFree func(*Snapshot)) *snapshotRegistry {
	return &snapshotRegistry{
		current: map[string]*Snapshot{},
		nextVer: map[string]int{},
		onFree:  onFree,
	}
}

// Load materializes spec and installs it as the current version of
// spec.Name. When a previous version exists it is retired: it stops
// accepting new pins immediately, keeps serving its in-flight jobs,
// and is freed when the last of them releases. Returns the new
// snapshot and the retired one (nil on first load).
func (r *snapshotRegistry) Load(spec GraphSpec) (*Snapshot, *Snapshot, error) {
	g, in, err := buildGraph(spec)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	r.nextVer[spec.Name]++
	s := &Snapshot{
		Name:       spec.Name,
		Version:    r.nextVer[spec.Name],
		Builder:    spec.Builder,
		Scale:      spec.Scale,
		InputsSeed: spec.InputsSeed,
		Graph:      g,
		Inputs:     in,
		onFree:     r.onFree,
	}
	s.acquire() // the registry's own pin on the current version
	old := r.current[spec.Name]
	r.current[spec.Name] = s
	r.mu.Unlock()

	if old != nil {
		old.retired.Store(true)
		old.release() // drop the registry pin; frees once jobs drain
	}
	return s, old, nil
}

// Acquire pins the current version of name for one job.
func (r *snapshotRegistry) Acquire(name string) (*Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.current[name]
	if !ok {
		return nil, fmt.Errorf("serve: no graph %q loaded", name)
	}
	s.acquire()
	return s, nil
}

// SnapshotInfo is the introspection view of one resident snapshot.
type SnapshotInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	Builder string `json:"builder"`
	Scale   int    `json:"scale"`
	Nodes   int    `json:"nodes"`
	Edges   int64  `json:"edges"`
	Refs    int64  `json:"refs"`
}

// List reports every current snapshot, sorted by name.
func (r *snapshotRegistry) List() []SnapshotInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SnapshotInfo, 0, len(r.current))
	for _, s := range r.current {
		out = append(out, SnapshotInfo{
			Name: s.Name, Version: s.Version, Builder: s.Builder, Scale: s.Scale,
			Nodes: s.Graph.NumNodes(), Edges: s.Graph.NumEdges(), Refs: s.Refs(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
