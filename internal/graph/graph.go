// Package graph provides the directed-graph substrate used by the engine,
// the compiler runtime, and the sequential reference implementations.
//
// Graphs are stored in compressed sparse row (CSR) form: all out-edges of
// vertex v occupy the half-open range [OutStart[v], OutStart[v+1]) of the
// OutDst slice. A reverse CSR (in-edges) is built lazily on demand.
// Programs never see it through the engine — per the paper, incoming-
// neighbor lists are materialized by the *program* via an ID-exchange
// prologue — but sequential oracles and generators read it, and so does
// the Pregel engine's one-worker pull fold of dense broadcasts.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a vertex. IDs are dense in [0, NumNodes).
type NodeID int32

// NilNode is the Green-Marl NIL node constant.
const NilNode NodeID = -1

// Directed is an immutable directed graph in CSR form.
type Directed struct {
	// OutStart has length NumNodes+1; out-edges of v are
	// OutDst[OutStart[v]:OutStart[v+1]].
	OutStart []int64
	// OutDst holds destination vertices of all edges, grouped by source.
	OutDst []NodeID

	// in-CSR, built lazily (and at most once) by ensureIn. inOnce makes
	// the build safe to trigger from concurrent readers: before the
	// guard, two goroutines calling InNbrs on a fresh graph raced on the
	// inStart/inSrc/inEdge writes.
	inOnce  sync.Once
	inStart []int64
	inSrc   []NodeID
	// inEdge maps each in-edge position to its out-edge index, so edge
	// properties (indexed by out-edge position) stay accessible.
	inEdge []int64

	// derived holds the indexes Derived built, by key.
	derivedMu sync.Mutex
	derived   map[any]*derivedEntry
}

type derivedEntry struct {
	once sync.Once
	v    any
}

// NumNodes returns the number of vertices.
func (g *Directed) NumNodes() int { return len(g.OutStart) - 1 }

// NumEdges returns the number of directed edges.
func (g *Directed) NumEdges() int64 { return int64(len(g.OutDst)) }

// OutDegree returns the out-degree of v.
//
//gm:noalloc
func (g *Directed) OutDegree(v NodeID) int {
	return int(g.OutStart[v+1] - g.OutStart[v])
}

// OutNbrs returns the out-neighbors of v. The returned slice aliases the
// graph's storage and must not be modified.
func (g *Directed) OutNbrs(v NodeID) []NodeID {
	return g.OutDst[g.OutStart[v]:g.OutStart[v+1]]
}

// OutEdgeRange returns the half-open range of edge indices of v's
// out-edges; edge index i has destination OutDst[i]. Edge properties are
// stored per out-edge index.
func (g *Directed) OutEdgeRange(v NodeID) (lo, hi int64) {
	return g.OutStart[v], g.OutStart[v+1]
}

// buildIn materializes the reverse CSR.
func (g *Directed) buildIn() {
	n := g.NumNodes()
	g.inStart = make([]int64, n+1)
	for _, d := range g.OutDst {
		g.inStart[d+1]++
	}
	for i := 0; i < n; i++ {
		g.inStart[i+1] += g.inStart[i]
	}
	g.inSrc = make([]NodeID, len(g.OutDst))
	g.inEdge = make([]int64, len(g.OutDst))
	next := make([]int64, n)
	copy(next, g.inStart[:n])
	for u := NodeID(0); int(u) < n; u++ {
		lo, hi := g.OutEdgeRange(u)
		for e := lo; e < hi; e++ {
			d := g.OutDst[e]
			p := next[d]
			g.inSrc[p] = u
			g.inEdge[p] = e
			next[d] = p + 1
		}
	}
}

// ensureIn builds the reverse CSR exactly once, safely under concurrent
// callers. After the Once completes, the in-arrays are immutable and may
// be read from any goroutine without synchronization.
func (g *Directed) ensureIn() { g.inOnce.Do(g.buildIn) }

// BuildIn eagerly materializes the reverse CSR (and the in-edge→out-edge
// index), so later InNbrs/InDegree/InEdgeIndices/InCSR calls on hot
// paths are pure reads that never allocate. Otherwise the first reader
// builds it: at one worker, the Pregel engine's first superstep in which
// every vertex broadcast a folded type (it pulls that fold through
// InCSR).
func (g *Directed) BuildIn() { g.ensureIn() }

// InCSR returns the whole reverse CSR, building it if needed: the
// in-edges of v are positions [start[v], start[v+1]) of src, which holds
// their sources, and of edge, which holds their out-edge indices, in
// ascending (source, out-edge index) order. The slices alias the graph's
// storage and must not be modified.
func (g *Directed) InCSR() (start []int64, src []NodeID, edge []int64) {
	g.ensureIn()
	return g.inStart, g.inSrc, g.inEdge
}

// Derived returns the value build makes for key, building it at most
// once per graph and key — concurrent callers wait for the one build —
// and sharing it with every later call. It is for read-only indexes
// computed from the immutable CSR, which then live exactly as long as
// the graph, like the reverse CSR. key must be comparable; callers use
// an unexported key type so packages cannot collide.
func (g *Directed) Derived(key any, build func() any) any {
	g.derivedMu.Lock()
	d := g.derived[key]
	if d == nil {
		if g.derived == nil {
			g.derived = make(map[any]*derivedEntry)
		}
		d = &derivedEntry{}
		g.derived[key] = d
	}
	g.derivedMu.Unlock()
	d.once.Do(func() { d.v = build() })
	return d.v
}

// InDegree returns the in-degree of v, building the reverse CSR if needed.
func (g *Directed) InDegree(v NodeID) int {
	g.ensureIn()
	return int(g.inStart[v+1] - g.inStart[v])
}

// InNbrs returns the in-neighbors of v, building the reverse CSR if
// needed. The returned slice aliases the graph's storage. Within the
// slice, sources appear in ascending (source, out-edge-index) order —
// at one worker the Pregel engine's push fold order, which its pull fold
// of dense broadcasts (InCSR) relies on to keep the bits.
func (g *Directed) InNbrs(v NodeID) []NodeID {
	g.ensureIn()
	return g.inSrc[g.inStart[v]:g.inStart[v+1]]
}

// InEdgeIndices returns, for each in-neighbor of v (aligned with
// InNbrs(v)), the out-edge index of the corresponding edge, so edge
// properties can be read when traversing in-edges.
func (g *Directed) InEdgeIndices(v NodeID) []int64 {
	g.ensureIn()
	return g.inEdge[g.inStart[v]:g.inStart[v+1]]
}

// HasEdge reports whether the edge (u, v) exists. O(log deg(u)) when the
// adjacency is sorted (builders sort), O(deg(u)) otherwise.
func (g *Directed) HasEdge(u, v NodeID) bool {
	nbrs := g.OutNbrs(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	if i < len(nbrs) && nbrs[i] == v {
		return true
	}
	// Fall back to a linear scan in case the adjacency is unsorted.
	for _, w := range nbrs {
		if w == v {
			return true
		}
	}
	return false
}

// Validate checks structural invariants and returns a descriptive error
// on the first violation. Useful in tests and after deserialization.
func (g *Directed) Validate() error {
	n := g.NumNodes()
	if n < 0 {
		return fmt.Errorf("graph: OutStart must have length >= 1")
	}
	if g.OutStart[0] != 0 {
		return fmt.Errorf("graph: OutStart[0] = %d, want 0", g.OutStart[0])
	}
	for i := 0; i < n; i++ {
		if g.OutStart[i+1] < g.OutStart[i] {
			return fmt.Errorf("graph: OutStart not monotone at %d", i)
		}
	}
	if g.OutStart[n] != int64(len(g.OutDst)) {
		return fmt.Errorf("graph: OutStart[n]=%d != len(OutDst)=%d", g.OutStart[n], len(g.OutDst))
	}
	for i, d := range g.OutDst {
		if d < 0 || int(d) >= n {
			return fmt.Errorf("graph: edge %d has out-of-range dst %d", i, d)
		}
	}
	return nil
}

// Edge is a source/destination pair used by builders.
type Edge struct {
	Src, Dst NodeID
}

// Builder accumulates edges and produces a CSR Directed graph.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge appends the directed edge (src, dst). It panics if either
// endpoint is out of range; builders are programming-time constructs and
// an out-of-range endpoint is a caller bug.
func (b *Builder) AddEdge(src, dst NodeID) {
	if src < 0 || int(src) >= b.n || dst < 0 || int(dst) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.n))
	}
	b.edges = append(b.edges, Edge{src, dst})
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the CSR graph. Out-adjacencies are sorted by destination
// for deterministic iteration and binary-searchable HasEdge.
func (b *Builder) Build() *Directed {
	g := &Directed{
		OutStart: make([]int64, b.n+1),
		OutDst:   make([]NodeID, len(b.edges)),
	}
	for _, e := range b.edges {
		g.OutStart[e.Src+1]++
	}
	for i := 0; i < b.n; i++ {
		g.OutStart[i+1] += g.OutStart[i]
	}
	next := make([]int64, b.n)
	copy(next, g.OutStart[:b.n])
	for _, e := range b.edges {
		g.OutDst[next[e.Src]] = e.Dst
		next[e.Src]++
	}
	for v := 0; v < b.n; v++ {
		lo, hi := g.OutStart[v], g.OutStart[v+1]
		s := g.OutDst[lo:hi]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return g
}

// FromEdges is a convenience constructor building a CSR graph directly
// from an edge slice.
func FromEdges(n int, edges []Edge) *Directed {
	b := NewBuilder(n)
	b.edges = append(b.edges, edges...)
	for _, e := range edges {
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, n))
		}
	}
	return b.Build()
}

// Stats summarizes degree structure; used by the Table 1 harness.
type Stats struct {
	Nodes     int
	Edges     int64
	MinOutDeg int
	MaxOutDeg int
	AvgOutDeg float64
	Isolated  int // vertices with no out- and no in-edges
}

// ComputeStats scans the graph once and returns degree statistics.
func ComputeStats(g *Directed) Stats {
	n := g.NumNodes()
	st := Stats{Nodes: n, Edges: g.NumEdges()}
	if n == 0 {
		return st
	}
	hasIn := make([]bool, n)
	for _, d := range g.OutDst {
		hasIn[d] = true
	}
	st.MinOutDeg = g.OutDegree(0)
	for v := 0; v < n; v++ {
		d := g.OutDegree(NodeID(v))
		if d < st.MinOutDeg {
			st.MinOutDeg = d
		}
		if d > st.MaxOutDeg {
			st.MaxOutDeg = d
		}
		if d == 0 && !hasIn[v] {
			st.Isolated++
		}
	}
	st.AvgOutDeg = float64(st.Edges) / float64(n)
	return st
}
