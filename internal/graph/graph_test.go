package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func mustValid(t *testing.T, g *Directed) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	mustValid(t, g)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("size = (%d,%d), want (4,4)", g.NumNodes(), g.NumEdges())
	}
	if got := g.OutNbrs(0); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Errorf("OutNbrs(0) = %v, want [1 2]", got)
	}
	if g.OutDegree(1) != 0 {
		t.Errorf("OutDegree(1) = %d, want 0", g.OutDegree(1))
	}
	if !g.HasEdge(2, 3) || g.HasEdge(3, 2) {
		t.Errorf("HasEdge wrong: (2,3)=%v (3,2)=%v", g.HasEdge(2, 3), g.HasEdge(3, 2))
	}
}

func TestBuilderSortsAdjacency(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 3)
	g := b.Build()
	if got := g.OutNbrs(0); !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("adjacency not sorted: %v", got)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestInNeighbors(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 2}, {1, 2}, {3, 2}, {2, 0}})
	in := append([]NodeID(nil), g.InNbrs(2)...)
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	if !reflect.DeepEqual(in, []NodeID{0, 1, 3}) {
		t.Errorf("InNbrs(2) = %v, want [0 1 3]", in)
	}
	if g.InDegree(0) != 1 || g.InDegree(3) != 0 {
		t.Errorf("InDegree wrong: in(0)=%d in(3)=%d", g.InDegree(0), g.InDegree(3))
	}
}

func TestInEdgeIndicesMapToOutEdges(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 2}, {1, 2}, {1, 3}, {3, 2}})
	srcs := g.InNbrs(2)
	idxs := g.InEdgeIndices(2)
	if len(srcs) != len(idxs) {
		t.Fatalf("len mismatch: %d vs %d", len(srcs), len(idxs))
	}
	for i, e := range idxs {
		// The out-edge at index e must be (srcs[i], 2).
		if g.OutDst[e] != 2 {
			t.Errorf("in-edge %d: OutDst[%d] = %d, want 2", i, e, g.OutDst[e])
		}
		lo, hi := g.OutEdgeRange(srcs[i])
		if e < lo || e >= hi {
			t.Errorf("in-edge %d: index %d not in source %d's range [%d,%d)", i, e, srcs[i], lo, hi)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(3, nil)
	mustValid(t, g)
	if g.NumEdges() != 0 || len(g.OutNbrs(1)) != 0 || g.InDegree(2) != 0 {
		t.Error("empty graph should have no edges anywhere")
	}
}

// Property: for a random edge multiset, in-degree sum per vertex equals
// the number of edges pointing at it, and total degrees equal edge count.
func TestCSRInvariantsQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		n := 20
		edges := make([]Edge, 0, len(raw)/2*2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{NodeID(int(raw[i]) % n), NodeID(int(raw[i+1]) % n)})
		}
		g := FromEdges(n, edges)
		if g.Validate() != nil {
			return false
		}
		var outSum, inSum int64
		for v := 0; v < n; v++ {
			outSum += int64(g.OutDegree(NodeID(v)))
			inSum += int64(g.InDegree(NodeID(v)))
		}
		if outSum != g.NumEdges() || inSum != g.NumEdges() {
			return false
		}
		// Every input edge must be findable.
		for _, e := range edges {
			if !g.HasEdge(e.Src, e.Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: reverse CSR is the exact transpose (same edge multiset).
func TestTransposeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(30)
		m := rng.Intn(120)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
		}
		g := FromEdges(n, edges)
		type pair struct{ a, b NodeID }
		fwd := map[pair]int{}
		for v := NodeID(0); int(v) < n; v++ {
			for _, d := range g.OutNbrs(v) {
				fwd[pair{v, d}]++
			}
		}
		rev := map[pair]int{}
		for v := NodeID(0); int(v) < n; v++ {
			for _, s := range g.InNbrs(v) {
				rev[pair{s, v}]++
			}
		}
		if !reflect.DeepEqual(fwd, rev) {
			t.Fatalf("trial %d: transpose mismatch", trial)
		}
	}
}

// skewedGraph builds a preferential-attachment-flavored random graph
// that deliberately includes self-loops and parallel edges, the cases a
// reverse-CSR implementation is most likely to mishandle.
func skewedGraph(rng *rand.Rand, n, m int) (*Directed, []Edge) {
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		src := NodeID(rng.Intn(n))
		var dst NodeID
		switch rng.Intn(10) {
		case 0: // self-loop
			dst = src
		case 1, 2, 3: // hub destination: concentrates in-degree
			dst = NodeID(rng.Intn(1 + n/8))
		default:
			dst = NodeID(rng.Intn(n))
		}
		edges = append(edges, Edge{src, dst})
		if rng.Intn(6) == 0 { // parallel edge
			edges = append(edges, Edge{src, dst})
		}
	}
	return FromEdges(n, edges), edges
}

// Satellite: the reverse CSR and the in-edge→out-edge index must
// round-trip against the forward CSR on skewed graphs with self-loops
// and parallel edges: every in-edge position of v maps to a distinct
// out-edge whose destination is v, every out-edge appears exactly once
// across all in-lists, and in-lists are in canonical ascending
// (source, out-edge-index) order.
func TestReverseCSRRoundTripSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		m := rng.Intn(400)
		g, _ := skewedGraph(rng, n, m)
		seen := make([]bool, g.NumEdges())
		for v := NodeID(0); int(v) < n; v++ {
			srcs := g.InNbrs(v)
			idxs := g.InEdgeIndices(v)
			if len(srcs) != len(idxs) || len(srcs) != g.InDegree(v) {
				t.Fatalf("trial %d v=%d: len(srcs)=%d len(idxs)=%d InDegree=%d",
					trial, v, len(srcs), len(idxs), g.InDegree(v))
			}
			prev := int64(-1)
			for i, e := range idxs {
				if e <= prev {
					t.Fatalf("trial %d v=%d: in-edge indices not strictly ascending: %v", trial, v, idxs)
				}
				prev = e
				if seen[e] {
					t.Fatalf("trial %d v=%d: out-edge %d appears in two in-lists", trial, v, e)
				}
				seen[e] = true
				if g.OutDst[e] != v {
					t.Fatalf("trial %d v=%d: OutDst[%d]=%d, want %d", trial, v, e, g.OutDst[e], v)
				}
				lo, hi := g.OutEdgeRange(srcs[i])
				if e < lo || e >= hi {
					t.Fatalf("trial %d v=%d: edge %d outside source %d's range [%d,%d)",
						trial, v, e, srcs[i], lo, hi)
				}
			}
			// Ascending edge index implies ascending source (edges are
			// grouped by source), so srcs must be sorted too.
			if !sort.SliceIsSorted(srcs, func(i, j int) bool { return srcs[i] < srcs[j] }) {
				t.Fatalf("trial %d v=%d: in-neighbors not sorted: %v", trial, v, srcs)
			}
		}
		for e, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: out-edge %d missing from every in-list", trial, e)
			}
		}
	}
}

// Satellite: concurrent first readers of the lazily built reverse CSR
// must not race (run under -race). Before the sync.Once guard, the
// mutate-on-demand buildIn raced when worker goroutines touched
// InNbrs/InDegree/InEdgeIndices simultaneously.
func TestLazyReverseCSRConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		n := 64 + rng.Intn(64)
		g, _ := skewedGraph(rng, n, 300)
		procs := runtime.GOMAXPROCS(0)
		if procs < 4 {
			procs = 4
		}
		var start, done sync.WaitGroup
		start.Add(1)
		sums := make([]int64, procs)
		for p := 0; p < procs; p++ {
			done.Add(1)
			go func(p int) {
				defer done.Done()
				start.Wait() // maximize the chance all goroutines hit the build together
				var sum int64
				for v := NodeID(0); int(v) < n; v++ {
					sum += int64(g.InDegree(v))
					for i, s := range g.InNbrs(v) {
						sum += int64(s) + g.InEdgeIndices(v)[i]
					}
				}
				sums[p] = sum
			}(p)
		}
		start.Done()
		done.Wait()
		for p := 1; p < procs; p++ {
			if sums[p] != sums[0] {
				t.Fatalf("trial %d: goroutine %d read a different reverse CSR (%d vs %d)",
					trial, p, sums[p], sums[0])
			}
		}
	}
}

// Derived builds once per graph and key, however many goroutines ask
// first, and shares the value with every later call; another key, or
// another graph, gets its own build.
func TestDerivedBuildsOncePerKey(t *testing.T) {
	type key struct{ w int }
	g, h := FromEdges(3, []Edge{{0, 1}, {1, 2}}), FromEdges(3, []Edge{{0, 1}})
	var builds sync.Map // key → build count
	get := func(g *Directed, k key) *int {
		return g.Derived(k, func() any {
			n, _ := builds.LoadOrStore(fmt.Sprint(g.NumEdges(), k), new(int))
			*n.(*int)++
			return new(int)
		}).(*int)
	}
	const procs = 8
	var start, done sync.WaitGroup
	start.Add(1)
	got := make([]*int, procs)
	for p := range procs {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[p] = get(g, key{2})
		}()
	}
	start.Done()
	done.Wait()
	for p := range procs {
		if got[p] != got[0] {
			t.Fatalf("goroutine %d got another value than goroutine 0", p)
		}
	}
	if get(g, key{2}) != got[0] {
		t.Error("a later call rebuilt the value")
	}
	if get(g, key{3}) == got[0] || get(h, key{2}) == got[0] {
		t.Error("another key or graph shared the value")
	}
	builds.Range(func(k, n any) bool {
		if *n.(*int) != 1 {
			t.Errorf("%v built %d times, want once", k, *n.(*int))
		}
		return true
	})
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 3}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.OutStart, g2.OutStart) || !reflect.DeepEqual(g.OutDst, g2.OutDst) {
		t.Error("round trip changed the graph")
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	g, err := ReadEdgeList(bytes.NewBufferString("0 1\n1 2\n\n# comment\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Errorf("got (%d,%d), want (3,3)", g.NumNodes(), g.NumEdges())
	}
}

// badEdgeLists are inputs ReadEdgeList must reject; FuzzReadEdgeList
// seeds its corpus from them.
var badEdgeLists = []string{
	"0\n", "a b\n", "0 x\n", "# nodes 2 edges 1\n0 5\n",
	"-1 3\n", "# nodes 3 edges -1\n", "# nodes 3 edges 4000000000000000000\n",
	"0 1\n2 -7\n", "# nodes -3 edges 0\n", "# nodes 9000000000 edges 0\n",
	"# nodes 3 edges 2\n0 1\n",
	// Node counts above MaxNodes, declared and implied: a node-sized
	// allocation of either is a fatal out-of-memory, not a panic.
	"# nodes 2147483647 edges 0\n", "0 2147483646\n",
}

func TestReadEdgeListErrors(t *testing.T) {
	// Hostile input must come back as an error: no range panic in
	// FromEdges, no allocation sized by what the header claims.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, bad := range badEdgeLists {
		if _, err := ReadEdgeList(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("input %q: want error, got nil", bad)
		}
	}
	runtime.ReadMemStats(&after)
	// Each call owns a 1 MiB scanner buffer; the header's edge count must
	// add at most the capped hint on top.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("rejecting %d small inputs allocated %d bytes", len(badEdgeLists), grew)
	}
	// A refused node count names the line that claimed it.
	for _, bad := range []string{"# nodes 2147483647 edges 0\n", "0 1\n0 2147483646\n"} {
		want := fmt.Sprintf("line %d:", strings.Count(bad, "\n"))
		if _, err := ReadEdgeList(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("input %q: error %v does not name %q", bad, err, want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 2}})
	st := ComputeStats(g)
	if st.Nodes != 4 || st.Edges != 3 || st.MaxOutDeg != 2 || st.MinOutDeg != 0 || st.Isolated != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.AvgOutDeg != 0.75 {
		t.Errorf("avg = %v, want 0.75", st.AvgOutDeg)
	}
}
