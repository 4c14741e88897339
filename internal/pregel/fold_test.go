package pregel

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// foldJob is the delivery-fold subject: a float sum (type 0) and an int
// min (type 1), both foldable, next to an unfolded two-slot type (2), so
// records are 24 bytes and folded messages land in scratch that a wider
// message dirtied. Both foldable types are broadcast to the
// out-neighbours and also sent point to point, some of the sums on
// either side of the broadcast. Every vertex votes to halt each
// superstep, so only delivered messages — folded ones included — bring
// it back. folds is each type's MessageType.Fold; with it nil the same
// handlers see every message one by one. perEdge replaces every SendToAllNbrs
// with a loop of Send over the out-neighbours. flen and ilen, when set,
// are edge columns for types 0 and 1: a broadcast of the type declares
// its column (MessageType.EdgeAdd), and its per-edge twin sends the payload
// plus the edge's value. dense replaces the sending: every vertex with
// an out-edge broadcasts both foldable types every superstep, nothing
// else is sent and nothing halts, so the engine may pull the folded
// ones, unless spoil breaks that rule at vertex spoilV (and skipV).
// spoilAgain also applies to the sparse sending, at every vertex.
// pulls is the engine's count of pulled (superstep, type) pairs after a
// run, and a dense job's master records it at every superstep in trace.
type foldJob struct {
	folds   []*AggOp
	perEdge bool
	flen    []float64
	ilen    []int64
	steps   int
	rank    []float64
	label   []int64
	isum    []int64
	bad     []bool // Messages() broke the folded-first order or carried a stray slot
	dense   bool
	spoil   spoilKind
	spoilV  graph.NodeID
	skipV   graph.NodeID
	pulls   int64
	trace   []int64
}

// spoilKind is how a dense foldJob breaks the pull rule at one vertex
// with out-edges, every superstep.
type spoilKind int

const (
	spoilNone  spoilKind = iota
	spoilSkip            // the vertex sends nothing
	spoilTwice           // it broadcasts each type twice, the same payload
	spoilSend            // it also sends each type to one out-neighbour
	spoilSwap            // it broadcasts twice and skipV not at all: the count adds up
	spoilAgain           // it follows each broadcast with one of another payload
)

// sumFold folds foldJob's float type 0, minFold its int type 1.
var (
	sumFold   = foldOp(AggSum)
	minFold   = foldOp(AggMin)
	bothFolds = []*AggOp{sumFold, minFold, nil}
)

// foldOp is a MessageType.Fold of op.
func foldOp(op AggOp) *AggOp { return &op }

// newFoldJob returns a foldJob that folds both foldable types, or none.
func newFoldJob(n, steps int, fold bool) *foldJob {
	j := &foldJob{steps: steps, rank: make([]float64, n), label: make([]int64, n),
		isum: make([]int64, n), bad: make([]bool, n)}
	if fold {
		j.folds = bothFolds
	}
	return j
}

func (j *foldJob) outputs() any { return [4]any{j.rank, j.label, j.isum, j.bad} }

func (j *foldJob) Schema() Schema {
	s := Schema{Messages: []MessageType{
		{Fields: []AggKind{AggKindFloat}},
		{Fields: []AggKind{AggKindInt}},
		{Fields: []AggKind{AggKindNode, AggKindInt}},
	}}
	for t, f := range j.folds {
		s.Messages[t].Fold = f
	}
	if !j.perEdge && j.flen != nil {
		s.Messages[0].EdgeAdd = j.flen
	}
	if !j.perEdge && j.ilen != nil {
		s.Messages[1].EdgeAdd = j.ilen
	}
	return s
}

func (j *foldJob) MasterCompute(mc *MasterContext) {
	if j.dense {
		j.trace = append(j.trace, mc.e.pulls)
	}
	if mc.Superstep() >= j.steps {
		mc.Halt()
	}
}

func (j *foldJob) VertexCompute(vc *VertexContext) {
	v, step, n := vc.ID(), vc.Superstep(), vc.NumNodes()
	changed := step == 0
	if changed {
		j.label[v] = int64(v)
	}
	sum, lead := 0.0, 0
	msgs := vc.Messages()
	for i, m := range msgs {
		if j.folds != nil && j.folds[m.Type] != nil {
			// Folded messages come first, at most one per type, in type
			// order, addressed to v and with nothing beyond their one slot.
			if i != lead || i > 0 && msgs[i-1].Type >= m.Type || m.V[1]|m.V[2]|m.V[3] != 0 || m.Dst != v {
				j.bad[v] = true
			}
			lead++
		}
		switch m.Type {
		case 0:
			sum += m.Float(0)
		case 1:
			if m.Int(0) < j.label[v] {
				j.label[v], changed = m.Int(0), true
			}
		case 2:
			j.isum[v] += int64(m.Node(0)) * m.Int(1)
		}
	}
	// The rank keeps its past (a halted vertex's sums are not lost when
	// it next wakes without one), so every sum ever folded reaches the
	// output.
	j.rank[v] = 0.15/float64(n) + 0.85*(sum+j.rank[v])
	if j.dense {
		j.denseSends(vc)
		return
	}
	if d := vc.OutDegree(); step%2 == 0 && d > 0 {
		var m Msg
		// The 1/(v+1) term varies the mantissas, so that a sum folded
		// out of order would round differently.
		m.SetFloat(0, j.rank[v]/float64(d)+1/float64(v+1))
		if v%4 == 1 {
			vc.Send(graph.NodeID((int(v)*3+2)%n), m)
		}
		j.sendToAllNbrs(vc, m)
		if v%3 == 1 {
			vc.Send(vc.OutNbrs()[d-1], m)
		}
	}
	if changed {
		m := Msg{Type: 1}
		m.SetInt(0, j.label[v])
		j.sendToAllNbrs(vc, m)
		vc.Send(graph.NodeID((int(v)*5+1)%n), m)
	}
	if v%3 == 0 {
		m := Msg{Type: 2}
		m.SetNode(0, v)
		m.SetInt(1, int64(step)+1)
		vc.Send(graph.NodeID((int(v)*7+3)%n), m)
	}
	vc.VoteToHalt()
}

// denseSends is the dense job's sending: both foldable types broadcast
// from every vertex with an out-edge, as spoil allows.
func (j *foldJob) denseSends(vc *VertexContext) {
	v, d := vc.ID(), vc.OutDegree()
	if d == 0 || v == j.spoilV && j.spoil == spoilSkip || v == j.skipV && j.spoil == spoilSwap {
		return
	}
	var sum Msg
	sum.SetFloat(0, j.rank[v]/float64(d)+1/float64(v+1))
	label := Msg{Type: 1}
	label.SetInt(0, j.label[v])
	for range 1 + btoi(v == j.spoilV && (j.spoil == spoilTwice || j.spoil == spoilSwap)) {
		j.sendToAllNbrs(vc, sum)
		j.sendToAllNbrs(vc, label)
	}
	if v == j.spoilV && j.spoil == spoilSend {
		vc.Send(vc.OutNbrs()[0], sum)
		vc.Send(vc.OutNbrs()[0], label)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sendToAllNbrs sends m to every out-neighbour (broadcast), and under
// spoilAgain then sends m's type once more with another payload (again)
// from spoilV — from every vertex when the job is not dense.
func (j *foldJob) sendToAllNbrs(vc *VertexContext, m Msg) {
	j.broadcast(vc, m)
	if j.spoil == spoilAgain && (!j.dense || vc.ID() == j.spoilV) {
		j.broadcast(vc, again(m))
	}
}

// broadcast sends m to every out-neighbour: by SendToAllNbrs, or under
// perEdge by its per-edge twin, which adds the type's edge column
// itself.
func (j *foldJob) broadcast(vc *VertexContext, m Msg) {
	if !j.perEdge {
		vc.SendToAllNbrs(m)
		return
	}
	lo, _ := vc.OutEdgeRange()
	for k, u := range vc.OutNbrs() {
		e, me := lo+int64(k), m
		switch {
		case m.Type == 0 && j.flen != nil:
			me.SetFloat(0, m.Float(0)+j.flen[e])
		case m.Type == 1 && j.ilen != nil:
			me.SetInt(0, m.Int(0)+j.ilen[e])
		}
		vc.Send(u, me)
	}
}

// again is the second payload a spoilAgain broadcast of m's type
// carries: one that changes both the float sum's bits and the int min.
func again(m Msg) Msg {
	if m.Type == 0 {
		m.SetFloat(0, m.Float(0)/3-0.7)
	} else {
		m.SetInt(0, m.Int(0)-3)
	}
	return m
}

func (j *foldJob) SnapshotState() []byte {
	b := make([]byte, 0, 17*len(j.rank))
	for v := range j.rank {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(j.rank[v]))
		b = binary.LittleEndian.AppendUint64(b, uint64(j.label[v]))
		b = binary.LittleEndian.AppendUint64(b, uint64(j.isum[v]))
	}
	return b
}

func (j *foldJob) RestoreState(b []byte) {
	for v := range j.rank {
		j.rank[v] = math.Float64frombits(binary.LittleEndian.Uint64(b[24*v:]))
		j.label[v] = int64(binary.LittleEndian.Uint64(b[24*v+8:]))
		j.isum[v] = int64(binary.LittleEndian.Uint64(b[24*v+16:]))
	}
}

// Declaring the folds changes what is delivered, never what is computed
// or billed: at every point of the schedule lattice the folded job ends
// with the outputs and Stats (per-step trace included) of the same job
// whose handlers see every message, bit for bit — its float sum starts
// at zero and its min is exact — and every vertex saw its folded
// messages first, in type order, with no stray slots. The folded job
// runs broadcasting, which takes the broadcast loop, and per edge, which
// takes the per-edge one, folding the sum alone, the min alone or both.
func TestFoldDeliveryMatchesHandlerAcrossLattice(t *testing.T) {
	const n = 53
	g := gen.TwitterLike(n, 5, 13)
	variants := []struct {
		name  string
		folds []*AggOp
	}{
		{"both", bothFolds},
		{"sum", []*AggOp{sumFold, nil, nil}},
		{"min", []*AggOp{nil, minFold, nil}},
	}
	for _, group := range scheduleGroups(Config{Seed: 21, TraceSteps: true}) {
		for _, cfg := range group {
			run := func(folds []*AggOp, perEdge bool) (*foldJob, Stats) {
				j := newFoldJob(n, 8, false)
				j.folds, j.perEdge = folds, perEdge
				st, err := Run(g, j, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return j, st
			}
			plain, pst := run(nil, false)
			for _, vr := range variants {
				for _, perEdge := range []bool{false, true} {
					folded, fst := run(vr.folds, perEdge)
					name := fmt.Sprintf("%s/%s/perEdge=%v", scheduleName(cfg), vr.name, perEdge)
					if !reflect.DeepEqual(folded.outputs(), plain.outputs()) {
						t.Errorf("%s: folded outputs differ from the handler's", name)
					}
					if !reflect.DeepEqual(fst, pst) {
						t.Errorf("%s: folded Stats differ:\nfolded: %+v\nplain:  %+v", name, fst, pst)
					}
					for v, bad := range folded.bad {
						if bad {
							t.Fatalf("%s: vertex %d saw Messages() out of the folded-first order", name, v)
						}
					}
				}
			}
		}
	}
}

// edgeCaseGraph has a vertex whose out-neighbours all live on the other
// worker at W=2 under either partitioner (0 under mod, 15 under
// degree), self-loops (one doubled), parallel edges, a hub, and
// isolated vertices (9, 10) beside a sink that only receives (11).
func edgeCaseGraph() *graph.Directed {
	var edges []graph.Edge
	add := func(src graph.NodeID, dsts ...graph.NodeID) {
		for _, d := range dsts {
			edges = append(edges, graph.Edge{Src: src, Dst: d})
		}
	}
	add(0, 1, 3, 5, 7)
	add(15, 0, 1, 2)
	add(2, 2)
	add(4, 4, 4, 5)
	add(6, 8, 8, 8)
	add(8, 6)
	add(12, 11, 13)
	add(14, 0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 15)
	return graph.FromEdges(16, edges)
}

// inSkewedGraph is an n-vertex graph whose in-edges land mostly on one
// worker at W=2 under either partitioner: every vertex sends four edges
// among the low even ids [0, n/2) — worker 0's under mod placement, and
// under degree placement too, which balances out-degrees, all equal
// here — and one to its successor, so worker 0's fold expands most of
// the broadcast edges.
func inSkewedGraph(n int) *graph.Directed {
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		for j := 0; j < 4; j++ {
			edges = append(edges, graph.Edge{Src: graph.NodeID(v), Dst: graph.NodeID(2 * ((3*v + 7*j) % (n / 4)))})
		}
		edges = append(edges, graph.Edge{Src: graph.NodeID(v), Dst: graph.NodeID((v + 1) % n)})
	}
	return graph.FromEdges(n, edges)
}

// runFoldTwin runs foldJob with folds, broadcasting or per edge, dense
// or not, spoiled at g's first sender, and reports whether the engine
// fetched its broadcast index.
func runFoldTwin(t *testing.T, g *graph.Directed, folds []*AggOp, perEdge, dense bool, spoil spoilKind, cfg Config) (*foldJob, Stats, bool) {
	j := newFoldJob(g.NumNodes(), 8, false)
	j.folds, j.perEdge, j.dense, j.spoil, j.spoilV = folds, perEdge, dense, spoil, firstSender(g)
	st, built := runFoldJob(t, g, j, cfg)
	return j, st, built
}

// firstSender is g's lowest vertex with an out-edge, or 0 if none has.
func firstSender(g *graph.Directed) graph.NodeID {
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.OutDegree(v) > 0 {
			return v
		}
	}
	return 0
}

// runFoldJob runs j, records the engine's pulls on it, and reports
// whether the engine fetched its broadcast index.
func runFoldJob(t *testing.T, g *graph.Directed, j *foldJob, cfg Config) (Stats, bool) {
	t.Helper()
	e := newEngine(g, j, cfg.withDefaults())
	defer e.stop()
	if err := e.loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	j.pulls = e.pulls
	return e.stats, e.nbrs != nil
}

// foldedOf counts the foldable types (0 and 1) folds folds.
func foldedOf(folds []*AggOp) int64 {
	return int64(btoi(folds[0] != nil) + btoi(folds[1] != nil))
}

// checkDensePulls fails unless the dense broadcasting job j, run
// without faults (TestPullRuleDenseOnly covers replays), pulled each of
// its folded types in each of its supersteps — or, spoiled, none.
func checkDensePulls(t *testing.T, name string, g *graph.Directed, j *foldJob, folded int64, cfg Config) {
	t.Helper()
	want := int64(j.steps) * folded * int64(btoi(j.spoil == spoilNone))
	if len(cfg.Faults) == 0 && g.NumEdges() > 0 && j.pulls != want {
		t.Errorf("%s: the dense job pulled %d (superstep, type) pairs, want %d", name, j.pulls, want)
	}
}

// A folded SendToAllNbrs writes one broadcast record per destination
// worker where its per-edge twin writes one record per edge, and nothing
// observable may tell them apart: at every point of the schedule
// lattice, under both partitioners, on a random graph, on one built of
// edge cases, on one whose in-edges land mostly on one worker, and on
// the empty graph, the broadcasting
// job ends with the outputs and the Stats (per-step trace included) of
// the twin that loops Send over OutNbrs, bit for bit — folding the float
// sum alone, the int min alone, or both. The job interleaves point-to-point sends
// of the summed type with its broadcasts, so a broadcast expanded out of
// its place in the fold order would change the sums' bits. Crash runs
// roll back across the superstep that built the index: from a crash in
// superstep 0 itself, which built it, and from one in superstep 3. The
// dense variant sends nothing but broadcasts, from every vertex with an
// out-edge, so each superstep's folded types take the pull fold, and
// still ends bit for bit with the twin. In the again variant each
// broadcast is followed by a second of its type with another payload —
// from every vertex, and dense from the first sender, which spoils the
// pull — so both payloads of a vertex's two broadcasts must reach the
// fold, as the broadcast record, not the value column, carries them.
func TestFoldBroadcastMatchesPerEdgeAcrossLattice(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Directed
	}{
		{"twitter", gen.TwitterLike(53, 5, 13)},
		{"edge-cases", edgeCaseGraph()},
		{"in-skewed", inSkewedGraph(96)},
		{"empty", graph.FromEdges(0, nil)},
	}
	variants := []struct {
		name  string
		folds []*AggOp
		spoil spoilKind
	}{
		{"both", bothFolds, spoilNone},
		{"sum", []*AggOp{sumFold, nil, nil}, spoilNone},
		{"min", []*AggOp{nil, minFold, nil}, spoilNone},
		{"both/again", bothFolds, spoilAgain},
	}
	check := func(name string, g *graph.Directed, folds []*AggOp, dense bool, spoil spoilKind, cfg Config) {
		perEdge, pst, built := runFoldTwin(t, g, folds, true, dense, spoil, cfg)
		if pst.Recoveries != len(cfg.Faults) {
			t.Errorf("%s: %d recoveries, want %d", name, pst.Recoveries, len(cfg.Faults))
		}
		if built {
			t.Errorf("%s: the per-edge twin built a broadcast index", name)
		}
		bcast, bst, built := runFoldTwin(t, g, folds, false, dense, spoil, cfg)
		if !built && g.NumEdges() > 0 {
			t.Errorf("%s: the broadcasting job never built its index", name)
		}
		if perEdge.pulls != 0 {
			t.Errorf("%s: the per-edge twin pulled", name)
		}
		if dense {
			checkDensePulls(t, name, g, bcast, foldedOf(folds), cfg)
		}
		if !reflect.DeepEqual(bcast.outputs(), perEdge.outputs()) {
			t.Errorf("%s: broadcast outputs differ from the per-edge twin's", name)
		}
		if !reflect.DeepEqual(bst, pst) {
			t.Errorf("%s: broadcast Stats differ:\nbroadcast: %+v\nper-edge:  %+v", name, bst, pst)
		}
	}
	for _, gr := range graphs {
		for _, group := range scheduleGroups(Config{Seed: 21, TraceSteps: true}) {
			for _, cfg := range group {
				for _, vr := range variants {
					for _, dense := range []bool{false, true} {
						check(fmt.Sprintf("%s/%s/%s/dense=%v", gr.name, scheduleName(cfg), vr.name, dense), gr.g, vr.folds, dense, vr.spoil, cfg)
					}
				}
			}
		}
		for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
			for _, crash := range []int{0, 3} {
				cfg := Config{NumWorkers: 2, Partitioner: part, ChunkSize: 4, Seed: 21, TraceSteps: true,
					Faults: FaultPlan{{Superstep: crash, Worker: 1}}}
				if gr.g.NumNodes() < 2 {
					continue
				}
				for _, dense := range []bool{false, true} {
					check(fmt.Sprintf("%s/crash@%d/%s/dense=%v", gr.name, crash, scheduleName(cfg), dense), gr.g, bothFolds, dense, spoilNone, cfg)
				}
			}
		}
	}
}

// edgeCols returns float and int edge columns for g that cycle through
// awkward lengths: negative ones, zeros, float magnitudes that swallow
// a payload, and int64 extremes whose sums with a label wrap.
func edgeCols(g *graph.Directed) ([]float64, []int64) {
	fl := []float64{0.5, -1.25, 0, 1e16, -1e16, 1.0 / 3, -0.1, 7}
	il := []int64{3, -2, 0, math.MaxInt64, 1, math.MinInt64, -7, math.MaxInt64 - 5, 11}
	flen, ilen := make([]float64, g.NumEdges()), make([]int64, g.NumEdges())
	for e := range flen {
		flen[e], ilen[e] = fl[e%len(fl)], il[e%len(il)]
	}
	return flen, ilen
}

// A folded type that declares an edge column broadcasts payload x as
// one record per destination worker, and the destination adds each
// edge's value as it expands the record; nothing observable may tell
// that from a job that loops Send(x + col[e]) over the out-edges. At
// every point of the schedule lattice, under both partitioners, on a
// random graph, on one built of edge cases (self-loops, parallel edges,
// vertices without out-edges, a vertex whose out-neighbours all live on
// the other worker), on one whose in-edges land mostly on one worker,
// and on the empty graph, the broadcasting
// job ends with the twin's outputs and Stats, per-step trace included,
// bit for bit: with a column on the float sum, on the int min, or on
// both. The
// lengths are negative, zero, and int64 extremes that wrap the labels,
// and float magnitudes that make the sums' bits depend on fold order.
// Crashes in superstep 0 and 3 roll back across the superstep that
// fetched the index. The dense variant sends nothing but broadcasts,
// from every vertex with an out-edge, so each superstep pulls both
// folded types, adding each in-edge's value, and still ends bit for bit
// with the twin; so does the again variant, whose broadcasts are each
// followed by a second with another payload.
func TestFoldEdgeAddMatchesPerEdgeAcrossLattice(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Directed
	}{
		{"twitter", gen.TwitterLike(53, 5, 13)},
		{"edge-cases", edgeCaseGraph()},
		{"in-skewed", inSkewedGraph(96)},
		{"empty", graph.FromEdges(0, nil)},
	}
	variants := []struct {
		name        string
		float, ints bool
		spoil       spoilKind
	}{
		{"both", true, true, spoilNone},
		{"float-sum", true, false, spoilNone},
		{"int-min", false, true, spoilNone},
		{"both/again", true, true, spoilAgain},
	}
	check := func(name string, g *graph.Directed, float, ints, dense bool, spoil spoilKind, cfg Config) {
		flen, ilen := edgeCols(g)
		job := func(perEdge bool) *foldJob {
			j := newFoldJob(g.NumNodes(), 8, true)
			j.perEdge, j.dense, j.spoil, j.spoilV = perEdge, dense, spoil, firstSender(g)
			if float {
				j.flen = flen
			}
			if ints {
				j.ilen = ilen
			}
			return j
		}
		perEdge, bcast := job(true), job(false)
		pst, _ := runFoldJob(t, g, perEdge, cfg)
		bst, built := runFoldJob(t, g, bcast, cfg)
		if !built && g.NumEdges() > 0 {
			t.Errorf("%s: the broadcasting job never fetched its index", name)
		}
		if dense {
			checkDensePulls(t, name, g, bcast, 2, cfg)
		}
		if pst.Recoveries != len(cfg.Faults) {
			t.Errorf("%s: %d recoveries, want %d", name, pst.Recoveries, len(cfg.Faults))
		}
		if !reflect.DeepEqual(bcast.outputs(), perEdge.outputs()) {
			t.Errorf("%s: edge-valued broadcast outputs differ from the per-edge twin's", name)
		}
		if !reflect.DeepEqual(bst, pst) {
			t.Errorf("%s: edge-valued broadcast Stats differ:\nbroadcast: %+v\nper-edge:  %+v", name, bst, pst)
		}
	}
	for _, gr := range graphs {
		for _, group := range scheduleGroups(Config{Seed: 21, TraceSteps: true}) {
			for _, cfg := range group {
				for _, vr := range variants {
					for _, dense := range []bool{false, true} {
						check(fmt.Sprintf("%s/%s/%s/dense=%v", gr.name, scheduleName(cfg), vr.name, dense), gr.g, vr.float, vr.ints, dense, vr.spoil, cfg)
					}
				}
			}
		}
		if gr.g.NumNodes() < 2 {
			continue
		}
		for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
			for _, crash := range []int{0, 3} {
				cfg := Config{NumWorkers: 2, Partitioner: part, ChunkSize: 4, Seed: 21, TraceSteps: true,
					Faults: FaultPlan{{Superstep: crash, Worker: 1}}}
				for _, dense := range []bool{false, true} {
					check(fmt.Sprintf("%s/crash@%d/%s/dense=%v", gr.name, crash, scheduleName(cfg), dense), gr.g, true, true, dense, spoilNone, cfg)
				}
			}
		}
	}
}

// The pull rule: a dense job — every vertex with an out-edge broadcasts
// both folded types, nothing else is sent — pulls both in every
// superstep, at every worker count and under both partitioners. Broken
// at one vertex with out-edges in every superstep — it skips its
// broadcasts, broadcasts twice (also while another skips, so only its
// stamp tells), broadcasts twice with different payloads, or also sends
// both types point to point — it pulls nothing. A crash in superstep 3 that rolls the dense job back to a
// checkpoint at 3 replays it over the stamps its first attempt left, so
// the replay pushes: a stale stamp spoils the rule and never stands for
// a fresh value. Rolled back to the initial checkpoint instead, the job
// replays 0-3 after superstep 2's stamps, and each replay, which
// rewrites every value, pulls. Every run ends with its per-edge twin's
// outputs and Stats, bit for bit.
func TestPullRuleDenseOnly(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Directed
	}{
		{"twitter", gen.TwitterLike(53, 5, 13)},
		{"edge-cases", edgeCaseGraph()},
		{"in-skewed", inSkewedGraph(96)},
	}
	type attempt struct {
		name   string
		spoil  spoilKind
		faults FaultPlan
		every  int     // CheckpointEvery
		want   []int64 // pulls per routing, in master-call order
	}
	const steps = 8
	per := func(n int64, k int) []int64 {
		r := make([]int64, k)
		for i := range r {
			r[i] = n
		}
		return r
	}
	attempts := []attempt{
		{"dense", spoilNone, nil, 0, per(2, steps)},
		{"skip", spoilSkip, nil, 0, per(0, steps)},
		{"twice", spoilTwice, nil, 0, per(0, steps)},
		{"send", spoilSend, nil, 0, per(0, steps)},
		{"swap", spoilSwap, nil, 0, per(0, steps)},
		{"again", spoilAgain, nil, 0, per(0, steps)},
		{"crash@3/checkpoint@3", spoilNone, FaultPlan{{Superstep: 3, Worker: 1}}, 1,
			slices.Concat(per(2, 3), per(0, 1), per(0, 1), per(2, steps-4))},
		{"crash@3/checkpoint@0", spoilNone, FaultPlan{{Superstep: 3, Worker: 1}}, 0,
			slices.Concat(per(2, 3), per(0, 1), per(2, 4), per(2, steps-4))},
	}
	for _, gr := range graphs {
		spoilV, skipV := graph.NodeID(0), graph.NodeID(gr.g.NumNodes()-1)
		for gr.g.OutDegree(spoilV) == 0 {
			spoilV++
		}
		for gr.g.OutDegree(skipV) == 0 {
			skipV--
		}
		for _, w := range []int{1, 2, 3} {
			for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
				for _, at := range attempts {
					cfg := Config{NumWorkers: w, Partitioner: part, ChunkSize: 4, Seed: 21, TraceSteps: true,
						Faults: at.faults, CheckpointEvery: at.every}
					name := fmt.Sprintf("%s/%s/%s", gr.name, scheduleName(cfg), at.name)
					run := func(perEdge bool) (*foldJob, Stats) {
						j := newFoldJob(gr.g.NumNodes(), steps, true)
						j.perEdge, j.dense, j.spoil, j.spoilV, j.skipV = perEdge, true, at.spoil, spoilV, skipV
						st, _ := runFoldJob(t, gr.g, j, cfg)
						return j, st
					}
					twin, tst := run(true)
					bcast, bst := run(false)
					var got []int64
					for k := 1; k < len(bcast.trace); k++ {
						got = append(got, bcast.trace[k]-bcast.trace[k-1])
					}
					if !reflect.DeepEqual(got, at.want) {
						t.Errorf("%s: pulls per routing %v, want %v", name, got, at.want)
					}
					if twin.pulls != 0 {
						t.Errorf("%s: the per-edge twin pulled %d times", name, twin.pulls)
					}
					if !reflect.DeepEqual(bcast.outputs(), twin.outputs()) {
						t.Errorf("%s: outputs differ from the per-edge twin's", name)
					}
					if !reflect.DeepEqual(bst, tst) {
						t.Errorf("%s: Stats differ:\nbroadcast: %+v\nper-edge:  %+v", name, bst, tst)
					}
				}
			}
		}
	}
}

// An edge column the engine cannot add exactly is refused before
// superstep 0 with a schema diagnostic naming the message type: one on
// an unfolded type, one whose length is not the graph's edge count, one
// whose kind is not its fold's, one on a Node or Bool fold, and one of a
// type the engine does not read.
func TestFoldEdgeAddSchemaFailsClosed(t *testing.T) {
	g := gen.Ring(6)
	ints, floats := make([]int64, g.NumEdges()), make([]float64, g.NumEdges())
	// folded declares one type of kind, folded by op, with column col.
	folded := func(kind AggKind, op AggOp, col any) MessageType {
		return MessageType{Fields: []AggKind{kind}, Fold: &op, EdgeAdd: col}
	}
	one := func(m MessageType) Schema { return Schema{Messages: []MessageType{m}} }
	for _, tc := range []struct {
		name   string
		schema Schema
		text   string // besides "schema declares"
	}{
		{"unfolded type", Schema{Messages: []MessageType{folded(AggKindInt, AggMin, nil),
			{Fields: []AggKind{AggKindInt}, EdgeAdd: ints}}}, "type 1, which is not folded"},
		{"short column", one(folded(AggKindInt, AggMin, ints[1:])), "graph has 6 edges"},
		{"long column", one(folded(AggKindFloat, AggSum, append(floats, 1))), "graph has 6 edges"},
		{"int column on a float fold", one(folded(AggKindFloat, AggSum, ints)), "int edge column for message type 0"},
		{"float column on an int fold", one(folded(AggKindInt, AggMin, floats)), "float edge column for message type 0"},
		{"node fold", one(folded(AggKindNode, AggMin, ints)), "over node"},
		{"bool fold", one(folded(AggKindBool, AggOr, ints)), "over bool"},
		{"unsupported column type", one(folded(AggKindInt, AggMin, make([]int32, g.NumEdges()))), "[]int32"},
	} {
		j := &sendJob{schema: tc.schema, build: func(graph.NodeID) Msg { return Msg{} }, toNbrs: true}
		st, err := Run(g, j, Config{NumWorkers: 2})
		if err == nil || !strings.Contains(err.Error(), "schema declares") || !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%s: err = %v, want a schema diagnostic mentioning %q", tc.name, err, tc.text)
		}
		if st.Supersteps != 0 || st.VertexCalls != 0 {
			t.Errorf("%s: ran %d supersteps, %d vertex calls", tc.name, st.Supersteps, st.VertexCalls)
		}
	}
}

// foldBitsJob sends its payloads, in order, from vertex 0 to vertex 1 in
// superstep 0 as one folded type, and records what vertex 1 is
// delivered in superstep 1.
type foldBitsJob struct {
	fold     Fold
	payloads []uint64
	got      []Msg
}

func (j *foldBitsJob) Schema() Schema {
	return Schema{Messages: []MessageType{{Fields: []AggKind{j.fold.Kind}, Fold: &j.fold.Op}}}
}

func (j *foldBitsJob) MasterCompute(mc *MasterContext) {}

func (j *foldBitsJob) VertexCompute(vc *VertexContext) {
	switch {
	case vc.Superstep() == 0 && vc.ID() == 0:
		for _, p := range j.payloads {
			vc.Send(1, Msg{V: [MaxPayloadSlots]uint64{p}})
		}
	case vc.Superstep() == 1:
		j.got = append(j.got, vc.Messages()...)
	}
	vc.VoteToHalt()
}

// The delivered payload of every (Op, Kind) fold is pinned bit for bit:
// it is the left fold of the payloads in emission order seeded with the
// first payload's raw bits — so a lone payload arrives untouched, never
// normalized (an Or of 5 stays 5) nor added to a zero (a −0 sum stays
// −0), a NaN keeps its payload bits, a float Min or Max drops a NaN for
// the first number after it, and a Node Min or Max compares NIL as −1.
func TestFoldDeliveredBitsPinned(t *testing.T) {
	f := math.Float64bits
	nan := uint64(0x7ff8dead0000beef)
	nil32 := uint64(math.MaxUint32) // graph.NilNode as Msg.SetNode stores it
	neg := func(x int64) uint64 { return uint64(x) }
	for _, tc := range []struct {
		op       AggOp
		kind     AggKind
		payloads []uint64
		want     uint64
	}{
		{AggOr, AggKindInt, []uint64{5}, 5},
		{AggAnd, AggKindInt, []uint64{5}, 5},
		{AggOr, AggKindInt, []uint64{5, 0}, 1},
		{AggAnd, AggKindInt, []uint64{5, 3}, 1},
		{AggAnd, AggKindInt, []uint64{5, 0, 7}, 0},
		{AggOr, AggKindBool, []uint64{0, 0}, 0},
		{AggAnd, AggKindBool, []uint64{1}, 1},
		{AggSum, AggKindInt, []uint64{3, neg(-5), 9}, 7},
		{AggMin, AggKindInt, []uint64{5, 9}, 5},
		{AggMin, AggKindInt, []uint64{4, neg(-2), 8}, neg(-2)},
		{AggMax, AggKindInt, []uint64{neg(-4), neg(-2), neg(-8)}, neg(-2)},
		{AggSum, AggKindFloat, []uint64{nan}, nan},
		{AggMin, AggKindFloat, []uint64{nan}, nan},
		{AggSum, AggKindFloat, []uint64{f(math.Copysign(0, -1))}, f(math.Copysign(0, -1))},
		{AggSum, AggKindFloat, []uint64{f(0.1), f(0.2), f(0.3)}, f(0.6000000000000001)}, // (0.1+0.2)+0.3 in float64
		{AggMin, AggKindFloat, []uint64{nan, f(3), f(1), f(2)}, f(1)},
		{AggMin, AggKindFloat, []uint64{f(3), nan, f(2)}, f(2)},
		{AggMax, AggKindFloat, []uint64{nan, f(-1), f(4)}, f(4)},
		{AggMin, AggKindNode, []uint64{3, nil32, 7}, nil32},
		{AggMin, AggKindNode, []uint64{nil32, 2}, nil32},
		{AggMax, AggKindNode, []uint64{nil32, 2}, 2},
	} {
		for _, w := range []int{1, 2} {
			name := fmt.Sprintf("%v/%v/%#x/W=%d", tc.op, tc.kind, tc.payloads, w)
			j := &foldBitsJob{fold: Fold{tc.op, tc.kind}, payloads: tc.payloads}
			if _, err := Run(gen.Ring(4), j, Config{NumWorkers: w, Seed: 1}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(j.got) != 1 || j.got[0].V[0] != tc.want {
				t.Errorf("%s: delivered %+v, want one message carrying %#x", name, j.got, tc.want)
			}
		}
	}
}

// Codec v6 carries each worker's present fold slots; decode restores
// them exactly (encode → decode → encode is a fixed point) and fails
// closed on a slot it cannot place.
func TestCheckpointFoldSlotsFailClosed(t *testing.T) {
	const n = 40
	g := gen.TwitterLike(n, 4, 6)
	j := newFoldJob(n, 8, true)
	e := newEngine(g, j, Config{NumWorkers: 1, Seed: 4}.withDefaults())
	defer e.stop()
	e.cfg.MaxSupersteps = 1 // stop at the barrier after superstep 0, its folds delivered
	if err := e.loop(context.Background()); err == nil {
		t.Fatal("want max-supersteps error, got nil")
	}
	slots := 0
	for _, s := range e.workers[0].folds {
		if s.stamp == e.foldEpoch {
			slots++
		}
	}
	if slots < 2 {
		t.Fatalf("%d fold slots present, want at least 2 to checkpoint", slots)
	}
	data := e.encodeState()
	if err := e.decodeState(data); err != nil {
		t.Fatalf("decode of freshly encoded state failed: %v", err)
	}
	if again := e.encodeState(); string(again) != string(data) {
		t.Error("encode→decode→encode is not a fixed point")
	}
	// With one worker the fold section ends the payload: a slot count,
	// then (local index u32, type u8, payload u64) per present slot.
	at := len(data) - frameTrailerBytes - slots*ckptFoldBytes - 4
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
		want   string
	}{
		{"local index out of range", func(b []byte) { binary.LittleEndian.PutUint32(b[at+4:], n) }, "out of range"},
		{"unfolded type", func(b []byte) { b[at+8] = 2 }, "not folded"},
		{"type beyond the schema", func(b []byte) { b[at+8] = 9 }, "not folded"},
		{"count overruns the frame", func(b []byte) { binary.LittleEndian.PutUint32(b[at:], 1<<30) }, "overrun"},
		{"slot listed twice", func(b []byte) { copy(b[at+4+ckptFoldBytes:], b[at+4:at+4+ckptFoldBytes]) }, "twice"},
	} {
		bad := append([]byte(nil), data...)
		tc.mutate(bad)
		payload := bad[frameHeaderBytes : len(bad)-frameTrailerBytes]
		binary.LittleEndian.PutUint64(bad[len(bad)-frameTrailerBytes:], fnv64a(payload))
		if err := e.decodeState(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	if err := e.decodeState(data); err != nil {
		t.Fatalf("pristine snapshot rejected after corrupt decodes: %v", err)
	}
	// Every vertex voted to halt; the frame records those a folded
	// message waits for active, as runChunk would make them, and a run
	// continued from the decoded state ends as the uninterrupted run
	// (messages wait at every barrier until the master halts the job).
	for step := 1; ; step++ {
		halted, fault, err := e.superstep(step)
		if fault != nil || err != nil {
			t.Fatalf("continued run, superstep %d: fault %v, err %v", step, fault, err)
		}
		if halted {
			break
		}
	}
	ref := newFoldJob(n, 8, true)
	want, err := Run(g, ref, Config{NumWorkers: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.stats, want) || !reflect.DeepEqual(j.outputs(), ref.outputs()) {
		t.Errorf("run continued from the decoded state: stats %+v, want %+v; outputs equal %v",
			e.stats, want, reflect.DeepEqual(j.outputs(), ref.outputs()))
	}
}

// A folded SendToAllNbrs writes exactly one broadcast record per
// (sender, destination worker owning any of its out-neighbours), in that
// worker's fold box, with no header bit above bcastBit: on the in-skewed
// graph at W=2, whose in-edges land mostly on one worker, under both
// partitioners and at several chunk sizes.
func TestFoldedBroadcastOneRecordPerDestinationWorker(t *testing.T) {
	const n = 96
	g := inSkewedGraph(n)
	for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
		for _, chunk := range []int{1, 4, 16} {
			cfg := Config{NumWorkers: 2, Partitioner: part, ChunkSize: chunk, Seed: 1}
			j := newPerfRankJob(n, 1)
			j.fold = true
			e := newEngine(g, j, cfg.withDefaults())
			e.runVertexPhase(0)
			e.stop()
			type rec struct {
				src graph.NodeID
				dw  int
			}
			want := map[rec]bool{}
			for v := graph.NodeID(0); int(v) < n; v++ {
				for _, u := range g.OutNbrs(v) {
					want[rec{v, e.workers[0].ownerOf(u)}] = true
				}
			}
			got := map[rec]int{}
			for _, wk := range e.workers {
				for ci := range wk.chunks {
					ck := &wk.chunks[ci]
					if len(ck.fboxes) != e.numWorkers {
						t.Fatalf("%s: a chunk has %d fold boxes for %d workers", scheduleName(cfg), len(ck.fboxes), e.numWorkers)
					}
					for dw, box := range ck.fboxes {
						for i := 0; i < len(box); i += foldStride {
							h := box[i]
							if h&bcastBit == 0 {
								t.Fatalf("%s: a per-edge record in a broadcast-only job's fold box", scheduleName(cfg))
							}
							if h >= bcastBit<<1 {
								t.Fatalf("%s: broadcast header %#x sets a bit above bcastBit", scheduleName(cfg), h)
							}
							got[rec{headerDst(h), dw}]++
						}
					}
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s: broadcast records reach %d (sender, worker) pairs, want %d", scheduleName(cfg), len(got), len(want))
			}
			for r, c := range got {
				if !want[r] {
					t.Errorf("%s: sender %d wrote to worker %d, which owns none of its out-neighbours", scheduleName(cfg), r.src, r.dw)
				} else if c != 1 {
					t.Errorf("%s: sender %d wrote %d records to worker %d, want 1", scheduleName(cfg), r.src, c, r.dw)
				}
			}
		}
	}
}
