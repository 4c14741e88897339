// Package manual contains hand-written Pregel implementations of the
// five algorithms the paper codes natively for GPS (its Table 2 right
// column): Average Teenage Followers, PageRank, Conductance, SSSP, and
// Random Bipartite Matching. (Approximate Betweenness Centrality has no
// manual implementation — the paper calls it prohibitively difficult.)
//
// These are the Figure 6 baselines. They are written the way a GPS
// programmer writes them, including the two hand-tunings the paper notes
// the compiler does not apply: execution state keyed off the superstep
// number instead of broadcast global objects, and voteToHalt() in SSSP
// so converged vertices are skipped. Message schemas intentionally match
// the compiler-generated programs so network I/O is comparable
// byte-for-byte.
package manual

import (
	"math"

	"gmpregel/internal/graph"
	"gmpregel/internal/pregel"
)

// AvgTeen is the manual Pregel job for Average Teenage Followers.
// Superstep 0: teenagers message their followees; superstep 1: count
// messages and contribute to the S/C aggregators; superstep 2 (master):
// finalize the average and halt.
type AvgTeen struct {
	K       int64
	Age     []int64
	TeenCnt []int64
	Avg     float64
}

// Schema declares one empty-payload message type and two sum
// aggregators.
func (j *AvgTeen) Schema() pregel.Schema {
	return pregel.Schema{
		MessagePayloadBytes: []int{0},
		MessageSlots:        []int{0},
		Aggregators: []pregel.AggSpec{
			{Name: "S", Kind: pregel.AggKindInt, Op: pregel.AggSum},
			{Name: "C", Kind: pregel.AggKindInt, Op: pregel.AggSum},
		},
	}
}

// MasterCompute finalizes on superstep 2.
func (j *AvgTeen) MasterCompute(mc *pregel.MasterContext) {
	if mc.Superstep() == 2 {
		s := mc.AggInt(0)
		c := mc.AggInt(1)
		if c == 0 {
			j.Avg = 0
		} else {
			j.Avg = float64(s) / float64(c)
		}
		mc.ReturnFloat(j.Avg)
		mc.Halt()
	}
}

// VertexCompute implements the two vertex-parallel phases.
func (j *AvgTeen) VertexCompute(vc *pregel.VertexContext) {
	v := vc.ID()
	switch vc.Superstep() {
	case 0:
		if j.Age[v] >= 13 && j.Age[v] <= 19 {
			vc.SendToAllNbrs(pregel.Msg{})
		}
	case 1:
		j.TeenCnt[v] = int64(len(vc.Messages()))
		if j.Age[v] > j.K {
			vc.AggInt(0, j.TeenCnt[v])
			vc.AggInt(1, 1)
		}
	}
}

// PageRank is the manual Pregel job for damped PageRank. Superstep 0
// initializes ranks; every later superstep receives the previous
// round's contributions, computes the new rank and the L1 delta, and
// sends the next round's contributions (the last round's sends dangle
// and are dropped, as in hand-written GPS code).
type PageRank struct {
	Eps     float64
	D       float64
	MaxIter int
	PR      []float64
}

// Schema declares the single 8-byte contribution message, folded at
// delivery into its sum (the receive loop below adds it from zero), and
// the diff aggregator.
func (j *PageRank) Schema() pregel.Schema {
	return pregel.Schema{
		MessagePayloadBytes: []int{8},
		MessageSlots:        []int{1},
		Folds:               []*pregel.Fold{{Op: pregel.AggSum, Kind: pregel.AggKindFloat}},
		Aggregators: []pregel.AggSpec{
			{Name: "diff", Kind: pregel.AggKindFloat, Op: pregel.AggSum},
		},
	}
}

// MasterCompute checks convergence once the first full iteration has
// been folded.
func (j *PageRank) MasterCompute(mc *pregel.MasterContext) {
	s := mc.Superstep()
	if s < 3 {
		return
	}
	diff := mc.AggFloat(0)
	iters := s - 2
	if !(diff > j.Eps && iters < j.MaxIter) {
		mc.Halt()
	}
}

// VertexCompute implements init / send / receive-compute-send.
func (j *PageRank) VertexCompute(vc *pregel.VertexContext) {
	v := vc.ID()
	n := float64(vc.NumNodes())
	s := vc.Superstep()
	if s == 0 {
		j.PR[v] = 1 / n
		return
	}
	if s >= 2 {
		sum := 0.0
		for _, m := range vc.Messages() {
			sum += m.Float(0)
		}
		val := (1-j.D)/n + j.D*sum
		d := val - j.PR[v]
		if d < 0 {
			d = -d
		}
		vc.AggFloat(0, d)
		j.PR[v] = val
	}
	var m pregel.Msg
	m.SetFloat(0, j.PR[v]/float64(vc.OutDegree()))
	vc.SendToAllNbrs(m)
}

// Conductance is the manual Pregel job for subset conductance. It
// builds incoming-neighbor lists with the standard two-superstep ID
// exchange, then counts boundary-crossing edges by messaging along
// in-edges, exactly as a GPS programmer implements "count my out-edges
// whose head is outside the set".
type Conductance struct {
	Num    int64
	Member []int64
	Result float64

	inNbrs    [][]graph.NodeID
	din, dout int64
}

// Schema declares the 4-byte ID message, the empty crossing message,
// and the three sum aggregators.
func (j *Conductance) Schema() pregel.Schema {
	return pregel.Schema{
		MessagePayloadBytes: []int{4, 0},
		MessageSlots:        []int{1, 0},
		Aggregators: []pregel.AggSpec{
			{Name: "Din", Kind: pregel.AggKindInt, Op: pregel.AggSum},
			{Name: "Dout", Kind: pregel.AggKindInt, Op: pregel.AggSum},
			{Name: "Cross", Kind: pregel.AggKindInt, Op: pregel.AggSum},
		},
	}
}

// MasterCompute allocates shared state on superstep 0 (the master runs
// single-threaded before any vertex) and finalizes the conductance on
// superstep 3.
func (j *Conductance) MasterCompute(mc *pregel.MasterContext) {
	if mc.Superstep() == 0 {
		j.inNbrs = make([][]graph.NodeID, mc.NumNodes())
	}
	if mc.Superstep() == 2 {
		// Aggregators are per-superstep: snapshot the degree sums
		// contributed during superstep 1 before they are replaced.
		j.din = mc.AggInt(0)
		j.dout = mc.AggInt(1)
	}
	if mc.Superstep() == 3 {
		din := j.din
		dout := j.dout
		// Cross was contributed during superstep 2.
		cross := mc.AggInt(2)
		m := din
		if dout < din {
			m = dout
		}
		switch {
		case m == 0 && cross == 0:
			j.Result = 0
		case m == 0:
			j.Result = inf()
		default:
			j.Result = float64(cross) / float64(m)
		}
		mc.ReturnFloat(j.Result)
		mc.Halt()
	}
}

func inf() float64 { return math.Inf(1) }

// VertexCompute implements the three vertex-parallel phases.
func (j *Conductance) VertexCompute(vc *pregel.VertexContext) {
	v := vc.ID()
	switch vc.Superstep() {
	case 0:
		var m pregel.Msg
		m.SetNode(0, v)
		m.Type = 0
		vc.SendToAllNbrs(m)
	case 1:
		for _, m := range vc.Messages() {
			j.inNbrs[v] = append(j.inNbrs[v], m.Node(0))
		}
		deg := int64(vc.OutDegree())
		if j.Member[v] == j.Num {
			vc.AggInt(0, deg)
		} else {
			vc.AggInt(1, deg)
			// Tell in-neighbors that this head vertex is outside the
			// set; inside tails will count these as crossing edges.
			for _, src := range j.inNbrs[v] {
				vc.Send(src, pregel.Msg{Type: 1})
			}
		}
	case 2:
		if j.Member[v] == j.Num {
			vc.AggInt(2, int64(len(vc.Messages())))
		}
	}
}

// SSSP is the manual Pregel job for single-source shortest paths — the
// original Pregel paper's running example, with voteToHalt so converged
// vertices are skipped (the hand-tuning the paper says the compiler
// lacks, §5.2).
type SSSP struct {
	Root graph.NodeID
	Len  []int64 // by out-edge index
	Dist []int64
}

// Schema declares the single 8-byte candidate-distance message, folded
// at delivery into its minimum (the relax loop below keeps the least),
// with the edge lengths as its edge column: a broadcast of dist reaches
// the neighbour over edge e as dist + Len[e].
func (j *SSSP) Schema() pregel.Schema {
	return pregel.Schema{
		MessagePayloadBytes: []int{8},
		MessageSlots:        []int{1},
		Folds:               []*pregel.Fold{{Op: pregel.AggMin, Kind: pregel.AggKindInt}},
		EdgeAdd:             []any{j.Len},
	}
}

// MasterCompute is empty: termination is by quiescence (all vertices
// halted, no messages in flight).
func (j *SSSP) MasterCompute(mc *pregel.MasterContext) {}

// VertexCompute initializes at superstep 0 (the root immediately
// relaxes its out-edges, as in the original Pregel paper), then relaxes
// incoming candidates and propagates improvements, voting to halt each
// step.
func (j *SSSP) VertexCompute(vc *pregel.VertexContext) {
	v := vc.ID()
	improved := false
	if vc.Superstep() == 0 {
		if v == j.Root {
			j.Dist[v] = 0
			improved = true
		} else {
			j.Dist[v] = maxInt64
		}
	}
	for _, m := range vc.Messages() {
		if d := m.Int(0); d < j.Dist[v] {
			j.Dist[v] = d
			improved = true
		}
	}
	if improved {
		var m pregel.Msg
		m.SetInt(0, j.Dist[v])
		vc.SendToAllNbrs(m)
	}
	vc.VoteToHalt()
}

const maxInt64 = int64(^uint64(0) >> 1)

// Bipartite is the manual Pregel job for random bipartite matching: the
// paper's three-phase handshake (propose / accept / finalize+notify),
// keyed off the superstep number modulo the round length.
type Bipartite struct {
	IsBoy  []bool
	Match  []graph.NodeID
	Count  int64
	suitor []graph.NodeID
	// lastRoundEmpty remembers that the previous accept phase saw no
	// proposals, so the matching is maximal and the job can halt at the
	// next round boundary.
	lastRoundEmpty bool
}

// Message types: 0 propose (boy→girl), 1 accept (girl→boy),
// 2 notify (boy→girl), each carrying the sender ID.
func (j *Bipartite) Schema() pregel.Schema {
	return pregel.Schema{
		MessagePayloadBytes: []int{4, 4, 4},
		MessageSlots:        []int{1, 1, 1},
		Aggregators: []pregel.AggSpec{
			{Name: "progress", Kind: pregel.AggKindBool, Op: pregel.AggOr},
			{Name: "count", Kind: pregel.AggKindInt, Op: pregel.AggSum},
		},
	}
}

// phase maps a superstep to its position in the 4-step round: 0 propose,
// 1 accept, 2 finalize, 3 notify. Superstep 0 is initialization.
func phase(superstep int) int { return (superstep - 1) % 4 }

// MasterCompute allocates shared state, accumulates the matched count,
// and halts at a round boundary once a full round made no proposals.
func (j *Bipartite) MasterCompute(mc *pregel.MasterContext) {
	s := mc.Superstep()
	if s == 0 {
		j.suitor = make([]graph.NodeID, mc.NumNodes())
		return
	}
	switch phase(s) {
	case 2:
		// Aggregator from the accept phase: did any girl see a suitor?
		if !mc.AggBool(0) {
			j.lastRoundEmpty = true
		} else {
			j.lastRoundEmpty = false
		}
	case 3:
		j.Count += mc.AggInt(1)
	case 0:
		if s > 1 && j.lastRoundEmpty {
			mc.ReturnInt(j.Count)
			mc.Halt()
		}
	}
}

// VertexCompute implements init + the four round phases.
func (j *Bipartite) VertexCompute(vc *pregel.VertexContext) {
	v := vc.ID()
	s := vc.Superstep()
	if s == 0 {
		j.Match[v] = graph.NilNode
		return
	}
	switch phase(s) {
	case 0: // propose
		j.suitor[v] = graph.NilNode
		if j.IsBoy[v] && j.Match[v] == graph.NilNode {
			var m pregel.Msg
			m.SetNode(0, v)
			m.Type = 0
			vc.SendToAllNbrs(m)
		}
	case 1: // accept
		for _, m := range vc.Messages() {
			if j.Match[v] == graph.NilNode {
				j.suitor[v] = m.Node(0)
			}
		}
		if !j.IsBoy[v] && j.suitor[v] != graph.NilNode {
			vc.AggBool(0, true)
			var m pregel.Msg
			m.SetNode(0, v)
			m.Type = 1
			vc.Send(j.suitor[v], m)
		}
	case 2: // finalize
		for _, m := range vc.Messages() {
			j.suitor[v] = m.Node(0)
		}
		if j.IsBoy[v] && j.Match[v] == graph.NilNode && j.suitor[v] != graph.NilNode {
			g := j.suitor[v]
			j.Match[v] = g
			var m pregel.Msg
			m.SetNode(0, v)
			m.Type = 2
			vc.Send(g, m)
			vc.AggInt(1, 1)
		}
	case 3: // notify
		for _, m := range vc.Messages() {
			j.Match[v] = m.Node(0)
		}
	}
}
