package pregel

import (
	"math"
	"math/rand"

	"gmpregel/internal/graph"
)

// MasterContext is the API surface of master.compute(). The master sees
// aggregator values contributed during the previous superstep, may set
// global objects visible to vertices in the current superstep, and may
// halt the computation (in which case no vertex phase runs this step).
type MasterContext struct {
	e         *engine
	superstep int
}

// Superstep returns the current superstep number, starting from 0.
func (mc *MasterContext) Superstep() int { return mc.superstep }

// NumNodes returns the number of vertices in the graph.
func (mc *MasterContext) NumNodes() int { return mc.e.g.NumNodes() }

// NumEdges returns the number of edges in the graph.
func (mc *MasterContext) NumEdges() int64 { return mc.e.g.NumEdges() }

// Halt terminates the computation; the current superstep's vertex phase
// does not run.
func (mc *MasterContext) Halt() { mc.e.halted = true }

// ReturnInt records the program's integer return value, readable from
// Stats after the run.
func (mc *MasterContext) ReturnInt(v int64) {
	st := &mc.e.stats
	st.ReturnedIsSet, st.ReturnedIsInt, st.ReturnedInt = true, true, v
}

// ReturnFloat records the program's float return value.
func (mc *MasterContext) ReturnFloat(v float64) {
	st := &mc.e.stats
	st.ReturnedIsSet, st.ReturnedIsInt, st.ReturnedFloat = true, false, v
}

// AggIsSet reports whether any vertex contributed to aggregator slot s
// during the previous superstep.
func (mc *MasterContext) AggIsSet(s int) bool { return mc.e.aggValues[s].set }

// AggInt returns the merged int value of aggregator slot s (0 if unset).
func (mc *MasterContext) AggInt(s int) int64 { return mc.e.aggValues[s].i }

// AggFloat returns the merged float value of aggregator slot s.
func (mc *MasterContext) AggFloat(s int) float64 { return mc.e.aggValues[s].f }

// AggBool returns the merged bool value of aggregator slot s.
func (mc *MasterContext) AggBool(s int) bool { return mc.e.aggValues[s].i != 0 }

// ClearAgg resets aggregator slot s. Aggregators are otherwise
// cumulative only within a superstep: worker partials are merged at the
// barrier and replaced the next superstep, so an explicit clear is needed
// when the master wants "unset" semantics to persist.
func (mc *MasterContext) ClearAgg(s int) { mc.e.aggValues[s] = aggCell{} }

func (mc *MasterContext) setGlobal(s int, v uint64) {
	mc.e.globals[s] = v
	size := 8
	if s < len(mc.e.schema.Globals) && mc.e.schema.Globals[s].Size > 0 {
		size = mc.e.schema.Globals[s].Size
	}
	mc.e.globalBytes += int64(size * (mc.e.numWorkers - 1))
}

// SetGlobalInt broadcasts an int global; vertices see it this superstep.
func (mc *MasterContext) SetGlobalInt(s int, v int64) { mc.setGlobal(s, uint64(v)) }

// SetGlobalFloat broadcasts a float global.
func (mc *MasterContext) SetGlobalFloat(s int, v float64) { mc.setGlobal(s, math.Float64bits(v)) }

// SetGlobalBool broadcasts a bool global.
func (mc *MasterContext) SetGlobalBool(s int, v bool) {
	if v {
		mc.setGlobal(s, 1)
	} else {
		mc.setGlobal(s, 0)
	}
}

// SetGlobalNode broadcasts a node-ID global.
func (mc *MasterContext) SetGlobalNode(s int, v graph.NodeID) { mc.setGlobal(s, uint64(uint32(v))) }

// GlobalInt reads back a global the master previously set.
func (mc *MasterContext) GlobalInt(s int) int64 { return int64(mc.e.globals[s]) }

// Rand returns the master's seeded RNG (used by G.PickRandom in
// sequential phases).
func (mc *MasterContext) Rand() *rand.Rand { return mc.e.masterRand }

// PickRandomNode returns a uniformly random vertex, or NilNode when the
// graph has no vertices (no RNG draw is consumed in that case).
func (mc *MasterContext) PickRandomNode() graph.NodeID {
	n := mc.e.g.NumNodes()
	if n == 0 {
		return graph.NilNode
	}
	return graph.NodeID(mc.e.masterRand.Intn(n))
}

// VertexContext is the API surface of vertex.compute(). One value lives
// on each executor and is reused across every vertex that executor runs
// within a superstep — under work stealing those may belong to several
// workers' chunks; do not retain it.
type VertexContext struct {
	ex        *executor
	wk        *worker // owner of the vertex currently executing
	ck        *chunk  // chunk the vertex belongs to
	superstep int
	id        graph.NodeID
	local     int
	msgs      []Msg
}

// ID returns the vertex's global ID.
func (vc *VertexContext) ID() graph.NodeID { return vc.id }

// Superstep returns the current superstep number.
func (vc *VertexContext) Superstep() int { return vc.superstep }

// NumNodes returns the number of vertices in the graph.
func (vc *VertexContext) NumNodes() int { return vc.wk.e.g.NumNodes() }

// OutDegree returns this vertex's out-degree.
func (vc *VertexContext) OutDegree() int { return vc.wk.e.g.OutDegree(vc.id) }

// OutNbrs returns this vertex's out-neighbors (do not modify).
func (vc *VertexContext) OutNbrs() []graph.NodeID { return vc.wk.e.g.OutNbrs(vc.id) }

// OutEdgeRange returns the half-open out-edge index range of this vertex,
// for reading per-edge property arrays.
func (vc *VertexContext) OutEdgeRange() (lo, hi int64) { return vc.wk.e.g.OutEdgeRange(vc.id) }

// Messages returns the messages sent to this vertex in the previous
// superstep: first one message per folded type that any sender used (in
// type order, each carrying the type's fold of every such message, see
// Fold), then the unfolded messages grouped deterministically
// (source-worker order). The slice is executor scratch the engine
// unpacks the vertex's inbox into: it is valid until VertexCompute
// returns, and payload slots beyond the widest type the Schema declares
// read as zero.
func (vc *VertexContext) Messages() []Msg { return vc.msgs }

// deliver records one outgoing message on the current chunk, packed
// into a record in the box of its destination worker, or, for a folded
// type, in that worker's fold box, one slot wide. The message's
// eventual position (or fold order) depends only on its (worker, chunk,
// emission-index) coordinates, not on the executor.
func (vc *VertexContext) deliver(m Msg) {
	wk := vc.wk
	if !wk.conforms(&m) {
		vc.reject(&m)
		return
	}
	ck := vc.ck
	dw := wk.ownerOf(m.Dst)
	if fi := wk.foldIdx[m.Type]; fi >= 0 {
		ck.fboxes[dw] = appendRec(ck.fboxes[dw], packHeader(m.Dst, m.Type), &m.V, 1)
		ck.fbcast[fi] = math.MinInt32
	} else {
		ck.boxes[dw] = appendRec(ck.boxes[dw], packHeader(m.Dst, m.Type), &m.V, wk.slots)
	}
	ck.st.Messages++
	size := wk.msgSize[m.Type]
	if dw != wk.index {
		ck.st.NetworkMsgs++
		ck.st.NetworkBytes += size
	} else {
		ck.st.LocalBytes += size
	}
}

// reject drops a message that does not fit the schema and records the
// violation on the chunk, where a VertexCompute panic would be: the
// barrier surfaces the first one in canonical (worker, chunk) order and
// aborts the run.
func (vc *VertexContext) reject(m *Msg) {
	if vc.ck.err == nil {
		vc.ck.err = vc.wk.schemaError(vc.id, m)
	}
}

// Send sends m to dst, delivered next superstep. m must fit the job's
// Schema: a declared Type, and zeros beyond the type's fields.
func (vc *VertexContext) Send(dst graph.NodeID, m Msg) {
	m.Dst = dst
	vc.deliver(m)
}

// SendToAllNbrs sends a copy of m to every out-neighbor.
func (vc *VertexContext) SendToAllNbrs(m Msg) {
	wk := vc.wk
	if !wk.conforms(&m) {
		vc.reject(&m)
		return
	}
	if wk.foldIdx[m.Type] >= 0 {
		vc.broadcast(wk.e.nbrIndex(), &m)
		return
	}
	// Hoist the per-message size and header tag, and branch on the
	// partitioner once.
	nbrs := wk.e.g.OutNbrs(vc.id)
	boxes, slots := vc.ck.boxes, wk.slots
	tag := packHeader(0, m.Type)
	ck := vc.ck
	size := wk.msgSize[m.Type]
	self := wk.index
	if wk.pblocks == nil {
		div := wk.div
		for _, d := range nbrs {
			dw := int(div.mod(uint32(d)))
			boxes[dw] = appendRec(boxes[dw], tag|uint64(uint32(d)), &m.V, slots)
			if dw != self {
				ck.st.NetworkMsgs++
				ck.st.NetworkBytes += size
			} else {
				ck.st.LocalBytes += size
			}
		}
	} else {
		pb, sh := wk.pblocks, wk.pshift
		for _, d := range nbrs {
			dw := int(pb[uint32(d)>>sh])
			boxes[dw] = appendRec(boxes[dw], tag|uint64(uint32(d)), &m.V, slots)
			if dw != self {
				ck.st.NetworkMsgs++
				ck.st.NetworkBytes += size
			} else {
				ck.st.LocalBytes += size
			}
		}
	}
	ck.st.Messages += int64(len(nbrs))
}

// broadcast sends m, of a folded type, to every out-neighbor as one
// broadcast record (record.go) in the fold box of each worker owning any
// of them, and bills every edge as Send would: those in the sender's
// own worker's group of ix's cut row are local, the rest network. With
// one worker the record goes to worker 0 and all of it is local. It also
// stores the payload in the value column and counts the broadcast on the
// chunk, for the pull fold (fold.go); a vertex's second one this
// superstep, which finds its stamp, spoils the count.
//
//gm:noalloc
func (vc *VertexContext) broadcast(ix *nbrIndex, m *Msg) {
	wk, ck := vc.wk, vc.ck
	lo, hi := ix.start[vc.id], ix.start[vc.id+1]
	if lo == hi {
		return
	}
	fi := int(wk.foldIdx[m.Type])
	j, stamp := vc.local*len(wk.e.folds)+fi, uint32(vc.superstep)+1
	if wk.bstamp[j] == stamp {
		ck.fbcast[fi] = math.MinInt32
	}
	ck.fbcast[fi]++
	wk.bvals[j], wk.bstamp[j] = m.V[0], stamp
	hdr := packHeader(vc.id, m.Type) | bcastBit
	size := wk.msgSize[m.Type]
	ck.st.Messages += hi - lo
	if ix.cut == nil {
		ck.fboxes[0] = appendRec(ck.fboxes[0], hdr, &m.V, 1)
		ck.st.LocalBytes += (hi - lo) * size
		return
	}
	cut := ix.cut[int(vc.id)*ix.row:][:ix.row]
	local := int64(cut[wk.index+1] - cut[wk.index])
	ck.st.LocalBytes += local * size
	ck.st.NetworkMsgs += hi - lo - local
	ck.st.NetworkBytes += (hi - lo - local) * size
	// Every box takes the record and an empty group's gives it back: an
	// unpredictable branch per worker costs more than the stores.
	for d := range ck.fboxes {
		b := appendRec(ck.fboxes[d], hdr, &m.V, 1)
		n := len(b) - foldStride
		if cut[d+1] > cut[d] {
			n = len(b)
		}
		ck.fboxes[d] = b[:n]
	}
}

// VoteToHalt deactivates this vertex; it is reactivated when a message
// arrives.
func (vc *VertexContext) VoteToHalt() {
	if vc.wk.active[vc.local] {
		vc.wk.active[vc.local] = false
		vc.ck.numActive--
	}
}

// GlobalInt reads an int global broadcast by the master this superstep.
func (vc *VertexContext) GlobalInt(s int) int64 { return int64(vc.wk.e.globals[s]) }

// GlobalFloat reads a float global.
func (vc *VertexContext) GlobalFloat(s int) float64 {
	return math.Float64frombits(vc.wk.e.globals[s])
}

// GlobalBool reads a bool global.
func (vc *VertexContext) GlobalBool(s int) bool { return vc.wk.e.globals[s] != 0 }

// GlobalNode reads a node-ID global.
func (vc *VertexContext) GlobalNode(s int) graph.NodeID {
	return graph.NodeID(int32(uint32(vc.wk.e.globals[s])))
}

// AggInt contributes an int value to aggregator slot s; merged with the
// slot's declared reduction and visible to the master next superstep.
// Contributions accumulate on the chunk and are merged at the barrier in
// canonical (worker, chunk) order, so the merged value is independent of
// the execution schedule.
func (vc *VertexContext) AggInt(s int, v int64) {
	vc.ck.agg[s].merge(vc.wk.e.schema.Aggregators[s], aggCell{set: true, i: v})
}

// AggFloat contributes a float value to aggregator slot s.
func (vc *VertexContext) AggFloat(s int, v float64) {
	vc.ck.agg[s].merge(vc.wk.e.schema.Aggregators[s], aggCell{set: true, f: v})
}

// AggBool contributes a bool value to aggregator slot s.
func (vc *VertexContext) AggBool(s int, v bool) {
	c := aggCell{set: true}
	if v {
		c.i = 1
	}
	vc.ck.agg[s].merge(vc.wk.e.schema.Aggregators[s], c)
}

// Rand returns a seeded RNG whose stream is a pure function of the run
// seed, this vertex's ID, and the superstep — independent of chunk size,
// stealing, worker count, and partitioning. The stream restarts each
// superstep, so a rolled-back replay redraws identical values.
func (vc *VertexContext) Rand() *rand.Rand {
	x := vc.ex
	if x.rngID != vc.id || x.rngStep != vc.superstep {
		x.rngID, x.rngStep = vc.id, vc.superstep
		x.rngSrc.Seed(int64(x.seedBase ^ mix64(uint64(uint32(vc.id))<<20|uint64(uint32(vc.superstep)))))
	}
	return x.rng
}

// WorkerIndex returns the index of the worker owning this vertex (stable
// for a run regardless of which executor runs the chunk; useful for
// partition-scoped storage in jobs).
func (vc *VertexContext) WorkerIndex() int { return vc.wk.index }

// ExecutorIndex returns the index of the executor goroutine running this
// vertex. Under work stealing this may differ from WorkerIndex; scratch
// state a job mutates during compute must be indexed by executor, not
// worker, to stay race-free. It lies in [0, Config.Workers(n)) for a
// graph of n vertices.
func (vc *VertexContext) ExecutorIndex() int { return vc.ex.id }

// NumWorkers returns the number of workers in this run (also the number
// of executors).
func (vc *VertexContext) NumWorkers() int { return vc.wk.e.numWorkers }
