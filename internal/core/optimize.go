package core

import (
	"gmpregel/internal/gm/ast"
	"gmpregel/internal/ir"
	"gmpregel/internal/machine"
)

// ---- State Merging (§4.2) ----

// mergeStates merges consecutive vertex states when doing so cannot
// change the program's semantics: the first state must not send a
// message type the second receives (BSP delivery needs a superstep
// boundary), the second must not read a scalar written by the master
// code between them, and both must not contribute to the same
// aggregator (which would be folded twice).
func mergeStates(p *machine.Program, trace *Trace) {
	for {
		merged := false
		for i := range p.Nodes {
			if p.Nodes[i].Vertex == nil {
				continue
			}
			if tryMerge(p, i) {
				trace.Record(RuleStateMerging)
				merged = true
				break
			}
		}
		if !merged {
			return
		}
	}
}

func tryMerge(p *machine.Program, aIdx int) bool {
	a := p.Nodes[aIdx].Vertex
	// Walk the master chain from A to the next vertex state.
	written := map[int]bool{}
	cur := a.Next
	for {
		if cur == aIdx {
			return false // self loop
		}
		n := p.Nodes[cur]
		if n.Vertex != nil {
			break
		}
		m := n.Master
		if m.Term.Kind != machine.TGoto {
			return false
		}
		for _, s := range m.Stmts {
			switch s := s.(type) {
			case ir.FoldAgg:
				written[s.Scalar] = true
			case ir.SetScalar:
				written[s.Slot] = true
			default:
				return false // anything else blocks merging
			}
		}
		// Guard against cycles through masters.
		if m.Term.Then == cur {
			return false
		}
		cur = m.Term.Then
	}
	bIdx := cur
	if bIdx == aIdx {
		return false
	}
	b := p.Nodes[bIdx].Vertex

	// The back-to-back states must not communicate with each other.
	if overlap(sendTypes(a.Body), handlerTypes(b.Body)) {
		return false
	}
	// B must not read scalars written by the in-between master code.
	for _, s := range b.ReadScalars {
		if written[s] {
			return false
		}
	}
	// Double-fold guard.
	if overlap(contribAggs(a.Body), contribAggs(b.Body)) {
		return false
	}
	// B must be reachable ONLY via this chain (no other predecessors),
	// otherwise other paths would lose B's computation.
	if countPreds(p, bIdx) != 1 {
		return false
	}
	// Never merge across a loop boundary: absorbing a body state into a
	// pre-loop state would hoist per-iteration work out of the loop.
	for _, L := range p.Loops {
		lo := L.Cond
		if L.BodyStart < lo {
			lo = L.BodyStart
		}
		hi := maxInt(L.BackEdge, L.Cond)
		aIn := aIdx >= lo && aIdx <= hi
		bIn := bIdx >= lo && bIdx <= hi
		if aIn != bIn {
			return false
		}
	}

	// Merge: append B's body (locals re-slotted) into A; replace B with
	// an empty master block.
	off := len(a.Locals)
	a.Body = append(a.Body, ir.RemapLocals(b.Body, off)...)
	a.Locals = append(a.Locals, b.Locals...)
	a.LocalNames = append(a.LocalNames, b.LocalNames...)
	a.ReadScalars = unionInts(a.ReadScalars, b.ReadScalars)
	p.Nodes[bIdx] = machine.CFGNode{Master: &machine.MasterBlock{
		Term: machine.Term{Kind: machine.TGoto, Then: b.Next},
	}}
	return true
}

func overlap(a, b map[int]bool) bool {
	// Pure intersection test: the boolean result is independent of the
	// order keys are visited in, so iteration order cannot escape.
	for k := range a { //gm:nondeterministic-ok order-insensitive membership test; result is a bare bool
		if b[k] {
			return true
		}
	}
	return false
}

func unionInts(a, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range append(append([]int(nil), a...), b...) {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func sendTypes(ss []ir.Stmt) map[int]bool {
	out := map[int]bool{}
	ir.WalkStmts(ss, func(s ir.Stmt) {
		switch s := s.(type) {
		case ir.SendToNbrs:
			out[s.MsgType] = true
		case ir.SendTo:
			out[s.MsgType] = true
		case ir.SendToInNbrs:
			out[s.MsgType] = true
		}
	})
	return out
}

func handlerTypes(ss []ir.Stmt) map[int]bool {
	out := map[int]bool{}
	ir.WalkStmts(ss, func(s ir.Stmt) {
		switch s := s.(type) {
		case ir.ForMsgs:
			out[s.MsgType] = true
		case ir.CollectInNbrs:
			out[s.MsgType] = true
		}
	})
	return out
}

func contribAggs(ss []ir.Stmt) map[int]bool {
	out := map[int]bool{}
	ir.WalkStmts(ss, func(s ir.Stmt) {
		if c, ok := s.(ir.ContribAgg); ok {
			out[c.Agg] = true
		}
	})
	return out
}

// countPreds counts CFG predecessors of node idx.
func countPreds(p *machine.Program, idx int) int {
	n := 0
	for _, c := range p.Nodes {
		if c.Master != nil {
			t := c.Master.Term
			if (t.Kind == machine.TGoto || t.Kind == machine.TCond) && t.Then == idx {
				n++
			}
			if t.Kind == machine.TCond && t.Else == idx {
				n++
			}
		}
		if c.Vertex != nil && c.Vertex.Next == idx {
			n++
		}
	}
	if p.Entry == idx {
		n++
	}
	return n
}

// ---- Intra-Loop State Merging (§4.2) ----

// intraLoopMerge merges the receive state of each loop iteration with
// the send state of the next, halving the supersteps per iteration at
// the cost of one speculative execution of the send state (whose
// dangling messages the framework drops — exactly the paper's Fig. 5
// construction with the _is_first flag).
func intraLoopMerge(p *machine.Program, trace *Trace) {
	for li := range p.Loops {
		if tryIntraLoopMerge(p, p.Loops[li]) {
			trace.Record(RuleIntraLoopMerge)
		}
	}
}

func tryIntraLoopMerge(p *machine.Program, loop machine.LoopInfo) bool {
	lo := loop.Cond
	if loop.BodyStart < lo {
		lo = loop.BodyStart
	}
	hi := maxInt(loop.BackEdge, loop.Cond)

	// Collect loop nodes; reject nested control flow (other TConds).
	var vertexIdxs []int
	for i := lo; i <= hi; i++ {
		n := p.Nodes[i]
		if n.Vertex != nil {
			// Skip vertex states already emptied by state merging —
			// impossible (they became masters) — so every vertex node
			// counts.
			vertexIdxs = append(vertexIdxs, i)
			if n.Vertex.Next < lo || n.Vertex.Next > hi {
				return false
			}
			continue
		}
		if n.Master.Term.Kind == machine.TCond && i != loop.Cond {
			return false // nested branching
		}
	}
	if len(vertexIdxs) != 2 {
		return false
	}
	aIdx, bIdx := vertexIdxs[0], vertexIdxs[1]
	a, b := p.Nodes[aIdx].Vertex, p.Nodes[bIdx].Vertex

	// A must be safe to run one extra (speculative) time.
	safeA := true
	ir.WalkStmts(a.Body, func(s ir.Stmt) {
		switch s := s.(type) {
		case ir.ForMsgs, ir.CollectInNbrs, ir.ContribAgg:
			safeA = false
		case ir.SetProp:
			if len(s.Name) == 0 || s.Name[0] != '_' {
				safeA = false
			}
		}
	})
	if !safeA {
		return false
	}
	// B must not send (its receive state would be a third vertex state).
	if len(sendTypes(b.Body)) > 0 {
		return false
	}
	// Master nodes strictly between A and B must be empty.
	for i := aIdx + 1; i < bIdx; i++ {
		if m := p.Nodes[i].Master; m == nil || len(m.Stmts) > 0 {
			return false
		}
	}
	// B must not read scalars written by the loop's master code (its
	// execution moves after the tail/head master statements).
	written := map[int]bool{}
	for i := lo; i <= hi; i++ {
		if m := p.Nodes[i].Master; m != nil {
			for _, s := range m.Stmts {
				switch s := s.(type) {
				case ir.SetScalar:
					written[s.Slot] = true
				case ir.FoldAgg:
					written[s.Scalar] = true
				}
			}
		}
	}
	for _, s := range b.ReadScalars {
		if written[s] {
			return false
		}
	}

	// Allocate the _is_first flag.
	flag := len(p.Scalars)
	flagName := "_is_first" + itoa(len(p.Loops))
	p.Scalars = append(p.Scalars, machine.ScalarDecl{Name: flagName, Kind: ir.KBool})
	flagRef := ir.ScalarRef{Slot: flag, Name: flagName}

	// M: guarded B-part, then A-part.
	off := len(a.Locals)
	guarded := ir.If{
		Cond: ir.Unary{Op: ast.UnNot, X: flagRef},
		Then: ir.RemapLocals(b.Body, off),
	}
	a.Body = append([]ir.Stmt{guarded}, a.Body...)
	a.Locals = append(a.Locals, b.Locals...)
	a.LocalNames = append(a.LocalNames, b.LocalNames...)
	a.ReadScalars = unionInts(unionInts(a.ReadScalars, b.ReadScalars), []int{flag})

	// B → empty master jumping to the first-iteration gate.
	gate := len(p.Nodes)
	p.Nodes[bIdx] = machine.CFGNode{Master: &machine.MasterBlock{
		Term: machine.Term{Kind: machine.TGoto, Then: gate},
	}}
	// Gate: if _is_first { _is_first = False; goto M } else continue to
	// the loop tail (folds of B, tail statements, condition).
	bNextOriginal := b.Next
	p.Nodes = append(p.Nodes, machine.CFGNode{Master: &machine.MasterBlock{
		Term: machine.Term{Kind: machine.TCond, Cond: flagRef, Then: gate + 1, Else: bNextOriginal},
	}})
	p.Nodes = append(p.Nodes, machine.CFGNode{Master: &machine.MasterBlock{
		Stmts: []ir.Stmt{ir.SetScalar{Slot: flag, Name: flagName, Op: ast.OpSet, RHS: ir.Const{V: ir.Bool(false)}}},
		Term:  machine.Term{Kind: machine.TGoto, Then: aIdx},
	}})

	// Entry node P: set _is_first before entering the loop; redirect
	// every out-of-loop edge into the loop entry through it.
	entryTarget := loop.Cond
	if loop.DoWhile {
		entryTarget = loop.BodyStart
	}
	pIdx := len(p.Nodes)
	p.Nodes = append(p.Nodes, machine.CFGNode{Master: &machine.MasterBlock{
		Stmts: []ir.Stmt{ir.SetScalar{Slot: flag, Name: flagName, Op: ast.OpSet, RHS: ir.Const{V: ir.Bool(true)}}},
		Term:  machine.Term{Kind: machine.TGoto, Then: entryTarget},
	}})
	for i := range p.Nodes {
		if i >= lo && i <= hi || i == pIdx {
			continue // in-loop edges (the back edge) stay
		}
		if m := p.Nodes[i].Master; m != nil {
			if m.Term.Then == entryTarget && (m.Term.Kind == machine.TGoto || m.Term.Kind == machine.TCond) {
				m.Term.Then = pIdx
			}
			if m.Term.Kind == machine.TCond && m.Term.Else == entryTarget {
				m.Term.Else = pIdx
			}
		}
		if v := p.Nodes[i].Vertex; v != nil && v.Next == entryTarget {
			v.Next = pIdx
		}
	}
	if p.Entry == entryTarget {
		p.Entry = pIdx
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
