package analysis

import (
	"gmpregel/internal/gm/ast"
	"gmpregel/internal/gm/sema"
	"gmpregel/internal/gm/token"
)

// regionCtx is the state of one vertex-parallel region (a top-level
// Foreach over G.Nodes, an InBFS body, or a lowered whole-graph
// reduction).
type regionCtx struct {
	// iter is the region's vertex iterator symbol.
	iter *sema.Symbol
	// written maps each property symbol written anywhere in the region
	// to the positions of its writes (for hazard detection).
	written map[*sema.Symbol][]token.Pos
	// bfs marks InBFS regions, whose level-wise ordering changes which
	// hazards are real.
	bfs bool
}

// parState carries per-statement context through a region walk.
type parState struct {
	// inNbrLoop is true inside an inner neighbor loop, where each
	// statement runs once per neighbor (or per received message).
	inNbrLoop bool
}

// regionForeach analyzes one top-level vertex-parallel loop.
func (a *analyzer) regionForeach(f *ast.Foreach) {
	r := &regionCtx{iter: a.info.IterOf[f], written: map[*sema.Symbol][]token.Pos{}}
	a.collectWrites(f.Body, r)
	if f.Filter != nil {
		a.parExpr(f.Filter, r)
	}
	a.parStmt(f.Body, r, parState{})
}

// regionBFS analyzes the forward and reverse bodies of a traversal.
func (a *analyzer) regionBFS(b *ast.InBFS) {
	a.seqExpr(b.Root)
	iter := a.info.IterOf[b]
	for _, body := range []*ast.Block{b.Body, b.ReverseBody} {
		if body == nil {
			continue
		}
		r := &regionCtx{iter: iter, written: map[*sema.Symbol][]token.Pos{}, bfs: true}
		a.collectWrites(body, r)
		a.parStmt(body, r, parState{})
	}
}

// collectWrites pre-scans a region body for property writes; the result
// feeds the hazard analysis (a neighbor read of any of these properties
// observes the previous superstep's value).
func (a *analyzer) collectWrites(s ast.Stmt, r *regionCtx) {
	ast.WalkStmts(s, func(st ast.Stmt) bool {
		if as, ok := st.(*ast.Assign); ok {
			if pa, ok := as.LHS.(*ast.PropAccess); ok {
				if sym := a.propByName[pa.Prop]; sym != nil {
					r.written[sym] = append(r.written[sym], as.P)
				}
			}
		}
		return true
	})
}

// parStmt visits one statement inside a parallel region.
func (a *analyzer) parStmt(s ast.Stmt, r *regionCtx, st parState) {
	switch s := s.(type) {
	case *ast.Block:
		for _, c := range s.Stmts {
			a.parStmt(c, r, st)
		}
	case *ast.VarDecl:
		if s.Init != nil {
			a.parExpr(s.Init, r)
		}
	case *ast.Assign:
		a.parAssign(s, r, st)
	case *ast.If:
		a.parExpr(s.Cond, r)
		a.parStmt(s.Then, r, st)
		if s.Else != nil {
			a.parStmt(s.Else, r, st)
		}
	case *ast.Foreach:
		a.nbrLoop(s, r, st)
	}
}

// parAssign checks one assignment in parallel context for write-write
// conflicts (analysis 1) and canonicalizability notes, then scans its
// right-hand side for hazards.
func (a *analyzer) parAssign(s *ast.Assign, r *regionCtx, st parState) {
	switch lhs := s.LHS.(type) {
	case *ast.Ident:
		sym := a.info.Uses[lhs]
		// A plain write to a sequential scalar from vertex-parallel code
		// becomes an any-wins aggregator: nondeterministic.
		if sym != nil && sym.Kind == sema.SymScalar && !sym.InParallel && s.Op == ast.OpSet {
			a.addHint(CodeWriteConflict, SevWarning, s.P,
				"use a reduction assignment (+=, min=, max=, &=, |=) to merge parallel writes deterministically",
				"parallel plain write to scalar %q: every vertex writes it and one arbitrary write wins", lhs.Name)
		}
	case *ast.PropAccess:
		a.parPropWrite(s, lhs, r, st)
	}
	a.parExpr(s.RHS, r)
}

// parPropWrite classifies a property write by its target.
func (a *analyzer) parPropWrite(s *ast.Assign, lhs *ast.PropAccess, r *regionCtx, st parState) {
	tsym := a.symOf(lhs.Target)
	if tsym == nil {
		return
	}
	hint := "use a reduction assignment (+=, min=, max=, &=, |=) to merge parallel writes deterministically"
	switch {
	case tsym == r.iter:
		// Writing the current vertex's own property is private — unless
		// it happens once per neighbor/message inside an inner loop,
		// where a plain write keeps an arbitrary message's value.
		if st.inNbrLoop && s.Op == ast.OpSet {
			a.addHint(CodeWriteConflict, SevWarning, s.P, hint,
				"plain write to %s.%s runs once per neighbor; the last message processed wins", lhs.Target.(*ast.Ident).Name, lhs.Prop)
		}
	case tsym.Kind == sema.SymNodeIter:
		// Writing through a neighbor iterator: many vertices may target
		// the same neighbor in the same superstep.
		if s.Op == ast.OpSet {
			a.addHint(CodeWriteConflict, SevWarning, s.P, hint,
				"parallel plain write to neighbor property %s.%s: multiple vertices may write the same target and one write wins", lhs.Target.(*ast.Ident).Name, lhs.Prop)
		}
	case isNodeScalar(tsym):
		// Random write: the Random Writing rule ships it as a message to
		// a runtime-chosen vertex. Inside a neighbor loop it would run on
		// the receiver, and the compiler rejects it.
		if !st.inNbrLoop {
			a.add(CodeRandomWrite, SevInfo, s.P,
				"write to %s.%s targets a vertex chosen at runtime; the Random Writing rule delivers it as a directed message", lhs.Target.(*ast.Ident).Name, lhs.Prop)
		}
		if s.Op == ast.OpSet {
			a.addHint(CodeWriteConflict, SevWarning, s.P, hint,
				"parallel plain write to %s.%s: multiple vertices may pick the same target and one write wins", lhs.Target.(*ast.Ident).Name, lhs.Prop)
		}
	}
}

// parExpr scans an expression in parallel context: neighbor-property
// reads feed the hazard analysis and nested reductions become
// communication sites.
func (a *analyzer) parExpr(e ast.Expr, r *regionCtx) {
	ast.WalkExpr(e, func(x ast.Expr) bool {
		switch x := x.(type) {
		case *ast.PropAccess:
			a.parPropRead(x, r)
		case *ast.Reduce:
			a.reduceSite(x, r)
			return false
		}
		return true
	})
}

// parPropRead flags cross-superstep read-after-write hazards (analysis
// 2): reading a neighbor's property that this region also writes means
// the value observed is the previous superstep's — the translator must
// ship the stale value in an extra message exchange. Reads through
// UpNbrs/DownNbrs iterators are exempt: BFS levels order them.
func (a *analyzer) parPropRead(pa *ast.PropAccess, r *regionCtx) {
	tsym := a.symOf(pa.Target)
	if tsym == nil || tsym.Kind != sema.SymNodeIter {
		return
	}
	if tsym.IterDomain != ast.IterOutNbrs && tsym.IterDomain != ast.IterInNbrs {
		return
	}
	prop := a.propByName[pa.Prop]
	if prop == nil {
		return
	}
	if wpos, ok := r.written[prop]; ok {
		a.addHint(CodeCrossStepHazard, SevWarning, pa.P,
			"if the previous-superstep value is intended (as in PageRank), this is correct but costs a full exchange of the old values",
			"read of neighbor property %s.%s while this parallel region writes %q (at %s): BSP semantics deliver the previous superstep's value via an extra message exchange",
			pa.Target.(*ast.Ident).Name, pa.Prop, pa.Prop, wpos[0])
	}
}

// reduceSite analyzes a reduction inside a parallel region.
// Neighborhood reductions are communication sites; UpNbrs/DownNbrs
// reductions ride on BFS levels.
func (a *analyzer) reduceSite(red *ast.Reduce, r *regionCtx) {
	switch red.Domain {
	case ast.IterUpNbrs, ast.IterDownNbrs:
		// Levelwise BFS communication: values from the previous level
		// are final, so no hazard/payload site is recorded; still scan
		// the subtree for conflicts and nested constructs.
	case ast.IterOutNbrs, ast.IterInNbrs:
		if red.Domain == ast.IterInNbrs {
			a.add(CodeIncomingComm, SevInfo, red.P,
				"communication along incoming edges: the compiler flips the edge direction or builds incoming-neighbor lists (Flipping Edges / Incoming Neighbors rules)")
		}
		a.payloadOfReduce(red, r)
	}
	if red.Filter != nil {
		a.parExpr(red.Filter, r)
	}
	if red.Body != nil {
		a.parExpr(red.Body, r)
	}
}

// nbrLoop analyzes an inner Foreach inside a parallel region: a
// communication site (push or pull). A whole-graph loop here, or a
// neighbor loop nested in another, is left to the compiler, which
// rejects it (GM5006, GM5009).
func (a *analyzer) nbrLoop(f *ast.Foreach, r *regionCtx, st parState) {
	switch f.Kind {
	case ast.IterNodes:
		return
	case ast.IterUpNbrs, ast.IterDownNbrs:
		// BFS-level loops communicate along finished levels; walk the
		// body for conflicts only.
		inner := st
		inner.inNbrLoop = true
		if f.Filter != nil {
			a.parExpr(f.Filter, r)
		}
		a.parStmt(f.Body, r, inner)
		return
	}
	if st.inNbrLoop {
		return
	}

	pull := a.isPull(f, r)
	if f.Kind == ast.IterInNbrs {
		a.add(CodeIncomingComm, SevInfo, f.P,
			"communication along incoming edges: the compiler flips the edge direction or builds incoming-neighbor lists (Flipping Edges / Incoming Neighbors rules)")
	}
	a.payloadOfLoop(f, r, pull)

	inner := st
	inner.inNbrLoop = true
	if f.Filter != nil {
		a.parExpr(f.Filter, r)
	}
	a.parStmt(f.Body, r, inner)
}

// isPull reports whether the inner loop pulls values toward the outer
// vertex: it writes a property of the region iterator or an outer-scope
// scalar (which loop dissection turns into a property of the iterator).
func (a *analyzer) isPull(f *ast.Foreach, r *regionCtx) bool {
	pull := false
	declared := map[*sema.Symbol]bool{}
	ast.WalkStmts(f.Body, func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.VarDecl:
			for _, sym := range a.info.DeclOf[s] {
				declared[sym] = true
			}
		case *ast.Assign:
			switch lhs := s.LHS.(type) {
			case *ast.PropAccess:
				if a.symOf(lhs.Target) == r.iter {
					pull = true
				}
			case *ast.Ident:
				if sym := a.info.Uses[lhs]; sym != nil && sym.Kind == sema.SymScalar && !declared[sym] {
					pull = true
				}
			}
		}
		return !pull
	})
	return pull
}
