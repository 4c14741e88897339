package core

import (
	"sort"

	"gmpregel/internal/gm/analysis"
	"gmpregel/internal/gm/ast"
)

// sortedKeys returns a map's keys in ascending order, for iteration
// whose effects may escape into diagnostics or emitted code.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m { //gm:nondeterministic-ok keys are sorted before any order-sensitive use
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// canonicalize runs the §4.1 transformations that turn non-canonical
// vertex loops into Pregel-canonical form: Dissecting Nested Loops
// (replace outer-scoped scalars with temporary properties, then split
// the outer loop so that each pull-loop stands alone) followed by
// Flipping Edges (turn message pulling into message pushing).
func (nz *normalizer) canonicalize() {
	if !nz.recheck() {
		return
	}
	nz.proc.Body = nz.rewriteSeq(nz.proc.Body, func(out []ast.Stmt, s ast.Stmt) []ast.Stmt {
		if f, ok := s.(*ast.Foreach); ok && f.Kind == ast.IterNodes {
			return append(out, nz.dissectLoop(f)...)
		}
		return append(out, s)
	})
	nz.flipAll()
}

// ---- Dissecting Nested Loops ----

// innerLoopsOf returns the neighbor loops that are direct children of
// the body (possibly nested under Ifs).
func innerLoopsOf(body *ast.Block) []*ast.Foreach {
	var loops []*ast.Foreach
	ast.WalkStmts(body, func(s ast.Stmt) bool {
		f, ok := s.(*ast.Foreach)
		if ok && f.Kind != ast.IterNodes {
			loops = append(loops, f)
		}
		return !ok
	})
	return loops
}

// scalarWrittenInInner reports whether the named scalar is assigned
// inside any inner neighbor loop of body.
func scalarWrittenInInner(body *ast.Block, name string) bool {
	for _, il := range innerLoopsOf(body) {
		written := false
		ast.WalkStmts(il.Body, func(s ast.Stmt) bool {
			if a, ok := s.(*ast.Assign); ok {
				if id, ok := a.LHS.(*ast.Ident); ok && id.Name == name {
					written = true
				}
			}
			return !written
		})
		if written {
			return true
		}
	}
	return false
}

// usedAcrossSplit reports whether the scalar name, declared by
// body.Stmts[i], is referenced at or after a pull loop that follows the
// declaration: step 2 splits the loop there, which would leave the use
// outside the declaration's loop.
func usedAcrossSplit(body *ast.Block, i int, name, outerIter string) bool {
	split, used := false, false
	for _, s := range body.Stmts[i+1:] {
		if il, ok := s.(*ast.Foreach); ok && il.Kind != ast.IterNodes && isPullLoop(il, outerIter) {
			split = true
		}
		if split {
			ast.WalkExprs(s, func(x ast.Expr) bool {
				if id, ok := x.(*ast.Ident); ok && id.Name == name {
					used = true
				}
				return !used
			})
		}
		if used {
			return true
		}
	}
	return false
}

// isPullLoop reports whether the inner loop writes a property of the
// outer iterator (message pulling).
func isPullLoop(il *ast.Foreach, outerIter string) bool {
	pull := false
	ast.WalkStmts(il.Body, func(s ast.Stmt) bool {
		if a, ok := s.(*ast.Assign); ok {
			if pa, ok := a.LHS.(*ast.PropAccess); ok {
				if id, ok := pa.Target.(*ast.Ident); ok && id.Name == outerIter {
					pull = true
				}
			}
		}
		return !pull
	})
	return pull
}

// dissectLoop applies the two dissection steps to one outer loop and
// returns its replacement statement sequence (possibly just the loop
// itself).
func (nz *normalizer) dissectLoop(f *ast.Foreach) []ast.Stmt {
	body := asBlock(f.Body)
	f.Body = body
	var hoisted []ast.Stmt

	// Step 1: outer-body scalars written inside inner loops, or used
	// across a split step 2 makes, become temporary vertex properties.
	changed := true
	for changed {
		changed = false
		for i, s := range body.Stmts {
			d, ok := s.(*ast.VarDecl)
			if !ok || d.Type.Kind.IsProp() || d.Type.Kind == ast.TEdge {
				continue
			}
			name := d.Names[0]
			if len(d.Names) != 1 || !scalarWrittenInInner(body, name) && !usedAcrossSplit(body, i, name, f.Iter) {
				continue
			}
			tmp := nz.nm.fresh("_t")
			hoisted = append(hoisted, &ast.VarDecl{Type: nodePropType(d.Type.Kind), Names: []string{tmp}, P: d.P})
			// Replace the declaration with an initialization of the
			// temporary property (if it had an initializer).
			if d.Init != nil {
				body.Stmts[i] = &ast.Assign{LHS: propOf(ident(f.Iter), tmp), Op: ast.OpSet, RHS: d.Init, P: d.P}
			} else {
				body.Stmts[i] = &ast.Block{P: d.P} // empty placeholder
			}
			// Rewrite all uses of the scalar to the property.
			for j := range body.Stmts {
				if j == i {
					continue
				}
				replaceIdentInStmt(body.Stmts[j], name, propOf(ident(f.Iter), tmp))
			}
			nz.trace.Record(RuleDissectLoops)
			changed = true
			break
		}
	}
	body.Stmts = dropEmptyBlocks(body.Stmts)

	// Step 2: split the loop so each pull-loop is the sole statement of
	// its own outer loop.
	var pullSeen bool
	for _, s := range body.Stmts {
		if il, ok := s.(*ast.Foreach); ok && il.Kind != ast.IterNodes && isPullLoop(il, f.Iter) {
			pullSeen = true
		}
	}
	// Pull loops nested under Ifs cannot be dissected.
	for _, il := range innerLoopsOf(body) {
		if isPullLoop(il, f.Iter) {
			direct := false
			for _, s := range body.Stmts {
				if s == ast.Stmt(il) {
					direct = true
				}
			}
			if !direct {
				nz.fail(analysis.CodeCondPull, il.P, "a message-pulling neighbor loop under a condition cannot be transformed; restructure the program")
				return []ast.Stmt{f}
			}
		}
	}
	if !pullSeen || len(body.Stmts) == 1 {
		return append(hoisted, f)
	}

	// Safety: splitting re-evaluates the outer filter per segment, so no
	// segment may write a property the filter reads.
	if f.Filter != nil {
		filterProps := propsReadBy(f.Filter)
		for _, s := range body.Stmts {
			// Sorted so the property named in the diagnostic is stable
			// when a statement writes several filter-read properties.
			for _, p := range sortedKeys(propsWrittenBy(s)) {
				if filterProps[p] {
					nz.fail(analysis.CodeUnsupported, f.P, "cannot split loop: its body modifies property %q used by the loop filter", p)
					return []ast.Stmt{f}
				}
			}
		}
	}

	var segs [][]ast.Stmt
	var cur []ast.Stmt
	flush := func() {
		if len(cur) > 0 {
			segs = append(segs, cur)
			cur = nil
		}
	}
	for _, s := range body.Stmts {
		if il, ok := s.(*ast.Foreach); ok && il.Kind != ast.IterNodes && isPullLoop(il, f.Iter) {
			flush()
			segs = append(segs, []ast.Stmt{s})
			continue
		}
		cur = append(cur, s)
	}
	flush()
	nz.trace.Record(RuleDissectLoops)

	out := hoisted
	for _, seg := range segs {
		out = append(out, &ast.Foreach{
			Iter: f.Iter, Source: f.Source, Kind: f.Kind,
			Filter: cloneOrNil(f.Filter),
			Body:   &ast.Block{Stmts: seg},
			P:      f.P,
		})
	}
	return out
}

func dropEmptyBlocks(ss []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range ss {
		if b, ok := s.(*ast.Block); ok && len(b.Stmts) == 0 {
			continue
		}
		out = append(out, s)
	}
	return out
}

// propsReadBy returns the property names read in e.
func propsReadBy(e ast.Expr) map[string]bool {
	out := map[string]bool{}
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if pa, ok := x.(*ast.PropAccess); ok {
			out[pa.Prop] = true
		}
		return true
	})
	return out
}

// propsWrittenBy returns the property names written (as assignment
// targets) anywhere in s.
func propsWrittenBy(s ast.Stmt) map[string]bool {
	out := map[string]bool{}
	ast.WalkStmts(s, func(st ast.Stmt) bool {
		if a, ok := st.(*ast.Assign); ok {
			if pa, ok := a.LHS.(*ast.PropAccess); ok {
				out[pa.Prop] = true
			}
		}
		return true
	})
	return out
}

// ---- Flipping Edges ----

// flipAll converts remaining pull-style nested loops (outer loop whose
// sole statement is a message-pulling inner loop) into push style by
// swapping the iterators and flipping the edge direction.
func (nz *normalizer) flipAll() {
	if !nz.recheck() {
		return
	}
	ast.WalkStmts(nz.proc.Body, func(s ast.Stmt) bool {
		if nz.err != nil {
			return false
		}
		f, ok := s.(*ast.Foreach)
		if !ok || f.Kind != ast.IterNodes {
			return true
		}
		nz.maybeFlip(f)
		return false
	})
}

func (nz *normalizer) maybeFlip(f *ast.Foreach) {
	body := asBlock(f.Body)
	if len(body.Stmts) != 1 {
		return
	}
	il, ok := body.Stmts[0].(*ast.Foreach)
	if !ok || il.Kind == ast.IterNodes || !isPullLoop(il, f.Iter) {
		return
	}
	if il.Source != f.Iter {
		nz.fail(analysis.CodeParallelNest, il.P, "inner loop source %q must be the outer iterator %q", il.Source, f.Iter)
		return
	}
	// Edge variables bound to the inner iterator do not survive a flip.
	edgeUse := false
	ast.WalkStmts(il.Body, func(s ast.Stmt) bool {
		if d, ok := s.(*ast.VarDecl); ok && d.Type.Kind == ast.TEdge {
			edgeUse = true
		}
		return !edgeUse
	})
	if edgeUse {
		nz.fail(analysis.CodeEdgePull, il.P, "edge properties cannot be used in a message-pulling loop")
		return
	}

	var flipped ast.IterKind
	switch il.Kind {
	case ast.IterInNbrs:
		flipped = ast.IterOutNbrs
	case ast.IterOutNbrs:
		flipped = ast.IterInNbrs
	default:
		nz.fail(analysis.CodeUnsupported, il.P, "cannot flip %s iteration", il.Kind)
		return
	}

	// Split the inner filter: conjuncts that reference only the inner
	// iterator move to the new outer loop (sender side); the rest join
	// the outer filter on the new inner loop (receiver side).
	var newOuterF, newInnerF []ast.Expr
	for _, c := range conjuncts(il.Filter) {
		usesOuter := ast.UsesIdent(c, f.Iter)
		usesInner := ast.UsesIdent(c, il.Iter)
		if usesInner && !usesOuter {
			newOuterF = append(newOuterF, c)
		} else {
			newInnerF = append(newInnerF, c)
		}
	}
	innerFilter := conj(cloneOrNil(f.Filter), conjoin(newInnerF))

	newInner := &ast.Foreach{
		Iter: f.Iter, Source: il.Iter, Kind: flipped,
		Filter: innerFilter, Body: il.Body, P: il.P,
	}
	f.Iter = il.Iter
	f.Filter = conjoin(newOuterF)
	f.Body = blockOf(newInner)
	nz.trace.Record(RuleFlipEdges)
	if flipped == ast.IterInNbrs {
		nz.trace.Record(RuleIncomingNbrs)
	}
}
