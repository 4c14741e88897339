package core

import (
	"gmpregel/internal/gm/ast"
)

// lowerBFS rewrites every InBFS / InReverse traversal into the
// level-synchronous frontier-expansion form of §4.1:
//
//	Node_Prop<Int> _lev;  Node _root = <root>;
//	G._lev = INF;  _root._lev = 0;
//	Bool _fin = False;  Int _curr = 0;
//	While (!_fin) {
//	    _fin = True;
//	    Foreach (v: G.Nodes)(v._lev == _curr) { FWD' }     // user code
//	    Foreach (v: G.Nodes)(v._lev == _curr) {            // expansion
//	        Foreach (t: v.Nbrs)(t._lev == INF) {
//	            t._lev min= _curr + 1;
//	            _fin &= False;
//	        }
//	    }
//	    _curr = _curr + 1;
//	}
//	// reverse sweep, when present:
//	_curr = _curr - 1;
//	While (_curr >= 0) {
//	    Foreach (v: G.Nodes)(v._lev == _curr) { REV' }
//	    _curr = _curr - 1;
//	}
//
// Inside FWD'/REV', UpNbrs becomes InNbrs filtered to the previous level
// and DownNbrs becomes Nbrs filtered to the next level (the paper's
// "extra loop" for user code iterating BFS parents/children).
func (nz *normalizer) lowerBFS() {
	if !nz.recheck() {
		return
	}
	nz.proc.Body = nz.rewriteSeq(nz.proc.Body, func(out []ast.Stmt, s ast.Stmt) []ast.Stmt {
		if bfs, ok := s.(*ast.InBFS); ok {
			return append(out, nz.lowerOneBFS(bfs)...)
		}
		return append(out, s)
	})
}

func (nz *normalizer) lowerOneBFS(bfs *ast.InBFS) []ast.Stmt {
	nz.trace.Record(RuleBFSTraversal)
	g := bfs.Source
	lev := nz.nm.fresh("_lev")
	fin := nz.nm.fresh("_fin")
	curr := nz.nm.fresh("_curr")
	root := nz.nm.fresh("_root")

	var out []ast.Stmt
	out = append(out,
		&ast.VarDecl{Type: nodePropType(ast.TInt), Names: []string{lev}, P: bfs.P},
		&ast.VarDecl{Type: typeOfKind(ast.TNode), Names: []string{root}, Init: bfs.Root, P: bfs.P},
		// G._lev = INF;  (re-lowered by the bulk pass)
		&ast.Assign{LHS: propOf(ident(g), lev), Op: ast.OpSet, RHS: &ast.InfLit{P: bfs.P}, P: bfs.P},
		// _root._lev = 0;  (re-lowered by the random-access pass)
		&ast.Assign{LHS: propOf(ident(root), lev), Op: ast.OpSet, RHS: intLit(0), P: bfs.P},
		&ast.VarDecl{Type: typeOfKind(ast.TBool), Names: []string{fin}, Init: &ast.BoolLit{Value: false}, P: bfs.P},
		&ast.VarDecl{Type: typeOfKind(ast.TInt), Names: []string{curr}, Init: intLit(0), P: bfs.P},
	)

	levAt := func(target ast.Expr, delta int64) ast.Expr {
		rhs := ast.Expr(ident(curr))
		if delta > 0 {
			rhs = binop(ast.BinAdd, ident(curr), intLit(delta))
		} else if delta < 0 {
			rhs = binop(ast.BinSub, ident(curr), intLit(-delta))
		}
		return binop(ast.BinEq, propOf(target, lev), rhs)
	}

	// Forward loop body.
	var fwdBody []ast.Stmt
	fwdBody = append(fwdBody, &ast.Assign{LHS: ident(fin), Op: ast.OpSet, RHS: &ast.BoolLit{Value: true}, P: bfs.P})
	if userFwd := nz.rewriteBFSUserCode(bfs.Body, bfs.Iter, lev, curr); len(userFwd.Stmts) > 0 {
		filter := conj(levAt(ident(bfs.Iter), 0), cloneOrNil(bfs.Filter))
		fwdBody = append(fwdBody, &ast.Foreach{
			Iter: bfs.Iter, Source: g, Kind: ast.IterNodes,
			Filter: filter, Body: userFwd, P: bfs.P,
		})
	}
	expIter := nz.nm.fresh("_e")
	expansion := &ast.Foreach{
		Iter: bfs.Iter, Source: g, Kind: ast.IterNodes,
		Filter: levAt(ident(bfs.Iter), 0),
		Body: blockOf(&ast.Foreach{
			Iter: expIter, Source: bfs.Iter, Kind: ast.IterOutNbrs,
			Filter: binop(ast.BinEq, propOf(ident(expIter), lev), &ast.InfLit{P: bfs.P}),
			Body: blockOf(
				&ast.Assign{LHS: propOf(ident(expIter), lev), Op: ast.OpMin, RHS: binop(ast.BinAdd, ident(curr), intLit(1)), P: bfs.P},
				&ast.Assign{LHS: ident(fin), Op: ast.OpAnd, RHS: &ast.BoolLit{Value: false}, P: bfs.P},
			),
			P: bfs.P,
		}),
		P: bfs.P,
	}
	fwdBody = append(fwdBody, expansion,
		&ast.Assign{LHS: ident(curr), Op: ast.OpSet, RHS: binop(ast.BinAdd, ident(curr), intLit(1)), P: bfs.P})

	out = append(out, &ast.While{
		Cond: &ast.Unary{Op: ast.UnNot, X: ident(fin), P: bfs.P},
		Body: &ast.Block{Stmts: fwdBody},
		P:    bfs.P,
	})

	// Reverse sweep.
	if bfs.ReverseBody != nil {
		out = append(out, &ast.Assign{LHS: ident(curr), Op: ast.OpSet, RHS: binop(ast.BinSub, ident(curr), intLit(1)), P: bfs.P})
		revUser := nz.rewriteBFSUserCode(bfs.ReverseBody, bfs.Iter, lev, curr)
		revBody := []ast.Stmt{
			&ast.Foreach{
				Iter: bfs.Iter, Source: g, Kind: ast.IterNodes,
				Filter: conj(levAt(ident(bfs.Iter), 0), cloneOrNil(bfs.Filter)),
				Body:   revUser, P: bfs.P,
			},
			&ast.Assign{LHS: ident(curr), Op: ast.OpSet, RHS: binop(ast.BinSub, ident(curr), intLit(1)), P: bfs.P},
		}
		out = append(out, &ast.While{
			Cond: binop(ast.BinGe, ident(curr), intLit(0)),
			Body: &ast.Block{Stmts: revBody},
			P:    bfs.P,
		})
	}
	return out
}

// rewriteBFSUserCode clones the traversal body and rewrites UpNbrs /
// DownNbrs domains (in loops and reductions) into level-filtered
// InNbrs / Nbrs iterations.
func (nz *normalizer) rewriteBFSUserCode(body *ast.Block, iter, lev, curr string) *ast.Block {
	cl := body.CloneStmt().(*ast.Block)
	levFilter := func(who string, delta int64) ast.Expr {
		rhs := ast.Expr(ident(curr))
		if delta > 0 {
			rhs = binop(ast.BinAdd, ident(curr), intLit(delta))
		} else {
			rhs = binop(ast.BinSub, ident(curr), intLit(-delta))
		}
		return binop(ast.BinEq, propOf(ident(who), lev), rhs)
	}
	ast.WalkStmts(cl, func(s ast.Stmt) bool {
		if f, ok := s.(*ast.Foreach); ok {
			switch f.Kind {
			case ast.IterUpNbrs:
				f.Kind = ast.IterInNbrs
				f.Filter = conj(levFilter(f.Iter, -1), f.Filter)
			case ast.IterDownNbrs:
				f.Kind = ast.IterOutNbrs
				f.Filter = conj(levFilter(f.Iter, 1), f.Filter)
			}
		}
		return true
	})
	rewriteReduce := func(e ast.Expr) ast.Expr {
		r, ok := e.(*ast.Reduce)
		if !ok {
			return e
		}
		switch r.Domain {
		case ast.IterUpNbrs:
			r.Domain = ast.IterInNbrs
			r.Filter = conj(levFilter(r.Iter, -1), r.Filter)
		case ast.IterDownNbrs:
			r.Domain = ast.IterOutNbrs
			r.Filter = conj(levFilter(r.Iter, 1), r.Filter)
		}
		return r
	}
	ast.RewriteExprs(cl, rewriteReduce)
	return cl
}
