package core

import (
	"fmt"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/gm/sema"
)

// compileError is a compilation failure with a rule-oriented message.
type compileError struct {
	msg string
}

func (e *compileError) Error() string { return e.msg }

func errf(format string, args ...interface{}) error {
	return &compileError{msg: fmt.Sprintf(format, args...)}
}

// normalizer runs the AST→AST lowering passes. Sema is re-run between
// passes so type and symbol information stays fresh.
type normalizer struct {
	proc  *ast.Procedure
	nm    *namer
	trace *Trace
	info  *sema.Info
	err   error
}

func (nz *normalizer) recheck() bool {
	if nz.err != nil {
		return false
	}
	info, err := sema.Check(nz.proc)
	if err != nil {
		nz.err = errf("internal: transformed program fails sema: %v", err)
		return false
	}
	nz.info = info
	return true
}

func (nz *normalizer) fail(format string, args ...interface{}) {
	if nz.err == nil {
		nz.err = errf(format, args...)
	}
}

// rewriteSeq is the statement-list walker every lowering pass shares. It
// hands each statement of b to leaf, which returns out extended with the
// statement's replacement, and then rewrites the branches of an If, the
// body of a While and a nested Block the same way — leaf sees a compound
// statement before its children, so the names it mints come first.
// Foreach and InBFS bodies are the leaf's to handle. The first error
// stops the walk and leaves b as it was.
func (nz *normalizer) rewriteSeq(b *ast.Block, leaf func(out []ast.Stmt, s ast.Stmt) []ast.Stmt) *ast.Block {
	var out []ast.Stmt
	for _, s := range b.Stmts {
		out = leaf(out, s)
		if nz.err == nil {
			switch s := s.(type) {
			case *ast.If:
				s.Then = nz.rewriteSeq(asBlock(s.Then), leaf)
				if s.Else != nil {
					s.Else = nz.rewriteSeq(asBlock(s.Else), leaf)
				}
			case *ast.While:
				s.Body = nz.rewriteSeq(asBlock(s.Body), leaf)
			case *ast.Block:
				nz.rewriteSeq(s, leaf)
			}
		}
		if nz.err != nil {
			return b
		}
	}
	b.Stmts = out
	return b
}

// ---- Pass: lower bulk property assignments (G.prop = expr) ----

// lowerBulkAssigns rewrites graph-wide property assignments into
// vertex-parallel loops, with the graph identifier acting as the
// implicit iterator in the RHS.
func (nz *normalizer) lowerBulkAssigns() {
	if !nz.recheck() {
		return
	}
	g := nz.info.Graph.Name
	nz.proc.Body = nz.rewriteSeq(nz.proc.Body, func(out []ast.Stmt, s ast.Stmt) []ast.Stmt {
		if a, ok := s.(*ast.Assign); ok {
			if pa, ok := a.LHS.(*ast.PropAccess); ok {
				if id, ok := pa.Target.(*ast.Ident); ok && id.Name == g {
					return append(out, nz.lowerOneBulk(a, g))
				}
			}
		}
		return append(out, s)
	})
}

func (nz *normalizer) lowerOneBulk(s *ast.Assign, g string) ast.Stmt {
	iter := nz.nm.fresh("_b")
	pa := s.LHS.(*ast.PropAccess)
	rhs := substGraphIdent(s.RHS, g, iter)
	body := &ast.Assign{
		LHS: propOf(ident(iter), pa.Prop),
		Op:  s.Op,
		RHS: rhs,
		P:   s.P,
	}
	return &ast.Foreach{Iter: iter, Source: g, Kind: ast.IterNodes, Body: blockOf(body), P: s.P}
}

// substGraphIdent replaces uses of the graph identifier with the
// iterator, except when the graph is the target of a graph builtin call
// (G.NumNodes() etc.).
func substGraphIdent(e ast.Expr, g, iter string) ast.Expr {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == g {
			return ident(iter)
		}
		return e
	case *ast.Call:
		// Keep graph-call targets intact.
		if id, ok := e.Target.(*ast.Ident); ok && id.Name == g {
			for i := range e.Args {
				e.Args[i] = substGraphIdent(e.Args[i], g, iter)
			}
			return e
		}
		e.Target = substGraphIdent(e.Target, g, iter)
		for i := range e.Args {
			e.Args[i] = substGraphIdent(e.Args[i], g, iter)
		}
		return e
	case *ast.PropAccess:
		e.Target = substGraphIdent(e.Target, g, iter)
		return e
	case *ast.Binary:
		e.L = substGraphIdent(e.L, g, iter)
		e.R = substGraphIdent(e.R, g, iter)
		return e
	case *ast.Unary:
		e.X = substGraphIdent(e.X, g, iter)
		return e
	case *ast.Ternary:
		e.Cond = substGraphIdent(e.Cond, g, iter)
		e.Then = substGraphIdent(e.Then, g, iter)
		e.Else = substGraphIdent(e.Else, g, iter)
		return e
	case *ast.Reduce:
		if e.Filter != nil {
			e.Filter = substGraphIdent(e.Filter, g, iter)
		}
		if e.Body != nil {
			e.Body = substGraphIdent(e.Body, g, iter)
		}
		return e
	default:
		return e
	}
}

// ---- Pass: lower group reductions ----

// lowerSeqReduces extracts Sum/Count/… expressions appearing in
// sequential statements into explicit accumulation loops.
func (nz *normalizer) lowerSeqReduces() {
	if !nz.recheck() {
		return
	}
	nz.proc.Body = nz.rewriteSeq(nz.proc.Body, nz.reduceLeaf(""))
}

// lowerParReduces extracts neighborhood reductions used inside
// vertex-parallel loops into nested accumulation loops. The resulting
// outer-scoped accumulators are later converted by the dissection pass.
// It runs after lowerSeqReduces, whose accumulation loops it must see
// typed.
func (nz *normalizer) lowerParReduces() {
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
		if r := nestedReduce(asBlock(f.Body)); r != nil {
			// Dissection splits the loop only at a statement of its body,
			// so the accumulation loop must be one.
			nz.fail("%s: a neighborhood reduction in an If or a nested block of a vertex loop cannot be transformed; assign it to a variable directly in the loop body", r.P)
			return false
		}
		f.Body = nz.rewriteSeq(asBlock(f.Body), nz.reduceLeaf(f.Iter))
		return false // handled this parallel subtree
	})
}

// nestedReduce returns the first neighborhood reduction in a branch of
// an If or in a nested block of the vertex-loop body b, or nil. A
// reduction in an If's own condition does not count: reduceLeaf
// extracts it before the If.
func nestedReduce(b *ast.Block) *ast.Reduce {
	var found *ast.Reduce
	visit := func(x ast.Expr) bool {
		if r, ok := x.(*ast.Reduce); ok && r.Domain != ast.IterNodes && found == nil {
			found = r
		}
		return found == nil
	}
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ast.If:
			ast.WalkExprs(s.Then, visit)
			ast.WalkExprs(s.Else, visit)
		case *ast.Block:
			ast.WalkExprs(s, visit)
		}
	}
	return found
}

// reduceLeaf is the rewriteSeq leaf of both reduction passes: in
// sequential code when outer is "", else in the body of the vertex loop
// over outer (where sema admits no While or Return).
func (nz *normalizer) reduceLeaf(outer string) func([]ast.Stmt, ast.Stmt) []ast.Stmt {
	return func(out []ast.Stmt, s ast.Stmt) []ast.Stmt {
		switch s := s.(type) {
		case *ast.Assign:
			return nz.extractReduces(out, s, &s.RHS, outer)
		case *ast.VarDecl:
			if s.Init != nil {
				return nz.extractReduces(out, s, &s.Init, outer)
			}
		case *ast.Return:
			if s.Value != nil {
				return nz.extractReduces(out, s, &s.Value, outer)
			}
		case *ast.If:
			if findReduce(s.Cond) != nil {
				// Extract from the condition before the If.
				tmp := &ast.VarDecl{Type: typeOfKind(ast.TBool), Names: []string{nz.nm.fresh("_c")}, Init: s.Cond, P: s.P}
				s.Cond = ident(tmp.Names[0])
				out = nz.extractReduces(out, tmp, &tmp.Init, outer)
			}
		case *ast.While:
			if findReduce(s.Cond) != nil {
				nz.fail("%s: a group reduction in a While condition is not supported; assign it to a variable inside the loop", s.P)
			}
		case *ast.Foreach:
			// Inside a vertex loop, reductions in an inner neighbor loop
			// would be triply nested — reject.
			if outer == "" {
				break
			}
			if r := blockHasReduce(s); r != nil {
				nz.fail("%s: reductions nested inside neighbor loops are not supported", r.P)
			}
		}
		return append(out, s)
	}
}

// extractReduces repeatedly pulls reductions out of *ep, appending
// accumulation loops to out, then appends s itself. outer is as in
// reduceLeaf.
func (nz *normalizer) extractReduces(out []ast.Stmt, s ast.Stmt, ep *ast.Expr, outer string) []ast.Stmt {
	for {
		r := findReduce(*ep)
		if r == nil {
			break
		}
		var bad string
		switch {
		case outer == "" && r.Domain != ast.IterNodes:
			bad = "a neighborhood reduction is only allowed inside a vertex-parallel loop"
		case outer != "" && r.Domain == ast.IterNodes:
			bad = "a whole-graph reduction inside a vertex-parallel loop is not Pregel-compatible"
		case outer != "" && r.Source != outer:
			bad = fmt.Sprintf("neighborhood reduction source %q must be the enclosing loop iterator %q", r.Source, outer)
		}
		if bad != "" {
			nz.fail("%s: %s", r.P, bad)
			return append(out, s)
		}
		pre, repl := nz.lowerOneReduce(r, r.Source)
		out = append(out, pre...)
		*ep = ast.RewriteExpr(*ep, func(x ast.Expr) ast.Expr {
			if x == ast.Expr(r) {
				return repl
			}
			return x
		})
	}
	return append(out, s)
}

// findReduce returns the first reduction in e (pre-order), or nil.
func findReduce(e ast.Expr) *ast.Reduce {
	var found *ast.Reduce
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if found != nil {
			return false
		}
		if r, ok := x.(*ast.Reduce); ok {
			found = r
			return false
		}
		return true
	})
	return found
}

// lowerOneReduce builds the accumulator declaration(s) plus the
// accumulation Foreach for one reduction, returning the statements and
// the replacement expression. The source may be the graph (sequential
// context) or a node-valued iterator (parallel context).
func (nz *normalizer) lowerOneReduce(r *ast.Reduce, source string) ([]ast.Stmt, ast.Expr) {
	kind := nz.reduceResultKind(r)
	acc := nz.nm.fresh("_r")

	if r.Kind == ast.RAvg {
		sumName := nz.nm.fresh("_s")
		cntName := nz.nm.fresh("_c")
		decls := []ast.Stmt{
			&ast.VarDecl{Type: typeOfKind(ast.TDouble), Names: []string{sumName}, Init: &ast.FloatLit{Value: 0, Text: "0.0"}, P: r.P},
			&ast.VarDecl{Type: typeOfKind(ast.TInt), Names: []string{cntName}, Init: intLit(0), P: r.P},
		}
		body := blockOf(
			&ast.Assign{LHS: ident(sumName), Op: ast.OpAdd, RHS: r.Body.CloneExpr(), P: r.P},
			&ast.Assign{LHS: ident(cntName), Op: ast.OpAdd, RHS: intLit(1), P: r.P},
		)
		loop := &ast.Foreach{Iter: r.Iter, Source: source, Kind: r.Domain, Filter: cloneOrNil(r.Filter), Body: body, P: r.P}
		repl := &ast.Ternary{
			Cond: binop(ast.BinEq, ident(cntName), intLit(0)),
			Then: &ast.FloatLit{Value: 0, Text: "0.0"},
			Else: binop(ast.BinDiv, ident(sumName), binop(ast.BinMul, &ast.FloatLit{Value: 1, Text: "1.0"}, ident(cntName))),
			P:    r.P,
		}
		return append(decls, loop), repl
	}

	var init ast.Expr
	var op ast.AssignOp
	var body ast.Expr
	switch r.Kind {
	case ast.RSum:
		init, op, body = zeroLit(kind), ast.OpAdd, r.Body.CloneExpr()
	case ast.RProduct:
		init, op, body = oneLit(kind), ast.OpMul, r.Body.CloneExpr()
	case ast.RCount:
		init, op, body = intLit(0), ast.OpAdd, intLit(1)
	case ast.RMax:
		init, op, body = &ast.InfLit{Neg: true, P: r.P}, ast.OpMax, r.Body.CloneExpr()
	case ast.RMin:
		init, op, body = &ast.InfLit{P: r.P}, ast.OpMin, r.Body.CloneExpr()
	case ast.RExist:
		init, op, body = &ast.BoolLit{Value: false}, ast.OpOr, &ast.BoolLit{Value: true}
	case ast.RAll:
		init, op = &ast.BoolLit{Value: true}, ast.OpAnd
		if r.Body != nil {
			body = r.Body.CloneExpr()
		} else {
			body = &ast.BoolLit{Value: true}
		}
	default:
		nz.fail("%s: unsupported reduction %s", r.P, r.Kind)
		return nil, intLit(0)
	}
	decl := &ast.VarDecl{Type: typeOfKind(kind), Names: []string{acc}, Init: init, P: r.P}
	loop := &ast.Foreach{
		Iter: r.Iter, Source: source, Kind: r.Domain, Filter: cloneOrNil(r.Filter),
		Body: blockOf(&ast.Assign{LHS: ident(acc), Op: op, RHS: body, P: r.P}),
		P:    r.P,
	}
	return []ast.Stmt{decl, loop}, ident(acc)
}

func (nz *normalizer) reduceResultKind(r *ast.Reduce) ast.TypeKind {
	if t := nz.info.TypeOf(r); t != nil && t.Kind != ast.TInvalid {
		return t.Kind
	}
	return ast.TInt
}

func zeroLit(k ast.TypeKind) ast.Expr {
	if k.IsFloating() {
		return &ast.FloatLit{Value: 0, Text: "0.0"}
	}
	return intLit(0)
}

func oneLit(k ast.TypeKind) ast.Expr {
	if k.IsFloating() {
		return &ast.FloatLit{Value: 1, Text: "1.0"}
	}
	return intLit(1)
}

func cloneOrNil(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	return e.CloneExpr()
}

func blockHasReduce(s ast.Stmt) *ast.Reduce {
	var found *ast.Reduce
	ast.WalkExprs(s, func(e ast.Expr) bool {
		if r, ok := e.(*ast.Reduce); ok && found == nil {
			found = r
		}
		return found == nil
	})
	return found
}

// ---- Pass: lower random access in sequential phase (§4.1) ----

// lowerRandomAccess rewrites sequential-phase accesses to a specific
// node's property (s.dist = 0, x = s.dist) into an extra parallel loop
// filtered on identity with the node variable.
func (nz *normalizer) lowerRandomAccess() {
	if !nz.recheck() {
		return
	}
	nz.proc.Body = nz.rewriteSeq(nz.proc.Body, func(out []ast.Stmt, s ast.Stmt) []ast.Stmt {
		var read ast.Expr // must read no random property
		where := "a condition"
		switch s := s.(type) {
		case *ast.Assign:
			return nz.lowerRandomAccessAssign(out, s)
		case *ast.VarDecl:
			if s.Init != nil && nz.seqNodePropAccess(s.Init) != nil {
				// T x = s.prop ...  →  T x; Foreach(...) { x = ...; }
				decl := &ast.VarDecl{Type: s.Type, Names: s.Names, P: s.P}
				assign := &ast.Assign{LHS: ident(s.Names[0]), Op: ast.OpSet, RHS: s.Init, P: s.P}
				return nz.lowerRandomAccessAssign(append(out, decl), assign)
			}
		case *ast.If:
			read = s.Cond
		case *ast.While:
			read = s.Cond
		case *ast.Return:
			read, where = s.Value, "Return"
		}
		if pa := nz.seqNodePropAccess(read); pa != nil {
			nz.fail("%s: random property read in %s is not supported; assign it to a variable first", pa.P, where)
		}
		return append(out, s)
	})
}

// seqNodePropAccess finds a property access through a node-valued
// variable in e (sequential context), or nil.
func (nz *normalizer) seqNodePropAccess(e ast.Expr) *ast.PropAccess {
	if e == nil {
		return nil
	}
	var found *ast.PropAccess
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if found != nil {
			return false
		}
		pa, ok := x.(*ast.PropAccess)
		if !ok {
			return true
		}
		if id, ok := pa.Target.(*ast.Ident); ok {
			if sym := nz.info.Uses[id]; sym != nil && sym.Kind == sema.SymScalar && sym.Type.Kind == ast.TNode {
				found = pa
				return false
			}
		}
		return true
	})
	return found
}

func (nz *normalizer) lowerRandomAccessAssign(out []ast.Stmt, s *ast.Assign) []ast.Stmt {
	lhsPA, lhsIsRandom := s.LHS.(*ast.PropAccess)
	var lhsVar string
	if lhsIsRandom {
		id, ok := lhsPA.Target.(*ast.Ident)
		if !ok {
			nz.fail("%s: unsupported property target", lhsPA.P)
			return out
		}
		sym := nz.info.Uses[id]
		if sym == nil || sym.Kind != sema.SymScalar || sym.Type.Kind != ast.TNode {
			// Bulk assigns were already lowered; anything else here is a
			// stray property write in sequential context.
			nz.fail("%s: property write through %q in sequential context is not supported", lhsPA.P, id.Name)
			return out
		}
		lhsVar = id.Name
	}
	rhsPA := nz.seqNodePropAccess(s.RHS)
	if !lhsIsRandom && rhsPA == nil {
		return append(out, s)
	}
	nz.trace.Record(RuleRandomAccessSeq)
	iter := nz.nm.fresh("_n")
	// Determine the node variable driving the loop filter: the LHS
	// target if writing, otherwise the RHS access target.
	var filterVar string
	if lhsIsRandom {
		filterVar = lhsVar
	} else {
		filterVar = rhsPA.Target.(*ast.Ident).Name
	}
	// Rewrite accesses through filterVar to the iterator.
	newLHS := s.LHS
	if lhsIsRandom {
		newLHS = propOf(ident(iter), lhsPA.Prop)
	}
	newRHS := replaceNodeVarProps(s.RHS, filterVar, iter)
	if pa := nz.seqNodePropAccessAfter(newRHS, filterVar); pa != nil {
		nz.fail("%s: random reads through more than one node variable in a single statement are not supported", pa.P)
		return out
	}
	body := &ast.Assign{LHS: newLHS, Op: s.Op, RHS: newRHS, P: s.P}
	loop := &ast.Foreach{
		Iter: iter, Source: nz.info.Graph.Name, Kind: ast.IterNodes,
		Filter: binop(ast.BinEq, ident(iter), ident(filterVar)),
		Body:   blockOf(body),
		P:      s.P,
	}
	return append(out, loop)
}

// replaceNodeVarProps rewrites v.prop → iter.prop for the given node var.
func replaceNodeVarProps(e ast.Expr, v, iter string) ast.Expr {
	return ast.RewriteExpr(e, func(x ast.Expr) ast.Expr {
		if pa, ok := x.(*ast.PropAccess); ok {
			if id, ok := pa.Target.(*ast.Ident); ok && id.Name == v {
				return propOf(ident(iter), pa.Prop)
			}
		}
		return x
	})
}

// seqNodePropAccessAfter reports remaining random accesses through a
// variable other than v.
func (nz *normalizer) seqNodePropAccessAfter(e ast.Expr, v string) *ast.PropAccess {
	pa := nz.seqNodePropAccess(e)
	if pa == nil {
		return nil
	}
	if id, ok := pa.Target.(*ast.Ident); ok && id.Name == v {
		return nil
	}
	return pa
}
