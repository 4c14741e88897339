// Package analysis runs dataflow analyses over a typed Green-Marl AST
// and reports its findings as Diagnostics with stable codes, severities,
// and source positions.
//
// The analyses mirror the static reasoning the CGO 2014 compiler does
// while mapping Green-Marl onto Pregel:
//
//   - write-write conflicts: plain `=` property writes that several
//     vertices (or several messages) may race on, where only reduction
//     assignments (min=, max=, +=, ...) merge deterministically (GM2001);
//   - cross-superstep read-after-write hazards: neighbor-property reads
//     of a value the same parallel region writes, which BSP semantics
//     resolve to the previous superstep's value via an extra message
//     exchange (GM2002);
//   - unused/dead properties and dead writes (GM3001, GM3002);
//   - message-payload width estimation per communication, using the same
//     maximal-sender-subexpression dataflow as the translator (GM4001,
//     GM4002);
//   - Pregel-canonicalizability explanations: which transformation rule
//     a construct triggers, and where (GM5001..GM5005).
//
// The analyses report no errors: whether a program is Pregel-canonical
// is the compiler's verdict (internal/core), which rejects it with a
// *Diagnostic carrying GM4003, GM5006..GM5009 or GM5011. The entry
// points are AnalyzeProcedure (typed AST in, diagnostics out) and
// FromError (a front-end or compile error in, diagnostics out).
package analysis

import (
	"fmt"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/gm/parser"
	"gmpregel/internal/gm/sema"
	"gmpregel/internal/gm/token"
)

// FromError converts a compile error into diagnostics: parser errors
// become GM0001, each semantic error becomes one GM1001, a compiler
// rejection is its own *Diagnostic, and anything else becomes a
// position-less GM0002.
func FromError(err error) List {
	switch e := err.(type) {
	case *Diagnostic:
		return List{*e}
	case *parser.Error:
		return List{{Code: CodeParse, Severity: SevError, Pos: e.Pos, Msg: e.Msg}}
	case sema.ErrorList:
		out := make(List, 0, len(e))
		for _, se := range e {
			out = append(out, Diagnostic{Code: CodeSema, Severity: SevError, Pos: se.Pos, Msg: se.Msg})
		}
		return out
	case *sema.Error:
		return List{{Code: CodeSema, Severity: SevError, Pos: e.Pos, Msg: e.Msg}}
	default:
		return List{{Code: CodeOther, Severity: SevError, Msg: err.Error()}}
	}
}

// AnalyzeProcedure runs all analyses over a sema-checked procedure and
// returns the findings sorted by position. info must come from a
// successful sema.Check of proc.
func AnalyzeProcedure(proc *ast.Procedure, info *sema.Info) List {
	a := &analyzer{
		proc:       proc,
		info:       info,
		propByName: map[string]*sema.Symbol{},
		declPos:    map[*sema.Symbol]token.Pos{},
	}
	for _, p := range info.Props {
		a.propByName[p.Name] = p
	}
	for d, syms := range info.DeclOf {
		for _, s := range syms {
			a.declPos[s] = d.P
		}
	}
	for _, prm := range proc.Params {
		if s := a.propByName[prm.Name]; s != nil && s.IsParam {
			a.declPos[s] = prm.P
		}
	}
	a.liveness()
	a.seqStmt(proc.Body)
	a.diags.Sort()
	return a.diags
}

type analyzer struct {
	proc  *ast.Procedure
	info  *sema.Info
	diags List

	// propByName resolves property names to symbols (the language
	// forbids shadowing, so property names are unique per procedure).
	propByName map[string]*sema.Symbol
	// declPos locates each property symbol's declaration.
	declPos map[*sema.Symbol]token.Pos
}

func (a *analyzer) add(code string, sev Severity, p token.Pos, format string, args ...interface{}) {
	a.diags = append(a.diags, Diagnostic{Code: code, Severity: sev, Pos: p, Msg: fmt.Sprintf(format, args...)})
}

func (a *analyzer) addHint(code string, sev Severity, p token.Pos, hint, format string, args ...interface{}) {
	a.diags = append(a.diags, Diagnostic{Code: code, Severity: sev, Pos: p, Msg: fmt.Sprintf(format, args...), Hint: hint})
}

// symOf resolves an identifier expression to its symbol.
func (a *analyzer) symOf(e ast.Expr) *sema.Symbol {
	if id, ok := e.(*ast.Ident); ok {
		return a.info.Uses[id]
	}
	return nil
}

// isNodeScalar reports whether sym is a node-valued variable (a random
// write/read target, as opposed to an iterator).
func isNodeScalar(sym *sema.Symbol) bool {
	return sym != nil && sym.Kind == sema.SymScalar && sym.Type != nil && sym.Type.Kind == ast.TNode
}

// ---- Sequential-context walk ----

// seqStmt visits statements in sequential (master) context, entering a
// parallel region at each vertex loop or BFS traversal.
func (a *analyzer) seqStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		for _, c := range s.Stmts {
			a.seqStmt(c)
		}
	case *ast.VarDecl:
		if s.Init != nil {
			a.seqExpr(s.Init)
		}
	case *ast.Assign:
		a.seqExpr(s.RHS)
		if pa, ok := s.LHS.(*ast.PropAccess); ok {
			a.seqLValue(pa)
		}
	case *ast.Return:
		if s.Value != nil {
			a.seqExpr(s.Value)
		}
	case *ast.If:
		a.seqExpr(s.Cond)
		a.seqStmt(s.Then)
		if s.Else != nil {
			a.seqStmt(s.Else)
		}
	case *ast.While:
		a.seqExpr(s.Cond)
		if containsParallel(s.Body) {
			a.add(CodeLoopDissect, SevInfo, s.P,
				"sequential loop around parallel work: the compiler dissects each iteration into supersteps, and state merging cannot cross the loop boundary")
		}
		a.seqStmt(s.Body)
	case *ast.Foreach:
		// Sema guarantees sequential-context Foreach iterates G.Nodes.
		a.regionForeach(s)
	case *ast.InBFS:
		a.add(CodeBFS, SevInfo, s.P,
			"InBFS lowers to level-synchronous supersteps (BFS Traversal rule)%s",
			map[bool]string{true: "; InReverse adds a backward sweep", false: ""}[s.ReverseBody != nil])
		a.regionBFS(s)
	}
}

// seqLValue flags sequential random writes (`s.prop = ...` through a
// node variable), which the Random Access rule lowers to a filtered
// one-superstep parallel loop.
func (a *analyzer) seqLValue(pa *ast.PropAccess) {
	if isNodeScalar(a.symOf(pa.Target)) {
		a.add(CodeRandomAccess, SevInfo, pa.P,
			"random access to %q through node variable: the Random Access rule lowers this to a filtered vertex-parallel loop (one extra superstep)", pa.Prop)
	}
}

// seqExpr scans a sequential-context expression for random property
// accesses and whole-graph reductions (which are parallel regions of
// their own and may contain neighbor communications).
func (a *analyzer) seqExpr(e ast.Expr) {
	ast.WalkExpr(e, func(x ast.Expr) bool {
		switch x := x.(type) {
		case *ast.PropAccess:
			a.seqLValue(x) // same lowering applies to reads
		case *ast.Reduce:
			a.regionReduce(x)
			return false
		}
		return true
	})
}

// regionReduce treats a sequential whole-graph reduction as a parallel
// region (the normalizer lowers it to a vertex loop + aggregator).
func (a *analyzer) regionReduce(red *ast.Reduce) {
	if red.Domain != ast.IterNodes {
		return // the compiler rejects it (GM5006)
	}
	r := &regionCtx{iter: a.info.IterOf[red], written: map[*sema.Symbol][]token.Pos{}}
	if red.Filter != nil {
		a.parExpr(red.Filter, r)
	}
	if red.Body != nil {
		a.parExpr(red.Body, r)
	}
}

// containsParallel reports whether s contains a vertex loop, traversal,
// or whole-graph reduction.
func containsParallel(s ast.Stmt) bool {
	found := false
	ast.WalkStmts(s, func(st ast.Stmt) bool {
		switch st.(type) {
		case *ast.Foreach, *ast.InBFS:
			found = true
		}
		return !found
	})
	if !found {
		ast.WalkExprs(s, func(e ast.Expr) bool {
			if _, ok := e.(*ast.Reduce); ok {
				found = true
			}
			return !found
		})
	}
	return found
}
