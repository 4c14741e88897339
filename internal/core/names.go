package core

import (
	"fmt"

	"gmpregel/internal/gm/ast"
)

// namer generates fresh identifiers that cannot collide with any name
// already present in the procedure.
type namer struct {
	used map[string]bool
	n    int
}

func newNamer(p *ast.Procedure) *namer {
	nm := &namer{used: map[string]bool{}}
	for _, prm := range p.Params {
		nm.used[prm.Name] = true
	}
	collect := func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.VarDecl:
			for _, n := range s.Names {
				nm.used[n] = true
			}
		case *ast.Foreach:
			nm.used[s.Iter] = true
		case *ast.InBFS:
			nm.used[s.Iter] = true
		}
		return true
	}
	ast.WalkStmts(p.Body, collect)
	ast.WalkExprs(p.Body, func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			nm.used[e.Name] = true
		case *ast.Reduce:
			nm.used[e.Iter] = true
		}
		return true
	})
	return nm
}

// fresh returns a new unused identifier with the given prefix.
func (nm *namer) fresh(prefix string) string {
	for {
		name := fmt.Sprintf("%s%d", prefix, nm.n)
		nm.n++
		if !nm.used[name] {
			nm.used[name] = true
			return name
		}
	}
}

// ident builds an identifier expression.
func ident(name string) *ast.Ident { return &ast.Ident{Name: name} }

// intLit builds an integer literal.
func intLit(v int64) *ast.IntLit { return &ast.IntLit{Value: v} }

// prop builds target.prop.
func propOf(target ast.Expr, name string) *ast.PropAccess {
	return &ast.PropAccess{Target: target, Prop: name}
}

// binop builds a binary expression.
func binop(op ast.BinOp, l, r ast.Expr) *ast.Binary {
	return &ast.Binary{Op: op, L: l, R: r}
}

// conj returns a ∧ b, eliding nils.
func conj(a, b ast.Expr) ast.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return binop(ast.BinAnd, a, b)
}

// conjuncts flattens a chain of && into its conjuncts.
func conjuncts(e ast.Expr) []ast.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*ast.Binary); ok && b.Op == ast.BinAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []ast.Expr{e}
}

// conjoin rebuilds a conjunction from parts (nil when empty).
func conjoin(parts []ast.Expr) ast.Expr {
	var out ast.Expr
	for _, p := range parts {
		out = conj(out, p)
	}
	return out
}

// replaceIdentInStmt substitutes name throughout a statement subtree.
func replaceIdentInStmt(s ast.Stmt, name string, repl ast.Expr) {
	ast.RewriteExprs(s, func(x ast.Expr) ast.Expr {
		if id, ok := x.(*ast.Ident); ok && id.Name == name {
			return repl.CloneExpr()
		}
		return x
	})
}

// blockOf wraps statements in a block.
func blockOf(stmts ...ast.Stmt) *ast.Block { return &ast.Block{Stmts: stmts} }

// asBlock returns s as a block, wrapping if needed.
func asBlock(s ast.Stmt) *ast.Block {
	if b, ok := s.(*ast.Block); ok {
		return b
	}
	return blockOf(s)
}

// typeOfKind builds a scalar type.
func typeOfKind(k ast.TypeKind) *ast.Type { return &ast.Type{Kind: k} }

// nodePropType builds Node_Prop<k>.
func nodePropType(k ast.TypeKind) *ast.Type {
	return &ast.Type{Kind: ast.TNodeProp, Elem: typeOfKind(k)}
}
