package ir

// WalkStmts calls f on every statement of ss in pre-order, descending
// into ForMsgs bodies and If branches.
func WalkStmts(ss []Stmt, f func(Stmt)) {
	for _, s := range ss {
		f(s)
		switch s := s.(type) {
		case ForMsgs:
			WalkStmts(s.Body, f)
		case If:
			WalkStmts(s.Then, f)
			WalkStmts(s.Else, f)
		}
	}
}

// RemapLocals returns a copy of the statement list with every local slot
// shifted by off (used when merging two vertex states' bodies, whose
// local slot spaces are concatenated).
func RemapLocals(ss []Stmt, off int) []Stmt {
	if off == 0 {
		return append([]Stmt(nil), ss...)
	}
	out := make([]Stmt, 0, len(ss))
	for _, s := range ss {
		out = append(out, remapStmt(s, off))
	}
	return out
}

func remapStmt(s Stmt, off int) Stmt {
	switch s := s.(type) {
	case SetLocal:
		s.Slot += off
		s.RHS = remapExpr(s.RHS, off)
		return s
	case SetScalar:
		s.RHS = remapExpr(s.RHS, off)
		return s
	case SetProp:
		s.RHS = remapExpr(s.RHS, off)
		return s
	case ContribAgg:
		s.RHS = remapExpr(s.RHS, off)
		return s
	case SendToNbrs:
		s.EdgeCond = remapExpr(s.EdgeCond, off)
		s.Payload = remapExprs(s.Payload, off)
		return s
	case SendTo:
		s.Target = remapExpr(s.Target, off)
		s.Payload = remapExprs(s.Payload, off)
		return s
	case SendToInNbrs:
		s.Payload = remapExprs(s.Payload, off)
		return s
	case ForMsgs:
		s.Body = RemapLocals(s.Body, off)
		return s
	case If:
		s.Cond = remapExpr(s.Cond, off)
		s.Then = RemapLocals(s.Then, off)
		s.Else = RemapLocals(s.Else, off)
		return s
	case Return:
		s.Value = remapExpr(s.Value, off)
		return s
	default:
		return s
	}
}

func remapExprs(es []Expr, off int) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = remapExpr(e, off)
	}
	return out
}

func remapExpr(e Expr, off int) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case LocalRef:
		e.Slot += off
		return e
	case Binary:
		e.L = remapExpr(e.L, off)
		e.R = remapExpr(e.R, off)
		return e
	case Unary:
		e.X = remapExpr(e.X, off)
		return e
	case Ternary:
		e.Cond = remapExpr(e.Cond, off)
		e.Then = remapExpr(e.Then, off)
		e.Else = remapExpr(e.Else, off)
		return e
	default:
		return e
	}
}
