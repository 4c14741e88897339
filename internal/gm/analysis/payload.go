package analysis

import (
	"strings"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/gm/sema"
	"gmpregel/internal/gm/token"
	"gmpregel/internal/ir"
)

// Analysis 4: message-payload width estimation. For every neighbor
// communication the translator runs the paper's payload dataflow: each
// maximal sender-evaluable subexpression that the receiver side reads
// becomes one (deduplicated) message field. This file mirrors that
// dataflow at the source level — before lowering — so the estimate can
// be reported next to the construct that causes it, using the same
// ir.Kind wire widths as internal/core/translate_comm.go.

// payloadField is one estimated message field.
type payloadField struct {
	expr ast.Expr
	name string
	kind ir.Kind
}

// siteCtx describes one communication site while its payload is built.
type siteCtx struct {
	// sender evaluates payload expressions; recv consumes them. For a
	// push loop the sender is the outer (region) iterator; for a pull
	// loop or reduction, flipping makes the inner iterator the sender.
	sender, recv *sema.Symbol
	// outerIsSender tells which side region-scoped parallel locals
	// belong to.
	outerIsSender bool

	fields []payloadField
	keys   map[string]bool
}

// payloadOfLoop estimates the message of one inner neighbor Foreach.
func (a *analyzer) payloadOfLoop(f *ast.Foreach, r *regionCtx, pull bool) {
	inner := a.info.IterOf[f]
	sc := &siteCtx{keys: map[string]bool{}}
	if pull {
		sc.sender, sc.recv, sc.outerIsSender = inner, r.iter, false
	} else {
		sc.sender, sc.recv, sc.outerIsSender = r.iter, inner, true
	}
	for _, c := range conjuncts(f.Filter) {
		snd, rcv := a.refSides(c, sc)
		if rcv || !snd {
			// Receiver-involved conjuncts are evaluated after delivery;
			// their sender-side parts must travel in the message.
			// Sender-only (and iterator-free) conjuncts become guards.
			a.payloadFields(c, sc)
		}
	}
	a.payloadStmts(f.Body, sc)
	a.emitPayload(f.P, sc, r)
}

// payloadOfReduce estimates the message of a neighborhood reduction
// (always a pull: the outer vertex accumulates its neighbors' values).
func (a *analyzer) payloadOfReduce(red *ast.Reduce, r *regionCtx) {
	sc := &siteCtx{sender: a.info.IterOf[red], recv: r.iter, outerIsSender: false, keys: map[string]bool{}}
	for _, c := range conjuncts(red.Filter) {
		snd, rcv := a.refSides(c, sc)
		if rcv || !snd {
			a.payloadFields(c, sc)
		}
	}
	if red.Body != nil {
		a.payloadFields(red.Body, sc)
	}
	a.emitPayload(red.P, sc, r)
}

// payloadStmts collects payload fields from the receiver-evaluated
// statements of an inner loop body.
func (a *analyzer) payloadStmts(s ast.Stmt, sc *siteCtx) {
	switch s := s.(type) {
	case *ast.Block:
		for _, c := range s.Stmts {
			a.payloadStmts(c, sc)
		}
	case *ast.If:
		// The translator compiles conditionals on the receiver, so the
		// condition's sender-side parts travel in the message.
		a.payloadFields(s.Cond, sc)
		a.payloadStmts(s.Then, sc)
		if s.Else != nil {
			a.payloadStmts(s.Else, sc)
		}
	case *ast.Assign:
		if a.assignTargetIsRecv(s, sc) {
			a.payloadFields(s.RHS, sc)
		}
	}
}

// assignTargetIsRecv reports whether the assignment lands on the
// receiving side of the communication (a property of the receiver
// iterator, or a scalar owned by the receiver's region side).
func (a *analyzer) assignTargetIsRecv(s *ast.Assign, sc *siteCtx) bool {
	switch lhs := s.LHS.(type) {
	case *ast.PropAccess:
		// A random write is its own message type, not this payload.
		return a.symOf(lhs.Target) == sc.recv
	case *ast.Ident:
		sym := a.info.Uses[lhs]
		if sym == nil || sym.Kind != sema.SymScalar {
			return false
		}
		// Region-scoped and global scalars accumulate on the outer side.
		return !sc.outerIsSender
	}
	return false
}

// payloadFields finds the maximal sender-evaluable subexpressions of a
// receiver-evaluated expression and records each as a field (mirroring
// recvExpr in translate_comm.go).
func (a *analyzer) payloadFields(e ast.Expr, sc *siteCtx) {
	snd, rcv := a.refSides(e, sc)
	if snd && !rcv {
		a.addField(e, sc)
		return
	}
	if !snd {
		return // receiver-evaluable (or constant): nothing to ship
	}
	switch e := e.(type) {
	case *ast.Binary:
		a.payloadFields(e.L, sc)
		a.payloadFields(e.R, sc)
	case *ast.Unary:
		a.payloadFields(e.X, sc)
	case *ast.Ternary:
		a.payloadFields(e.Cond, sc)
		a.payloadFields(e.Then, sc)
		a.payloadFields(e.Else, sc)
	case *ast.Call:
		a.payloadFields(e.Target, sc)
		for _, arg := range e.Args {
			a.payloadFields(arg, sc)
		}
	case *ast.PropAccess:
		a.payloadFields(e.Target, sc)
	}
}

func (a *analyzer) addField(e ast.Expr, sc *siteCtx) {
	key := ast.PrintExpr(e)
	if sc.keys[key] {
		return
	}
	sc.keys[key] = true
	kind := ir.KInt
	if t := a.info.Types[e]; t != nil {
		k := t.Kind
		if t.Elem != nil {
			k = t.Elem.Kind
		}
		kind = ir.KindOfType(k)
	}
	sc.fields = append(sc.fields, payloadField{expr: e, name: key, kind: kind})
}

// refSides reports whether e references sender-side and/or receiver-
// side values. Edge variables ride with the sender (the message travels
// along their edge).
func (a *analyzer) refSides(e ast.Expr, sc *siteCtx) (snd, rcv bool) {
	if e == nil {
		return false, false
	}
	ast.WalkExpr(e, func(x ast.Expr) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		switch sym := a.info.Uses[id]; {
		case sym == nil:
		case sym == sc.sender:
			snd = true
		case sym == sc.recv:
			rcv = true
		case sym.Kind == sema.SymEdgeVar:
			snd = true
		case sym.Kind == sema.SymScalar && sym.InParallel:
			// Region-scoped locals live on the outer side.
			if sc.outerIsSender {
				snd = true
			} else {
				rcv = true
			}
		}
		return true
	})
	return snd, rcv
}

// emitPayload reports the estimate (GM4001) and a hazard-forced width
// warning (GM4002). A payload wider than the engine's slots is the
// compiler's rejection (GM4003).
func (a *analyzer) emitPayload(pos token.Pos, sc *siteCtx, r *regionCtx) {
	if len(sc.fields) == 0 {
		a.add(CodePayload, SevInfo, pos,
			"neighbor communication sends a bare message (0 payload fields); its arrival alone carries the information")
		return
	}
	var parts []string
	bytes := 0
	for _, f := range sc.fields {
		parts = append(parts, f.name+" ("+f.kind.String()+")")
		bytes += f.kind.AggKind().WireBytes()
	}
	a.add(CodePayload, SevInfo, pos,
		"neighbor communication sends %d message field(s), ~%d payload byte(s): %s",
		len(sc.fields), bytes, strings.Join(parts, ", "))
	for _, f := range sc.fields {
		for _, prop := range a.propsReadIn(f.expr) {
			if _, hazard := r.written[prop]; hazard {
				a.addHint(CodeHazardPayload, SevWarning, pos,
					"narrow the message by reading the property outside the region that writes it, or accept the pre-update exchange",
					"message field %q carries property %q, which this region overwrites: the read-after-write hazard forces shipping the pre-update value instead of reading it on the receiver", f.name, prop.Name)
			}
		}
	}
}

// propsReadIn lists the property symbols read anywhere in e.
func (a *analyzer) propsReadIn(e ast.Expr) []*sema.Symbol {
	var out []*sema.Symbol
	seen := map[*sema.Symbol]bool{}
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if pa, ok := x.(*ast.PropAccess); ok {
			if sym := a.propByName[pa.Prop]; sym != nil && !seen[sym] {
				seen[sym] = true
				out = append(out, sym)
			}
		}
		return true
	})
	return out
}

// conjuncts splits a filter into its top-level && operands.
func conjuncts(e ast.Expr) []ast.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*ast.Binary); ok && b.Op == ast.BinAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []ast.Expr{e}
}
