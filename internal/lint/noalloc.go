package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoallocAllowedPackages lists dependency packages whose exported
// functions are trusted not to allocate when called from a //gm:noalloc
// function. Everything here is either allocation-free by contract
// (sync/atomic, math/bits) or covered by the engine's runtime
// AllocsPerRun==0 gate for the specific entry points the hot path uses
// (sort.Search, time.Since).
var NoallocAllowedPackages = []string{
	"sync/atomic",
	"sync",
	"math",
	"math/bits",
	"sort",
	"time",
	"runtime",
	"unsafe",
}

// NoallocAnalyzer extends the runtime AllocsPerRun==0 gate (perf_test)
// to whole-call-graph compile-time coverage: a function annotated
// //gm:noalloc must contain no allocating construct, and every function
// it calls must either be //gm:noalloc itself (same package), come from
// an allowlisted dependency, or carry a justified //gm:alloc-ok at the
// call site.
//
// Flagged constructs: make / new / growing append, slice, map and
// pointer composite literals, map writes, string concatenation and
// string<->[]byte/[]rune conversions, goroutine launches, variable-
// capturing closures (except those called or deferred in place, which
// stay on the stack), boxing a non-pointer value into an interface, and
// calls to unverifiable callees (unannotated same-package functions,
// non-allowlisted packages, dynamic calls).
//
// Amortized allocations — append into capacity retained across
// supersteps, map inserts after clear(), high-water inbox growth — are
// real allocations the first time and zero in steady state; they must
// be exempted one line at a time with //gm:alloc-ok <reason> so every
// such site documents why the runtime gate stays at zero.
var NoallocAnalyzer = &Analyzer{
	Name: "gmnoalloc",
	Run:  runNoalloc,
}

func runNoalloc(p *Pass) error {
	// Pass 1: the set of //gm:noalloc functions, by types object, so
	// same-package calls can be checked for closure of the contract.
	annotated := map[*types.Func]bool{}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || p.FuncDirective(fn, DirNoalloc) == nil {
				continue
			}
			if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
				annotated[obj] = true
			}
		}
	}
	// Pass 2: walk each annotated body.
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || p.FuncDirective(fn, DirNoalloc) == nil {
				continue
			}
			w := &noallocWalker{p: p, file: file, fn: fn, annotated: annotated,
				inPlace: map[*ast.FuncLit]bool{}, callPos: map[ast.Expr]bool{}}
			w.walk()
		}
	}
	return nil
}

type noallocWalker struct {
	p         *Pass
	file      *ast.File
	fn        *ast.FuncDecl
	annotated map[*types.Func]bool
	inPlace   map[*ast.FuncLit]bool // closures called/deferred in place: stack-allocated
	callPos   map[ast.Expr]bool     // expressions in call-operator position
}

// report emits unless the line carries a justified //gm:alloc-ok.
func (w *noallocWalker) report(pos token.Pos, format string, args ...any) {
	if w.p.DirectiveAt(w.file, pos, DirAllocOK) != nil {
		return
	}
	w.p.Reportf(pos, "//gm:noalloc %s: "+format, append([]any{w.fn.Name.Name}, args...)...)
}

func (w *noallocWalker) walk() {
	// Pre-pass: closures invoked or deferred where they stand never
	// escape, so they stay off the heap; record them, and record which
	// expressions are the operator of a call (method *values* allocate,
	// method *calls* do not).
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			w.callPos[fun] = true
			if lit, ok := fun.(*ast.FuncLit); ok {
				w.inPlace[lit] = true
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				w.inPlace[lit] = true
			}
		}
		return true
	})
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.checkCall(n)
		case *ast.CompositeLit:
			w.checkCompositeLit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					w.report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && w.isString(n) {
				w.report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			w.checkAssign(n)
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && w.isMapIndex(ix) {
				w.report(n.Pos(), "map update may grow the map")
			}
		case *ast.GoStmt:
			w.report(n.Pos(), "starting a goroutine allocates a stack")
		case *ast.FuncLit:
			w.checkFuncLit(n)
		case *ast.ReturnStmt:
			w.checkReturn(n)
		case *ast.SelectorExpr:
			if sel, ok := w.p.Info.Selections[n]; ok && sel.Kind() == types.MethodVal && !w.callPos[ast.Expr(n)] {
				w.report(n.Pos(), "method value %s allocates a bound-method closure", n.Sel.Name)
			}
		}
		return true
	})
}

func (w *noallocWalker) isString(e ast.Expr) bool {
	tv, ok := w.p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (w *noallocWalker) isMapIndex(ix *ast.IndexExpr) bool {
	tv, ok := w.p.Info.Types[ix.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func (w *noallocWalker) checkCompositeLit(lit *ast.CompositeLit) {
	tv, ok := w.p.Info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		w.report(lit.Pos(), "slice literal allocates")
	case *types.Map:
		w.report(lit.Pos(), "map literal allocates")
	}
}

func (w *noallocWalker) checkAssign(as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && w.isMapIndex(ix) {
			w.report(as.Pos(), "map insert may grow the map")
		}
	}
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && w.isString(as.Lhs[0]) {
		w.report(as.Pos(), "string concatenation allocates")
	}
	// Boxing through plain assignment into an interface-typed location.
	if as.Tok == token.ASSIGN && len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			lt, ok := w.p.Info.Types[as.Lhs[i]]
			if !ok {
				continue
			}
			w.checkBox(as.Rhs[i], lt.Type, "assignment")
		}
	}
}

func (w *noallocWalker) checkReturn(ret *ast.ReturnStmt) {
	obj, ok := w.p.Info.Defs[w.fn.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if results.Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		w.checkBox(r, results.At(i).Type(), "return")
	}
}

// checkBox flags storing a concrete non-pointer value into an
// interface-typed destination: the value is copied to the heap to back
// the interface. Pointer-shaped values (pointers, channels, maps,
// funcs, unsafe.Pointer) and nil are stored directly and stay quiet.
func (w *noallocWalker) checkBox(e ast.Expr, dst types.Type, ctx string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := w.p.Info.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() || types.IsInterface(tv.Type) {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	w.report(e.Pos(), "%s boxes %s into interface %s", ctx,
		types.TypeString(tv.Type, types.RelativeTo(w.p.Pkg)),
		types.TypeString(dst, types.RelativeTo(w.p.Pkg)))
}

func (w *noallocWalker) checkFuncLit(lit *ast.FuncLit) {
	if w.inPlace[lit] {
		return
	}
	// A closure only costs heap when it captures; find the first
	// captured variable for the message.
	var captured *ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != w.p.Pkg {
			return true
		}
		if v.Pos() >= w.fn.Pos() && v.Pos() < lit.Pos() {
			captured = id
		}
		return true
	})
	if captured != nil {
		w.report(lit.Pos(), "closure captures %q and may escape to the heap", captured.Name)
	}
}

func (w *noallocWalker) checkCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Type conversions: only string<->[]byte/[]rune copy.
	if tv, ok := w.p.Info.Types[fun]; ok && tv.IsType() {
		w.checkConversion(call, tv.Type)
		return
	}
	switch callee := w.calleeObject(fun).(type) {
	case *types.Builtin:
		switch callee.Name() {
		case "make":
			w.report(call.Pos(), "make allocates")
		case "new":
			w.report(call.Pos(), "new allocates")
		case "append":
			w.report(call.Pos(), "append may grow its backing array")
		}
		return
	case *types.Func:
		sig := callee.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			w.report(call.Pos(), "dynamic call through interface method %s cannot be verified allocation-free", callee.Name())
		} else if callee.Pkg() == w.p.Pkg {
			if !w.annotated[callee] {
				w.report(call.Pos(), "calls %s, which is not annotated //gm:noalloc", callee.Name())
			}
		} else if callee.Pkg() != nil && !allowedNoallocPkg(callee.Pkg().Path()) && !w.p.NoallocFacts[callee.FullName()] {
			w.report(call.Pos(), "calls %s.%s, which is neither //gm:noalloc nor on the no-alloc allowlist", callee.Pkg().Name(), callee.Name())
		}
		w.checkCallArgBoxing(call, sig)
		return
	default:
		if _, ok := fun.(*ast.FuncLit); ok {
			return // called in place; body is walked directly
		}
		w.report(call.Pos(), "dynamic call through a function value cannot be verified allocation-free")
	}
}

func (w *noallocWalker) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from, ok := w.p.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	if isStringType(to) && isByteOrRuneSlice(from.Type) {
		w.report(call.Pos(), "conversion %s -> string copies", types.TypeString(from.Type, types.RelativeTo(w.p.Pkg)))
	}
	if isByteOrRuneSlice(to) && isStringType(from.Type) {
		w.report(call.Pos(), "conversion string -> %s copies", types.TypeString(to, types.RelativeTo(w.p.Pkg)))
	}
}

func (w *noallocWalker) checkCallArgBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		w.checkBox(arg, pt, "argument")
	}
}

func (w *noallocWalker) calleeObject(fun ast.Expr) types.Object {
	switch fun := fun.(type) {
	case *ast.Ident:
		return w.p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return w.p.Info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return w.p.Info.Uses[id]
		}
	}
	return nil
}

func allowedNoallocPkg(path string) bool {
	for _, a := range NoallocAllowedPackages {
		if path == a || strings.HasPrefix(path, a+"/") {
			return true
		}
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
