package lint

import (
	"go/ast"
	"go/types"
)

// CriticalPackages are the import-path suffixes on the bit-identical
// critical path: everything whose behavior feeds Stats, vertex state,
// checkpoints, or emitted code. gmdeterminism only fires inside them.
var CriticalPackages = []string{
	"internal/pregel",
	"internal/machine",
	"internal/core",
	"internal/codegen",
}

// DeterminismAnalyzer enforces the engine's bit-identical contract: a
// run's Stats, vertex state, and emitted code must not depend on map
// iteration order, the wall clock, or process-global randomness.
//
// Inside CriticalPackages it flags:
//
//   - `range` over a map value — Go randomizes iteration order per run,
//     so any map range whose effects can escape (into Stats, snapshots,
//     or emitted code) breaks replayability. Iterate over sorted keys
//     instead, or annotate a provably order-insensitive loop with
//     //gm:nondeterministic-ok <reason>.
//   - calls to time.Now / time.Since — wall-clock reads differ across
//     runs; observability timing must be annotated and kept out of
//     outputs.
//   - calls into math/rand's package-level API (rand.New, rand.NewSource,
//     the global rand.Int etc.) — randomness is only allowed through the
//     engine's seeded, checkpoint-counted sources, and each construction
//     site must justify itself. Method calls on an already-constructed
//     *rand.Rand are not flagged; the construction site carries the
//     justification.
var DeterminismAnalyzer = &Analyzer{
	Name: "gmdeterminism",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) error {
	if p.Pkg == nil || !PathHasSuffix(p.Pkg.Path(), CriticalPackages) {
		return nil
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				p.checkMapRange(file, n)
			case *ast.CallExpr:
				p.checkNondetCall(file, n)
			}
			return true
		})
	}
	return nil
}

func (p *Pass) checkMapRange(file *ast.File, rs *ast.RangeStmt) {
	tv, ok := p.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if p.DirectiveAt(file, rs.Pos(), DirNondetOK) != nil {
		return
	}
	p.Reportf(rs.Pos(), "range over map %s has nondeterministic iteration order on the bit-identical critical path; iterate over sorted keys, or annotate //gm:nondeterministic-ok <reason> if order provably cannot escape", types.TypeString(tv.Type, types.RelativeTo(p.Pkg)))
}

func (p *Pass) checkNondetCall(file *ast.File, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := p.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Only package-level functions: methods on rand.Rand values are the
	// seeded pattern and stay quiet.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() != "Now" && fn.Name() != "Since" && fn.Name() != "Until" {
			return
		}
		if p.DirectiveAt(file, call.Pos(), DirNondetOK) != nil {
			return
		}
		p.Reportf(call.Pos(), "time.%s reads the wall clock on the bit-identical critical path; keep timing in annotated observability code (//gm:nondeterministic-ok <reason>)", fn.Name())
	case "math/rand", "math/rand/v2":
		if p.DirectiveAt(file, call.Pos(), DirNondetOK) != nil {
			return
		}
		p.Reportf(call.Pos(), "%s.%s on the bit-identical critical path; randomness must flow through a seeded, checkpoint-counted source, and each construction site needs //gm:nondeterministic-ok <reason>", fn.Pkg().Name(), fn.Name())
	}
}
