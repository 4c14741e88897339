package core

import (
	"gmpregel/internal/gm/analysis"
	"gmpregel/internal/gm/ast"
	"gmpregel/internal/gm/parser"
	"gmpregel/internal/gm/sema"
	"gmpregel/internal/machine"
)

// Options controls optional compilation steps.
type Options struct {
	// DisableStateMerging turns off the §4.2 State Merging optimization.
	DisableStateMerging bool
	// DisableIntraLoopMerge turns off the §4.2 Intra-Loop State Merging
	// optimization.
	DisableIntraLoopMerge bool
}

// Compiled is the result of compiling one Green-Marl procedure.
type Compiled struct {
	// Source is the original Green-Marl text.
	Source string
	// Original is the parsed, untransformed procedure.
	Original *ast.Procedure
	// Canonical is the Pregel-canonical form after all §4.1
	// transformations.
	Canonical *ast.Procedure
	// Info is the semantic information of the canonical form.
	Info *sema.Info
	// Program is the executable Pregel program.
	Program *machine.Program
	// Trace records the applied rules (Table 3).
	Trace *Trace
	// Diagnostics are the static-analysis findings for the original
	// (pre-transformation) procedure.
	Diagnostics analysis.List
}

// Compile parses and compiles a single Green-Marl procedure into a
// Pregel program. A program outside the Pregel-canonical fragment fails
// with a *analysis.Diagnostic error: the compiler's verdict, with a
// registered code and the position of the construct it rejects.
func Compile(src string, opts Options) (*Compiled, error) {
	proc, err := parser.ParseProcedure(src)
	if err != nil {
		return nil, err
	}
	c, err := CompileProcedure(proc, opts)
	if err != nil {
		return nil, err
	}
	c.Source = src
	return c, nil
}

// Diagnose reports every finding on src without failing: the front
// end's errors (GM0001, GM1001) when it does not parse or check, else
// the analyses' warnings and infos together with the compiler's
// verdict — the error Compile returns, if it fails.
func Diagnose(src string) analysis.List {
	proc, err := parser.ParseProcedure(src)
	if err != nil {
		return analysis.FromError(err)
	}
	info, err := sema.Check(proc)
	if err != nil {
		return analysis.FromError(err)
	}
	diags := analysis.AnalyzeProcedure(proc, info)
	if _, err := lower(proc, Options{}); err != nil {
		diags = append(diags, analysis.FromError(err)...)
		diags.Sort()
	}
	return diags
}

// CompileProcedure compiles an already-parsed procedure. The input tree
// is not modified.
func CompileProcedure(proc *ast.Procedure, opts Options) (*Compiled, error) {
	info, err := sema.Check(proc)
	if err != nil {
		return nil, err
	}
	c, err := lower(proc, opts)
	if err != nil {
		return nil, err
	}
	// The analyses run on the original tree, so diagnostics point at
	// source the user wrote rather than at lowered forms.
	c.Diagnostics = analysis.AnalyzeProcedure(proc, info)
	errs, warns, infos := c.Diagnostics.Counts()
	c.Program.Analysis = &machine.AnalysisSummary{
		Errors:      errs,
		Warnings:    warns,
		Infos:       infos,
		Codes:       c.Diagnostics.Codes(),
		WarningFree: errs == 0 && warns == 0,
	}
	return c, nil
}

// lower runs the paper's Fig. 1 pipeline on a sema-checked procedure:
// the §4.1 transformations to the Pregel-canonical form, translation to
// a state machine, and the §4.2 optimizations.
func lower(proc *ast.Procedure, opts Options) (*Compiled, error) {
	work := proc.Clone()
	trace := &Trace{}
	nz := &normalizer{proc: work, nm: newNamer(work), trace: trace}
	nz.lowerBFS()
	nz.lowerBulkAssigns()
	nz.lowerSeqReduces()
	nz.lowerParReduces()
	nz.lowerRandomAccess()
	nz.canonicalize()
	if nz.err != nil {
		return nil, nz.err
	}
	info, err := sema.Check(work)
	if err != nil {
		return nil, errf("internal: canonical form fails sema: %v", err)
	}

	prog, err := translate(work, info, trace)
	if err != nil {
		return nil, err
	}
	if !opts.DisableStateMerging {
		mergeStates(prog, trace)
	}
	if !opts.DisableIntraLoopMerge {
		intraLoopMerge(prog, trace)
	}
	if err := prog.Validate(); err != nil {
		return nil, errf("internal: optimized program invalid: %v", err)
	}
	return &Compiled{
		Original:  proc,
		Canonical: work,
		Info:      info,
		Program:   prog,
		Trace:     trace,
	}, nil
}

// PrintCanonical renders the Pregel-canonical form of a compiled
// procedure as Green-Marl source.
func PrintCanonical(c *Compiled) string { return ast.Print(c.Canonical) }
