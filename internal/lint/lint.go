// Package lint implements gmlint, a suite of static analyzers that
// enforce the engine's cross-cutting contracts at compile time:
//
//   - gmdeterminism: no order-escaping map iteration, wall-clock reads,
//     or unseeded randomness inside the bit-identical critical path
//     (internal/pregel, internal/machine, internal/core,
//     internal/codegen).
//   - gmnoalloc: functions annotated //gm:noalloc contain no allocating
//     constructs, extending the runtime AllocsPerRun==0 gate to
//     whole-call-graph compile-time coverage.
//   - gmatomic: a struct field accessed through sync/atomic anywhere
//     must be accessed atomically everywhere (field-granular, beyond
//     stock go vet).
//   - gmdiag: GMxxxx diagnostic codes are unique, registered in the
//     central table, documented in docs/ANALYSIS.md; and every //gm:
//     directive in the repo is well formed.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, testdata fixtures with "// want"
// expectations) so the analyzers can migrate to the real driver
// unchanged if/when x/tools becomes a dependency; it is implemented on
// the standard library alone because this module has no external
// dependencies. See docs/LINT.md for the user-facing contract.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant-checking pass. The shape matches
// golang.org/x/tools/go/analysis.Analyzer so the Run functions are
// portable to the upstream driver.
type Analyzer struct {
	Name string // e.g. "gmnoalloc"
	Doc  string // one-paragraph contract statement
	Run  func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Root is the directory against which repo-relative resources
	// (docs/ANALYSIS.md for gmdiag) are resolved: the module root for
	// real runs, the fixture root under analyzer tests.
	Root string

	// NoallocFacts holds the FullName of every //gm:noalloc function
	// across all packages of the run, so gmnoalloc can verify calls
	// that cross package boundaries (the poor-linter's analysis.Fact).
	NoallocFacts map[string]bool

	diags *[]Diagnostic
	lines map[string]*fileLines // keyed by filename
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full gmlint suite in its canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DeterminismAnalyzer, NoallocAnalyzer, AtomicAnalyzer, DiagAnalyzer}
}

// Run applies each analyzer to each package and returns every
// diagnostic, sorted by position then analyzer then message so output
// is deterministic regardless of analysis order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := gatherNoallocFacts(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, az := range analyzers {
			pass := &Pass{
				Analyzer:     az,
				Fset:         pkg.Fset,
				Files:        pkg.Files,
				Pkg:          pkg.Types,
				Info:         pkg.Info,
				Root:         pkg.Root,
				NoallocFacts: facts,
				diags:        &diags,
			}
			if err := az.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", az.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// gatherNoallocFacts scans every package of the run for //gm:noalloc
// functions and records their fully qualified names. Objects imported
// from export data print the same FullName as the source-checked
// originals, so cross-package call sites resolve against this set.
func gatherNoallocFacts(pkgs []*Package) map[string]bool {
	facts := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Doc == nil {
					continue
				}
				annotated := false
				for _, c := range fn.Doc.List {
					if d := parseDirective(c); d != nil && d.Name == DirNoalloc {
						annotated = true
					}
				}
				if !annotated {
					continue
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					facts[obj.FullName()] = true
				}
			}
		}
	}
	return facts
}

// ---------------------------------------------------------------------
// //gm: directives
//
// Annotation grammar (one per comment line):
//
//	//gm:noalloc
//	//gm:nondeterministic-ok <justification>
//	//gm:alloc-ok <justification>
//	//gm:atomic-ok <justification>
//
// A directive written on a code line (trailing comment) or on the
// comment lines immediately above it applies to that line. Directives
// in a function's doc comment apply to the whole function.

// Directive names understood by the suite. The -ok forms are escape
// hatches and must carry a non-empty justification.
const (
	DirNoalloc    = "noalloc"
	DirNondetOK   = "nondeterministic-ok"
	DirAllocOK    = "alloc-ok"
	DirAtomicOK   = "atomic-ok"
	directiveLead = "//gm:"
)

var knownDirectives = map[string]bool{
	DirNoalloc:  true,
	DirNondetOK: true,
	DirAllocOK:  true,
	DirAtomicOK: true,
}

// reasonRequired reports whether a directive must justify itself.
func reasonRequired(name string) bool { return strings.HasSuffix(name, "-ok") }

// A Directive is one parsed //gm: annotation.
type Directive struct {
	Name   string
	Reason string
	Pos    token.Pos
}

// parseDirective parses a single comment's text, returning nil when the
// comment is not a //gm: directive at all.
func parseDirective(c *ast.Comment) *Directive {
	if !strings.HasPrefix(c.Text, directiveLead) {
		return nil
	}
	body := strings.TrimPrefix(c.Text, directiveLead)
	name, reason, _ := strings.Cut(body, " ")
	return &Directive{Name: strings.TrimSpace(name), Reason: strings.TrimSpace(reason), Pos: c.Pos()}
}

// fileLines indexes one file's directives by line, plus which lines are
// comment-only, so a directive "reaches" code below it across a block
// of comment lines.
type fileLines struct {
	directives  map[int][]*Directive
	commentOnly map[int]bool
}

func (p *Pass) fileIndex(file *ast.File) *fileLines {
	if p.lines == nil {
		p.lines = make(map[string]*fileLines)
	}
	name := p.Fset.Position(file.Pos()).Filename
	if fl, ok := p.lines[name]; ok {
		return fl
	}
	fl := &fileLines{directives: map[int][]*Directive{}, commentOnly: map[int]bool{}}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			pos := p.Fset.Position(c.Pos())
			end := p.Fset.Position(c.End())
			if d := parseDirective(c); d != nil {
				fl.directives[pos.Line] = append(fl.directives[pos.Line], d)
			}
			// Record every line a comment touches so a directive above
			// a block of comment lines still reaches the code below it;
			// the upward walk in DirectiveAt stops at the first
			// non-comment line.
			for l := pos.Line; l <= end.Line; l++ {
				fl.commentOnly[l] = true
			}
		}
	}
	p.lines[name] = fl
	return fl
}

// DirectiveAt returns the named directive governing pos: a trailing
// comment on the same line, or a comment directly above (walking up
// through consecutive comment lines).
func (p *Pass) DirectiveAt(file *ast.File, pos token.Pos, name string) *Directive {
	fl := p.fileIndex(file)
	line := p.Fset.Position(pos).Line
	if d := pick(fl.directives[line], name); d != nil {
		return d
	}
	for l := line - 1; l >= 1 && fl.commentOnly[l]; l-- {
		if d := pick(fl.directives[l], name); d != nil {
			return d
		}
	}
	return nil
}

// FuncDirective returns the named directive from fn's doc comment.
func (p *Pass) FuncDirective(fn *ast.FuncDecl, name string) *Directive {
	if fn.Doc == nil {
		return nil
	}
	for _, c := range fn.Doc.List {
		if d := parseDirective(c); d != nil && d.Name == name {
			return d
		}
	}
	return nil
}

func pick(ds []*Directive, name string) *Directive {
	for _, d := range ds {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// checkDirectiveHygiene reports malformed //gm: directives in every
// file of the pass: unknown names, and -ok escape hatches missing the
// required written justification. Shared by gmdiag.
func checkDirectiveHygiene(p *Pass) {
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				d := parseDirective(c)
				if d == nil {
					continue
				}
				if !knownDirectives[d.Name] {
					p.Reportf(d.Pos, "unknown directive //gm:%s (known: noalloc, nondeterministic-ok, alloc-ok, atomic-ok)", d.Name)
					continue
				}
				if reasonRequired(d.Name) && d.Reason == "" {
					p.Reportf(d.Pos, "//gm:%s requires a written justification, e.g. //gm:%s <why this is safe>", d.Name, d.Name)
				}
			}
		}
	}
}

// PathHasSuffix reports whether an import path ends with one of the
// given slash-separated suffixes (e.g. "internal/pregel" matches both
// "gmpregel/internal/pregel" and a fixture path "detbad/internal/pregel").
func PathHasSuffix(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
