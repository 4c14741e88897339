package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"gmpregel/internal/lint"
)

// wantRe extracts quoted or backquoted expectation patterns from a
// "// want" comment, mirroring x/tools analysistest syntax.
var wantRe = regexp.MustCompile("`([^`]+)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// parseWants scans fixture sources for expectations:
//
//	code // want `regexp` `another`
//	// want-below `regexp`   (applies to the following line)
func parseWants(t *testing.T, filenames []string) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, name := range filenames {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			lineNo := i + 1
			marker := "// want"
			idx := strings.Index(line, marker)
			if idx < 0 {
				continue
			}
			rest := line[idx+len(marker):]
			if strings.HasPrefix(rest, "-below") {
				rest = strings.TrimPrefix(rest, "-below")
				lineNo++
			}
			for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, lineNo, pat, err)
				}
				wants = append(wants, &expectation{file: filepath.Base(name), line: lineNo, pattern: re})
			}
		}
	}
	return wants
}

// runFixture applies one analyzer to the fixture package rooted at
// testdata/src/<root> with package directory testdata/src/<rel>, and
// checks its diagnostics against the // want expectations.
func runFixture(t *testing.T, az *lint.Analyzer, root, rel string) {
	t.Helper()
	rootDir, err := filepath.Abs(filepath.Join("testdata", "src", root))
	if err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(filepath.Dir(rootDir), filepath.FromSlash(rel))
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(pkgDir, e.Name()))
		}
	}
	sort.Strings(files)
	pkg, err := lint.LoadFiles(rel, rootDir, files)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", rel, pkg.TypeErrors)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{az})
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, files)
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func TestDeterminismFlagsCriticalPath(t *testing.T) {
	runFixture(t, lint.DeterminismAnalyzer, "detbad", "detbad/internal/pregel")
}

func TestDeterminismAcceptsSortedAndAnnotated(t *testing.T) {
	runFixture(t, lint.DeterminismAnalyzer, "detok", "detok/internal/pregel")
}

func TestDeterminismIgnoresOutOfScopePackages(t *testing.T) {
	runFixture(t, lint.DeterminismAnalyzer, "detscope", "detscope")
}

func TestNoallocFlagsAllocatingConstructs(t *testing.T) {
	runFixture(t, lint.NoallocAnalyzer, "noallocbad", "noallocbad")
}

func TestNoallocAcceptsContractRespectingCode(t *testing.T) {
	runFixture(t, lint.NoallocAnalyzer, "noallocok", "noallocok")
}

func TestDirectiveHygiene(t *testing.T) {
	runFixture(t, lint.DirectiveAnalyzer, "directives", "directives")
}

// TestRepoIsLintClean is the dogfood gate: the whole module must
// produce zero diagnostics under every analyzer. CI runs the same
// check via cmd/gmlint; this test keeps `go test ./...` sufficient.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type check is slow; skipped in -short")
	}
	pkgs, err := lint.Load(".", "gmpregel/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}
