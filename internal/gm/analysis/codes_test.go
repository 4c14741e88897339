package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestCodeTableIsUniqueAndWellFormed(t *testing.T) {
	codeRe := regexp.MustCompile(`^GM[0-9]{4}$`)
	seen := map[string]bool{}
	for _, ci := range CodeTable {
		if !codeRe.MatchString(ci.Code) {
			t.Errorf("malformed code %q", ci.Code)
		}
		if seen[ci.Code] {
			t.Errorf("code %s registered twice", ci.Code)
		}
		seen[ci.Code] = true
		if ci.Summary == "" {
			t.Errorf("code %s has no summary", ci.Code)
		}
	}
}

func TestLookupCode(t *testing.T) {
	ci, ok := LookupCode("GM0001")
	if !ok || ci.Code != "GM0001" {
		t.Fatalf("LookupCode(GM0001) = %+v, %v", ci, ok)
	}
	if _, ok := LookupCode("GM9999"); ok {
		t.Fatal("LookupCode(GM9999) unexpectedly found")
	}
}

func TestRegisteredCodesSorted(t *testing.T) {
	codes := RegisteredCodes()
	if len(codes) != len(CodeTable) {
		t.Fatalf("RegisteredCodes returned %d codes, table has %d", len(codes), len(CodeTable))
	}
	if !sort.StringsAreSorted(codes) {
		t.Fatalf("RegisteredCodes not sorted: %v", codes)
	}
}

// TestCodeTableMatchesDocs checks that docs/ANALYSIS.md documents every
// registered code with the severity CodeTable registers for it, in a
// table row ("| GM5006 | error |") or a paragraph heading
// ("**GM2001 (warning)").
func TestCodeTableMatchesDocs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "docs", "ANALYSIS.md"))
	if err != nil {
		t.Fatal(err)
	}
	rowRe := regexp.MustCompile(`(GM[0-9]{4})(?: \| | \()(error|warning|info)\b`)
	documented := map[string][]string{}
	for _, m := range rowRe.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = append(documented[m[1]], m[2])
	}
	for _, ci := range CodeTable {
		sevs := documented[ci.Code]
		if len(sevs) == 0 {
			t.Errorf("code %s is registered but has no severity row in docs/ANALYSIS.md", ci.Code)
		}
		for _, sev := range sevs {
			if sev != ci.Severity.String() {
				t.Errorf("docs/ANALYSIS.md lists %s as %s, CodeTable registers it as %s", ci.Code, sev, ci.Severity)
			}
		}
	}
}

// TestCodeConstantsAreRegistered reads the package's own non-test source:
// every GMxxxx code constant must have a value declared once and
// registered in CodeTable, and no other string literal may spell a code,
// so every diagnostic is built from a registered constant.
func TestCodeConstantsAreRegistered(t *testing.T) {
	codeRe := regexp.MustCompile(`^GM[0-9]{4}$`)
	registered := map[string]bool{}
	for _, ci := range CodeTable {
		registered[ci.Code] = true
	}
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	declared := map[string]string{} // code -> the constant declaring it
	codeConsts := map[string]bool{}
	declLits := map[*ast.BasicLit]bool{}
	var aliases [][2]*ast.Ident // {constant, the constant its value names}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					if ref, ok := ast.Unparen(vs.Values[i]).(*ast.Ident); ok {
						aliases = append(aliases, [2]*ast.Ident{id, ref})
						continue
					}
					lit, ok := ast.Unparen(vs.Values[i]).(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					code, err := strconv.Unquote(lit.Value)
					if err != nil || !codeRe.MatchString(code) {
						continue
					}
					declLits[lit] = true
					codeConsts[id.Name] = true
					if first, dup := declared[code]; dup {
						t.Errorf("%s: %s = %q: code already declared by %s; codes must be unique", fset.Position(id.Pos()), id.Name, code, first)
						continue
					}
					declared[code] = id.Name
					if !registered[code] {
						t.Errorf("%s: code constant %s = %q is not registered in CodeTable", fset.Position(id.Pos()), id.Name, code)
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no GMxxxx code constants; the source scan is broken")
	}
	for _, a := range aliases {
		if codeConsts[a[1].Name] {
			t.Errorf("%s: %s = %s declares a code a second time; codes must be unique", fset.Position(a[0].Pos()), a[0].Name, a[1].Name)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || declLits[lit] {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && codeRe.MatchString(s) {
				t.Errorf("%s: ad-hoc diagnostic code literal %s; use the registered constant", fset.Position(lit.Pos()), lit.Value)
			}
			return true
		})
	}
}
