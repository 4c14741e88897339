package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors holds non-fatal type-checking errors. Analyzers still
	// run (their syntax-level checks remain useful) but the driver
	// surfaces these separately.
	TypeErrors []error
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns (e.g. "./...")
// relative to dir, resolving every dependency — including the standard
// library — from compiler export data produced by `go list -export`.
// This keeps the loader dependency-free and fully offline: no
// golang.org/x/tools, no network, just the toolchain's build cache.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Name,Dir,Export,Standard,DepOnly,GoFiles,ImportMap,Error"}, patterns...)
	out, err := runGo(dir, args...)
	if err != nil {
		return nil, err
	}
	var roots []*listPkg
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("gmlint: decoding go list output: %w", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("gmlint: go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		p := lp
		if !p.DepOnly && !p.Standard && p.Name != "" {
			roots = append(roots, &p)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, lp := range roots {
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []string
		for _, f := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, f))
		}
		pkg, err := check(fset, imp, lp.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadFiles type-checks a single package given explicit source files —
// the fixture path used by analyzer tests. Imports (standard library
// only) are resolved the same way as Load, via one `go list -export`
// over the imports the files actually mention, run in dir.
func LoadFiles(path, dir string, filenames []string) (*Package, error) {
	fset := token.NewFileSet()
	var parsed []*ast.File
	imports := map[string]bool{}
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
		for _, im := range f.Imports {
			imports[strings.Trim(im.Path.Value, `"`)] = true
		}
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		args := []string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export"}
		for im := range imports {
			args = append(args, im)
		}
		out, err := runGo(dir, args...)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var lp listPkg
			if err := dec.Decode(&lp); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("gmlint: decoding go list output: %w", err)
			}
			if lp.Export != "" {
				exports[lp.ImportPath] = lp.Export
			}
		}
	}
	return checkParsed(fset, exportImporter(fset, exports), path, parsed)
}

// exportImporter builds a types.Importer that resolves import paths to
// the export-data files recorded by `go list -export`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("gmlint: no export data for %q", path)
		}
		return os.Open(file)
	})
}

func check(fset *token.FileSet, imp types.Importer, path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return checkParsed(fset, imp, path, files)
}

func checkParsed(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var terrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info) // errors collected above
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info, TypeErrors: terrs}, nil
}

func runGo(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("gmlint: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
