// Command gmlint runs the engine's invariant linters (gmdeterminism,
// gmnoalloc, gmatomic, gmdiag — see docs/LINT.md) over Go packages.
//
// Usage:
//
//	gmlint [-json] [-list] [-only name,name] [packages]
//
// With package patterns (default ./...) it behaves like a multichecker:
// loads and type-checks the packages, applies every analyzer, prints
// one line per diagnostic, and exits 1 if anything was reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gmpregel/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("gmlint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fs.Parse(args)

	if *list {
		for _, az := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", az.Name, az.Doc)
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		var filtered []*lint.Analyzer
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		for _, az := range analyzers {
			if want[az.Name] {
				filtered = append(filtered, az)
				delete(want, az.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "gmlint: unknown analyzer %q\n", name)
			return 2
		}
		analyzers = filtered
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmlint:", err)
		return 2
	}
	pkgs, err := lint.Load(cwd, fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			broken = true
			fmt.Fprintln(os.Stderr, terr)
		}
	}
	if broken {
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return emit(diags, *jsonOut)
}

func emit(diags []lint.Diagnostic, asJSON bool) int {
	if asJSON {
		type jd struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		}
		out := make([]jd, 0, len(diags))
		for _, d := range diags {
			out = append(out, jd{d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
