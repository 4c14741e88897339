// Command gmlint runs the engine's invariant linters (gmdeterminism,
// gmnoalloc, gmdirective — see docs/LINT.md) over Go packages.
//
// Usage:
//
//	gmlint [packages]
//
// With package patterns (default ./...) it loads and type-checks the
// packages, applies every analyzer, prints one line per diagnostic, and
// exits 1 if anything was reported (2 if the packages do not load).
package main

import (
	"flag"
	"fmt"
	"os"

	"gmpregel/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("gmlint", flag.ExitOnError)
	fs.Usage = func() { fmt.Fprintln(os.Stderr, "usage: gmlint [packages]") }
	fs.Parse(args)

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
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
