package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/gm/analysis"
)

// newDetRand returns a deterministic RNG for robustness tests.
//
//gm:nondeterministic-ok fixed caller-supplied seed; stream is reproducible by construction
func newDetRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// FuzzCompile feeds arbitrary text through the full pipeline: it must
// either compile or return an error — never panic, and never emit an
// invalid program — and Diagnose must hold an error exactly when Compile
// fails, with Compile's error text. Run with
// `go test -fuzz FuzzCompile ./internal/core` for continuous fuzzing;
// in normal test runs the seed corpus executes.
func FuzzCompile(f *testing.F) {
	for _, src := range algorithms.ByName {
		f.Add(src)
	}
	for _, src := range algorithms.ExtraByName {
		f.Add(src)
	}
	// The analysis fixtures, the rejected programs among them.
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "diag", "*.gm"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no fixtures under testdata/diag: %v", err)
	}
	for _, path := range fixtures {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("Procedure f(G: Graph) { }")
	f.Add("Procedure f(G: Graph, x: Node_Prop<Int>) { Foreach (n: G.Nodes) { n.x = n.Id(); } }")
	f.Add("not green-marl at all {{{")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return // keep single iterations fast
		}
		c, err := Compile(src, Options{})
		var verdict []string
		for _, d := range Diagnose(src) {
			if d.Severity == analysis.SevError {
				verdict = append(verdict, d.Error())
			}
		}
		if err == nil && verdict != nil {
			t.Errorf("Compile succeeds, but Diagnose reports %q", verdict)
		}
		if err != nil && strings.Join(verdict, "\n") != err.Error() {
			t.Errorf("Compile fails with %q, but Diagnose reports %q", err, verdict)
		}
		if err != nil {
			if strings.Contains(err.Error(), "internal:") {
				t.Errorf("user input produced an internal error: %v", err)
			}
			return
		}
		if vErr := c.Program.Validate(); vErr != nil {
			t.Errorf("compiled program fails validation: %v", vErr)
		}
	})
}

// TestCompileRobustness is the in-process equivalent of FuzzCompile:
// random mutations of valid programs must never panic the pipeline or
// produce internal errors.
func TestCompileRobustness(t *testing.T) {
	srcs := make([]string, 0, len(algorithms.ByName))
	for _, s := range algorithms.ByName {
		srcs = append(srcs, s)
	}
	alphabet := "ProcedureForeachWhileIfG.Nodes(){}[];:=+-*/%&|!?,<>1234567890abc \n"
	rng := newDetRand(1234)
	for trial := 0; trial < 400; trial++ {
		base := srcs[trial%len(srcs)]
		pos := rng.Intn(len(base))
		mut := base[:pos] + string(alphabet[rng.Intn(len(alphabet))]) + base[pos+1:]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutated input: %v\n%s", r, mut)
				}
			}()
			c, err := Compile(mut, Options{})
			if err != nil {
				if strings.Contains(err.Error(), "internal:") {
					t.Errorf("internal error on user input: %v", err)
				}
				return
			}
			if vErr := c.Program.Validate(); vErr != nil {
				t.Errorf("invalid program compiled: %v", vErr)
			}
		}()
	}
}
