package gmpregel_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLITools builds and exercises the three command-line tools
// end-to-end. Skipped under -short (it shells out to the Go toolchain).
func TestCLITools(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test shells out to go run")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		return out
	}
	gmpc := build("gmpc")
	gmbench := build("gmbench")
	graphgen := build("graphgen")

	run := func(name string, args ...string) string {
		cmd := exec.Command(name, args...)
		b, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(name), args, err, b)
		}
		return string(b)
	}

	// gmpc on a builtin with every inspector.
	out := run(gmpc, "-builtin", "bc", "-machine", "-java", "-giraph", "-canonical")
	for _, want := range []string{
		"9 vertex-centric kernels, 4 message types",
		"[x] BFS Traversal",
		"state machine:",
		"class Message",
		"BasicComputation",
		"Pregel-canonical form:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gmpc output missing %q", want)
		}
	}

	// gmpc on a source file.
	srcPath := filepath.Join(bin, "prog.gm")
	src := "Procedure p(G: Graph, x: Node_Prop<Int>) {\n  Foreach (n: G.Nodes) { Foreach (t: n.Nbrs) { t.x += 1; } }\n}\n"
	if err := os.WriteFile(srcPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(gmpc, srcPath)
	if !strings.Contains(out, "compiled p:") {
		t.Errorf("gmpc file compile output: %s", out)
	}

	// gmpc rejects a bad file with a diagnostic exit.
	badPath := filepath.Join(bin, "bad.gm")
	os.WriteFile(badPath, []byte("Procedure broken("), 0o644)
	if err := exec.Command(gmpc, badPath).Run(); err == nil {
		t.Error("gmpc should exit nonzero on a parse error")
	}

	// -analyze on a warning-free builtin exits 0.
	out = run(gmpc, "-builtin", "avgteen", "-analyze")
	if strings.Contains(out, "warning") || strings.Contains(out, "error") {
		t.Errorf("avgteen should analyze warning-free:\n%s", out)
	}

	// -Werror turns pagerank's hazard warnings into a nonzero exit,
	// both under -analyze and during a normal compile.
	if b, err := exec.Command(gmpc, "-builtin", "pagerank", "-analyze", "-Werror").CombinedOutput(); err == nil {
		t.Errorf("-analyze -Werror should exit nonzero on pagerank:\n%s", b)
	} else if !strings.Contains(string(b), "GM2002") {
		t.Errorf("-analyze -Werror output missing GM2002:\n%s", b)
	}
	if b, err := exec.Command(gmpc, "-builtin", "pagerank", "-Werror").CombinedOutput(); err == nil {
		t.Errorf("compile with -Werror should exit nonzero on pagerank:\n%s", b)
	}

	// -diag-format=json emits machine-readable diagnostics.
	out = run(gmpc, "-builtin", "sssp", "-analyze", "-diag-format=json")
	var report struct {
		Diagnostics []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
			Line     int    `json:"line"`
		} `json:"diagnostics"`
		WarningFree bool `json:"warning_free"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("-diag-format=json output does not parse: %v\n%s", err, out)
	}
	if !report.WarningFree || len(report.Diagnostics) == 0 {
		t.Errorf("sssp JSON report unexpected: %+v", report)
	}

	// graphgen → file → gmbench table.
	elPath := filepath.Join(bin, "g.el")
	run(graphgen, "-kind", "random", "-n", "500", "-m", "2000", "-out", elPath)
	if fi, err := os.Stat(elPath); err != nil || fi.Size() == 0 {
		t.Fatalf("graphgen produced no output: %v", err)
	}

	out = run(gmbench, "-table", "3")
	for _, want := range []string{"Table 3", "State Machine Const.", "BFS Traversal"} {
		if !strings.Contains(out, want) {
			t.Errorf("gmbench table 3 missing %q", want)
		}
	}
	out = run(gmbench, "-table", "2")
	if !strings.Contains(out, "generated GPS") {
		t.Errorf("gmbench table 2 output: %s", out)
	}

	// Size and count flags out of range exit 2 naming the bound, before
	// any generator can panic on them.
	for _, tc := range []struct {
		bin   string
		args  []string
		bound string
	}{
		{gmpc, []string{"-run", "-run-nodes", "-5", "-builtin", "pagerank"}, "134217728"},
		{gmpc, []string{"-run", "-workers", "0", "-builtin", "pagerank"}, "-workers at least 1"},
		{graphgen, []string{"-n", "-5"}, "134217728"},
		{graphgen, []string{"-kind", "web", "-scale", "40"}, "-scale in 0..27"},
		{gmbench, []string{"-table", "1", "-scale", "-1"}, "-scale must be in 1.."},
		{gmbench, []string{"-ablation", "-trials", "0"}, "-trials at least 1"},
	} {
		b, err := exec.Command(tc.bin, tc.args...).CombinedOutput()
		name := filepath.Base(tc.bin)
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%s %v: want exit status 2, got %v:\n%s", name, tc.args, err, b)
		}
		if strings.Contains(string(b), "panic:") || !strings.Contains(string(b), tc.bound) {
			t.Errorf("%s %v: want a message naming %q and no panic:\n%s", name, tc.args, tc.bound, b)
		}
	}

	// Several modes in one invocation (activity guarantees engine runs).
	out = run(gmbench, "-activity", "-table", "1", "-scale", "1", "-trials", "1")
	for _, want := range []string{"Table 1: input graphs", "§5.2 SSSP vertex activity", "final-superstep active fraction"} {
		if !strings.Contains(out, want) {
			t.Errorf("gmbench -activity -table 1 output missing %q:\n%s", want, out)
		}
	}
}
