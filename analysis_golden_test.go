package gmpregel_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gmpregel"
	"gmpregel/internal/gm/analysis"
)

// diagGoldenPath maps a .gm fixture to its committed golden rendering.
func diagGoldenPath(gmPath string) string {
	base := strings.TrimSuffix(filepath.Base(gmPath), ".gm")
	return filepath.Join("testdata", "golden", base+".diag")
}

// diagFixtures lists every Green-Marl source under testdata (the nine
// algorithm programs) and testdata/diag (the targeted analysis
// fixtures).
func diagFixtures(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, pat := range []string{
		filepath.Join("testdata", "*.gm"),
		filepath.Join("testdata", "diag", "*.gm"),
	} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m...)
	}
	sort.Strings(out)
	if len(out) == 0 {
		t.Fatal("no .gm fixtures found")
	}
	return out
}

// TestAnalysisGoldens runs the full diagnostics pass over every fixture
// and compares the text rendering against the committed golden file
// (regenerate with TESTDATA_WRITE=1 go test -run TestAnalysisGoldens .).
// Each diagnostic must carry the severity its code is registered with,
// and the errors must be exactly Compile's verdict.
func TestAnalysisGoldens(t *testing.T) {
	for _, gmPath := range diagFixtures(t) {
		src, err := os.ReadFile(gmPath)
		if err != nil {
			t.Fatal(err)
		}
		diags := gmpregel.Diagnose(string(src))
		var verdict []string
		for _, d := range diags {
			if ci, ok := analysis.LookupCode(d.Code); !ok || d.Severity != ci.Severity {
				t.Errorf("%s: %s is reported as %s, registered as %s", gmPath, d.Code, d.Severity, ci.Severity)
			}
			if d.Severity == analysis.SevError {
				verdict = append(verdict, d.Error())
			}
		}
		_, cerr := gmpregel.Compile(string(src), gmpregel.Options{})
		if (cerr == nil) != (verdict == nil) || cerr != nil && strings.Join(verdict, "\n") != cerr.Error() {
			t.Errorf("%s: Compile fails with %v, but Diagnose reports errors %q", gmPath, cerr, verdict)
		}
		got := diags.Text()
		golden := diagGoldenPath(gmPath)
		if os.Getenv("TESTDATA_WRITE") == "1" {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with TESTDATA_WRITE=1 go test -run TestAnalysisGoldens .)", golden, err)
		}
		if got != string(want) {
			t.Errorf("%s: diagnostics drifted from %s\n--- got ---\n%s--- want ---\n%s", gmPath, golden, got, want)
		}
	}
}

// TestAnalysisFixtureCodes asserts the load-bearing expectations behind
// each targeted fixture: which codes must (and must not) appear.
func TestAnalysisFixtureCodes(t *testing.T) {
	cases := []struct {
		file    string
		want    []string
		wantNot []string
	}{
		{"conflict.gm", []string{"GM2001"}, []string{"GM2002", "GM1001"}},
		{"conflict_ok.gm", nil, []string{"GM2001"}},
		{"hazard.gm", []string{"GM2002", "GM4002"}, []string{"GM2001"}},
		{"hazard_ok.gm", nil, []string{"GM2002", "GM4002"}},
		{"deadprop.gm", []string{"GM3001", "GM3002"}, nil},
		{"deadprop_ok.gm", nil, []string{"GM3001", "GM3002"}},
		{"payload_wide.gm", []string{"GM4001", "GM4003"}, nil},
		{"payload_ok.gm", []string{"GM4001"}, []string{"GM4003"}},
		{"noncanon.gm", []string{"GM5006"}, nil},
		{"noncanon_ok.gm", []string{"GM4001"}, []string{"GM5006"}},
		{"multierr.gm", []string{"GM1001"}, nil},
		{"reject_cond_reduce.gm", []string{"GM5007"}, nil},
		{"reject_indegree.gm", []string{"GM5011"}, nil},
		{"reject_while_sum.gm", []string{"GM5011"}, nil},
		{"reject_nested_reduce.gm", []string{"GM5009"}, nil},
		{"reject_random_write.gm", []string{"GM5011"}, []string{"GM5003"}},
		{"reject_inedge_push.gm", []string{"GM5008"}, nil},
	}
	for _, tc := range cases {
		src, err := os.ReadFile(filepath.Join("testdata", "diag", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		diags := gmpregel.Diagnose(string(src))
		codes := map[string]bool{}
		for _, d := range diags {
			codes[d.Code] = true
		}
		for _, w := range tc.want {
			if !codes[w] {
				t.Errorf("%s: expected %s, got %v", tc.file, w, diags.Codes())
			}
		}
		for _, w := range tc.wantNot {
			if codes[w] {
				t.Errorf("%s: must not report %s, got %v", tc.file, w, diags.Codes())
			}
		}
	}
}

// TestMultiErrorSema asserts the semantic checker reports every error
// in one run rather than stopping at the first.
func TestMultiErrorSema(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "diag", "multierr.gm"))
	if err != nil {
		t.Fatal(err)
	}
	diags := gmpregel.Diagnose(string(src))
	n := 0
	seen := map[string]bool{}
	for _, d := range diags {
		if d.Code == "GM1001" {
			n++
			seen[d.Msg] = true
		}
	}
	if n < 3 || len(seen) < 3 {
		t.Fatalf("want >=3 distinct GM1001 errors from one run, got %d: %v", n, diags)
	}
}

// TestDiagnosticsJSONRoundTrip checks the JSON rendering parses back
// into an identical diagnostic list.
func TestDiagnosticsJSONRoundTrip(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "pagerank.gm"))
	if err != nil {
		t.Fatal(err)
	}
	diags := gmpregel.Diagnose(string(src))
	if !diags.HasWarnings() {
		t.Fatal("pagerank should carry hazard warnings")
	}
	data, err := diags.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("JSON rendering is invalid: %s", data)
	}
	back, err := gmpregel.DecodeDiagnostics(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(diags) {
		t.Fatalf("round trip lost diagnostics: %d != %d", len(back), len(diags))
	}
	for i := range back {
		if back[i].String() != diags[i].String() || back[i].Hint != diags[i].Hint {
			t.Errorf("diag %d drifted: %q vs %q", i, back[i], diags[i])
		}
	}
}

// TestCompiledCarriesAnalysis checks core.Compile attaches diagnostics
// and the artifact summary to its output.
func TestCompiledCarriesAnalysis(t *testing.T) {
	prog, err := gmpregel.CompileFile(filepath.Join("testdata", "pagerank.gm"), gmpregel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := prog.Diagnostics()
	if !d.HasWarnings() {
		t.Fatalf("pagerank diagnostics should include warnings, got %v", d.Codes())
	}

	var sb strings.Builder
	if err := prog.SaveArtifact(&sb); err != nil {
		t.Fatal(err)
	}
	var art struct {
		Analysis *struct {
			Warnings    int      `json:"warnings"`
			WarningFree bool     `json:"warning_free"`
			Codes       []string `json:"codes"`
		} `json:"analysis"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &art); err != nil {
		t.Fatal(err)
	}
	if art.Analysis == nil {
		t.Fatal("artifact JSON has no analysis summary")
	}
	if art.Analysis.WarningFree || art.Analysis.Warnings == 0 {
		t.Errorf("pagerank summary should record warnings: %+v", art.Analysis)
	}

	reloaded, err := gmpregel.LoadArtifact(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := reloaded.SaveArtifact(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}
