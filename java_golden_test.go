package gmpregel_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmpregel"
)

// TestJavaGoldens renders both Java targets and the Pregel-canonical
// Green-Marl form for every algorithm program under testdata and compares
// them byte for byte with the committed goldens (regenerate with
// TESTDATA_WRITE=1 go test -run TestJavaGoldens .). The canonical golden
// pins the output of every compiler rewrite, not only what the printers
// make of it.
// The printer's format strings are not constants, so go vet cannot catch
// a verb/argument mismatch; the %! check here does.
func TestJavaGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.gm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no .gm fixtures found")
	}
	for _, gmPath := range paths {
		p, err := gmpregel.CompileFile(gmPath, gmpregel.Options{})
		if err != nil {
			t.Fatalf("%s: %v", gmPath, err)
		}
		base := strings.TrimSuffix(filepath.Base(gmPath), ".gm")
		for _, target := range []struct {
			ext string
			src string
		}{
			{".gps.java", p.JavaSource()},
			{".giraph.java", p.GiraphSource()},
			{".canonical.gm", p.CanonicalSource()},
		} {
			golden := filepath.Join("testdata", "golden", base+target.ext)
			for _, bad := range []string{"%!", "unsupported"} {
				if strings.Contains(target.src, bad) {
					t.Errorf("%s: output contains %q", golden, bad)
				}
			}
			if os.Getenv("TESTDATA_WRITE") == "1" {
				if err := os.WriteFile(golden, []byte(target.src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%s: %v (regenerate with TESTDATA_WRITE=1 go test -run TestJavaGoldens .)", golden, err)
			}
			if target.src != string(want) {
				t.Errorf("%s: generated Java drifted from the golden", golden)
			}
		}
	}
}
