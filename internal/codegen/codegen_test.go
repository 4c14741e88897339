package codegen

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/core"
	"gmpregel/internal/ir"
)

func TestJavaEmissionForAllAlgorithms(t *testing.T) {
	for _, name := range algorithms.Names {
		t.Run(name, func(t *testing.T) {
			c, err := core.Compile(algorithms.ByName[name], core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			src := Java(c.Program)
			for _, want := range []string{
				"class Message implements Writable",
				"Master extends Master",
				"Vertex extends Vertex",
				"switch (_state)",
				"getGlobalObjectMap()",
			} {
				if !strings.Contains(src, want) {
					t.Errorf("generated Java missing %q", want)
				}
			}
			if strings.Contains(src, "unsupported") {
				t.Errorf("generated Java contains unsupported constructs:\n%s", src)
			}
			loc := CountLines(src)
			if loc < 50 {
				t.Errorf("generated Java suspiciously short: %d lines", loc)
			}
			t.Logf("%s: %d generated GPS lines", name, loc)
		})
	}
}

func TestGeneratedLoCFarExceedsGreenMarl(t *testing.T) {
	// The paper's Table 2 point: Green-Marl programs are 5-10x shorter
	// than their GPS implementations.
	for _, name := range algorithms.Names {
		c, err := core.Compile(algorithms.ByName[name], core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gm := CountLines(algorithms.ByName[name])
		java := CountLines(Java(c.Program))
		if java < 2*gm {
			t.Errorf("%s: generated GPS %d lines vs Green-Marl %d lines; expected at least 2x", name, java, gm)
		}
	}
}

func TestCountLines(t *testing.T) {
	if got := CountLines("a\n\n  \nb\nc\n"); got != 3 {
		t.Errorf("CountLines = %d, want 3", got)
	}
	if got := CountLines(""); got != 0 {
		t.Errorf("CountLines empty = %d, want 0", got)
	}
}

func TestGiraphEmissionForAllAlgorithms(t *testing.T) {
	for _, name := range algorithms.Names {
		t.Run(name, func(t *testing.T) {
			c, err := core.Compile(algorithms.ByName[name], core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			src := Giraph(c.Program)
			for _, want := range []string{
				"extends BasicComputation",
				"DefaultMasterCompute",
				"registerPersistentAggregator",
				"implements Writable",
			} {
				if !strings.Contains(src, want) {
					t.Errorf("generated Giraph missing %q", want)
				}
			}
			if loc := CountLines(src); loc < 60 {
				t.Errorf("generated Giraph suspiciously short: %d lines", loc)
			}
		})
	}
}

func TestGPSAndGiraphShareStructure(t *testing.T) {
	c, err := core.Compile(algorithms.SSSP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gps := Java(c.Program)
	giraph := Giraph(c.Program)
	// Both backends must reference every vertex state case.
	for i, n := range c.Program.Nodes {
		if n.Vertex == nil {
			continue
		}
		needle := "case " + itoa(i) + ":"
		if !strings.Contains(gps, needle) || !strings.Contains(giraph, needle) {
			t.Errorf("state %d missing from a backend", i)
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func TestFloatConstantsAreJavaDoubles(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		want string
	}{
		{1, "1.0"},
		{-2, "-2.0"},
		{0.85, "0.85"},
		{1e-10, "1e-10"},
		{1e20, "1e+20"},
		{math.Inf(1), "Double.POSITIVE_INFINITY"},
		{math.Inf(-1), "Double.NEGATIVE_INFINITY"},
		{math.NaN(), "Double.NaN"},
	} {
		if got := constJava(ir.Float(tc.f)); got != tc.want {
			t.Errorf("constJava(%v) = %q, want %q", tc.f, got, tc.want)
		}
	}
}
