package graph

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzNodeLimit keeps single fuzz iterations small: an input that names
// a number above it but not above MaxNodes could be a valid graph of up
// to MaxNodes vertices, so the target skips it rather than build it.
// Numbers above MaxNodes are still run: they must fail before any
// node-sized allocation.
const fuzzNodeLimit = 1 << 16

// FuzzReadEdgeList feeds arbitrary text to ReadEdgeList: it must return
// an error or a graph with one edge per edge line and every endpoint
// below NumNodes — never panic — and a graph it accepts must survive a
// round trip through WriteEdgeList. Run with
// `go test -fuzz FuzzReadEdgeList ./internal/graph` for continuous
// fuzzing; in normal test runs the seed corpus executes.
func FuzzReadEdgeList(f *testing.F) {
	for _, bad := range badEdgeLists {
		f.Add(bad)
	}
	f.Add("# nodes 4 edges 3\n0 1\n1 2\n3 0\n")
	f.Add("0 1\n1 2\n\n# comment\n2 0\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<12 || namesLargeCount(in) {
			return
		}
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		if got, want := g.NumEdges(), edgeLines(in); got != int64(want) {
			t.Fatalf("NumEdges = %d, input has %d edge lines", got, want)
		}
		for _, d := range g.OutDst {
			if d < 0 || int(d) >= g.NumNodes() {
				t.Fatalf("endpoint %d outside [0, %d)", d, g.NumNodes())
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || !reflect.DeepEqual(g.OutStart, g2.OutStart) ||
			!reflect.DeepEqual(g.OutDst, g2.OutDst) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// edgeLines counts the lines ReadEdgeList treats as edges: neither blank
// nor a '#' comment or header.
func edgeLines(in string) int {
	n := 0
	for _, line := range strings.Split(in, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// namesLargeCount reports whether in contains a decimal number in
// (fuzzNodeLimit, MaxNodes]; see fuzzNodeLimit.
func namesLargeCount(in string) bool {
	for _, tok := range strings.FieldsFunc(in, func(r rune) bool { return r < '0' || r > '9' }) {
		v, err := strconv.ParseInt(tok, 10, 64)
		if err == nil && v > fuzzNodeLimit && v <= MaxNodes {
			return true
		}
	}
	return false
}
