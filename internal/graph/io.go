package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph as a plain-text edge list:
// a header line "# nodes N edges M" followed by one "src dst" pair per
// line. The format is the interchange format of cmd/graphgen.
func WriteEdgeList(w io.Writer, g *Directed) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d edges %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, d := range g.OutNbrs(v) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, d); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxEdgeHint caps how many edges ReadEdgeList preallocates on the word
// of a header (512 KiB of Edge values): the declared count is a hint
// from outside the program, not a promise.
const maxEdgeHint = 1 << 16

// ReadEdgeList parses the format produced by WriteEdgeList. Lines
// beginning with '#' other than the header are ignored, as are blank
// lines. If no header is present, the vertex count is inferred as
// 1 + max endpoint. Negative endpoints, negative header counts and a
// header edge count the file does not deliver are errors.
func ReadEdgeList(r io.Reader) (*Directed, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	n, declared := -1, -1
	maxID := NodeID(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var hn, hm int
			if _, err := fmt.Sscanf(line, "# nodes %d edges %d", &hn, &hm); err == nil {
				if hn < 0 || hn > math.MaxInt32 || hm < 0 {
					return nil, fmt.Errorf("graph: line %d: header counts out of range: nodes %d edges %d", lineNo, hn, hm)
				}
				n, declared = hn, hm
				edges = make([]Edge, 0, min(hm, maxEdgeHint))
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst', got %q", lineNo, line)
		}
		s, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src %q: %v", lineNo, fields[0], err)
		}
		d, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst %q: %v", lineNo, fields[1], err)
		}
		if s < 0 || d < 0 {
			return nil, fmt.Errorf("graph: line %d: negative endpoint in %q", lineNo, line)
		}
		e := Edge{NodeID(s), NodeID(d)}
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if declared >= 0 && declared != len(edges) {
		return nil, fmt.Errorf("graph: header declares %d edges, file has %d", declared, len(edges))
	}
	if n < 0 {
		n = int(maxID) + 1
	}
	if int(maxID) >= n {
		return nil, fmt.Errorf("graph: endpoint %d exceeds declared node count %d", maxID, n)
	}
	return FromEdges(n, edges), nil
}
