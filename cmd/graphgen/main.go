// Command graphgen writes synthetic evaluation graphs as plain-text edge
// lists (the interchange format read by graph.ReadEdgeList).
//
//	graphgen -kind twitter  -n 100000 -deg 16 -seed 1 -out twitter.el
//	graphgen -kind bipartite -n 50000 -deg 10 -out bip.el   (n per side)
//	graphgen -kind web      -scale 17 -deg 18 -out web.el
//	graphgen -kind random   -n 10000 -m 100000 -out rnd.el
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/bits"
	"os"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

func main() {
	var (
		kind  = flag.String("kind", "twitter", "twitter | bipartite | web | random | ring")
		n     = flag.Int("n", 10000, "vertex count (per side for bipartite)")
		m     = flag.Int("m", 0, "edge count (random only; default 10n)")
		deg   = flag.Int("deg", 16, "out-degree (twitter/bipartite) or edge factor (web)")
		scale = flag.Int("scale", 0, "log2 vertex count (web only; overrides -n)")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()
	maxScale := bits.Len(graph.MaxNodes) - 1
	if *n < 1 || *n > graph.MaxNodes || *scale < 0 || *scale > maxScale || *deg < 0 || *m < 0 {
		fmt.Fprintf(os.Stderr, "graphgen: -n must be in 1..%d (graph.MaxNodes), -scale in 0..%d, -deg and -m at least 0\n", graph.MaxNodes, maxScale)
		os.Exit(2)
	}

	var g *graph.Directed
	switch *kind {
	case "twitter":
		g = gen.TwitterLike(*n, *deg, *seed)
	case "bipartite":
		g = gen.Bipartite(*n, *n, *deg, *seed)
	case "web":
		s := *scale
		if s == 0 {
			s = 1
			for (1 << uint(s)) < *n {
				s++
			}
		}
		g = gen.WebLike(s, *deg, *seed)
	case "random":
		edges := *m
		if edges == 0 {
			edges = 10 * *n
		}
		g = gen.Random(*n, edges, *seed)
	case "ring":
		g = gen.Ring(*n)
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	if err := graph.WriteEdgeList(bw, g); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	st := graph.ComputeStats(g)
	fmt.Fprintf(os.Stderr, "graphgen: %s: %d nodes, %d edges, max out-degree %d\n",
		*kind, st.Nodes, st.Edges, st.MaxOutDeg)
}
