// Package algorithms embeds the Green-Marl sources of the six graph
// algorithms evaluated in the paper (Fig. 2, Fig. 4, and Appendix B):
// Average Teenage Followers, PageRank, Conductance, Single-Source
// Shortest Paths, Random Bipartite Matching, and Approximate Betweenness
// Centrality. It also owns the evaluation's input convention (the
// Table 1 graph stand-ins, the derived input columns, the default
// parameters, and their binding to each program), shared by gmbench,
// gmpc -run and the job server.
package algorithms

// AvgTeen computes, for every user, the number of teenage followers, and
// returns the average of that count over users older than K (paper
// Fig. 2 / §3.1 running example).
const AvgTeen = `// Average number of teenage followers of users over K years old.
Procedure avg_teen_cnt(G: Graph, age: Node_Prop<Int>, teen_cnt: Node_Prop<Int>, K: Int) : Float
{
    Int S = 0;
    Int C = 0;
    Foreach (n: G.Nodes) {
        n.teen_cnt = Count(t: n.InNbrs)(t.age >= 13 && t.age <= 19);
    }
    Foreach (n: G.Nodes) {
        If (n.age > K) {
            S += n.teen_cnt;
            C += 1;
        }
    }
    Float avg = (C == 0) ? 0.0 : (1.0 * S) / C;
    Return avg;
}
`

// PageRank is the damped power-iteration PageRank of the paper's
// Appendix B, iterating until the L1 delta falls below e or max_iter
// rounds elapse.
const PageRank = `// PageRank (paper Appendix B).
Procedure pagerank(G: Graph, e: Double, d: Double, max_iter: Int, pg_rank: Node_Prop<Double>)
{
    Double diff = 0.0;
    Int cnt = 0;
    Double N = G.NumNodes();
    G.pg_rank = 1.0 / N;
    Do {
        diff = 0.0;
        Foreach (t: G.Nodes) {
            Double val = (1.0 - d) / N + d * Sum(w: t.InNbrs)(w.pg_rank / w.Degree());
            diff += (val > t.pg_rank) ? (val - t.pg_rank) : (t.pg_rank - val);
            t.pg_rank = val;
        }
        cnt = cnt + 1;
    } While (diff > e && cnt < max_iter);
}
`

// Conductance computes the conductance of the member==num node subset
// (paper Appendix B).
const Conductance = `// Conductance of a subset of the graph (paper Appendix B).
Procedure conductance(G: Graph, member: Node_Prop<Int>, num: Int) : Double
{
    Int Din = 0;
    Int Dout = 0;
    Int Cross = 0;
    Din = Sum(u: G.Nodes)[u.member == num](u.Degree());
    Dout = Sum(u: G.Nodes)[u.member != num](u.Degree());
    Cross = Sum(u: G.Nodes)[u.member == num](Count(t: u.Nbrs)(t.member != num));
    Double m = (Din < Dout) ? 1.0 * Din : 1.0 * Dout;
    If (m == 0.0) {
        Return (Cross == 0) ? 0.0 : INF;
    } Else {
        Return Cross / m;
    }
}
`

// SSSP is Bellman-Ford-style single-source shortest paths with
// double-buffered distances (paper Appendix B; also the running example
// of the original Pregel paper).
const SSSP = `// Single-source shortest paths (paper Appendix B).
Procedure sssp(G: Graph, root: Node, len: Edge_Prop<Int>, dist: Node_Prop<Int>)
{
    Node_Prop<Bool> updated;
    Node_Prop<Int> dist_nxt;
    Bool fin = False;

    G.dist = (G == root) ? 0 : INF;
    G.updated = (G == root) ? True : False;
    G.dist_nxt = G.dist;

    While (!fin) {
        fin = True;
        Foreach (n: G.Nodes)[n.updated] {
            Foreach (s: n.Nbrs) {
                Edge e = s.ToEdge();
                s.dist_nxt min= n.dist + e.len;
            }
        }
        Foreach (n: G.Nodes) {
            n.updated = n.dist_nxt < n.dist;
            If (n.updated) {
                n.dist = n.dist_nxt;
            }
            n.dist_nxt = n.dist;
        }
        fin = !Exist(n: G.Nodes)[n.updated];
    }
}
`

// Bipartite is the three-phase handshake random maximal bipartite
// matching of the paper's Appendix B. Only boy→girl edges exist; the
// returned Int is the number of matched pairs.
const Bipartite = `// Random bipartite matching (paper Appendix B).
Procedure bipartite_matching(G: Graph, is_boy: Node_Prop<Bool>, match: Node_Prop<Node>) : Int
{
    Node_Prop<Node> suitor;
    Int count = 0;
    Bool fin = False;
    G.match = NIL;

    While (!fin) {
        G.suitor = NIL;
        // Phase 1: every unmatched boy proposes to his unmatched
        // neighbor girls; one concurrent write per girl wins.
        Foreach (b: G.Nodes)[b.is_boy && b.match == NIL] {
            Foreach (g: b.Nbrs)[g.match == NIL] {
                g.suitor = b;
            }
        }
        fin = !Exist(g: G.Nodes)[!g.is_boy && g.suitor != NIL];
        // Phase 2: each proposed-to girl accepts one suitor by writing
        // her ID back to him; one write per boy wins.
        Foreach (g: G.Nodes)[!g.is_boy && g.suitor != NIL] {
            Node b = g.suitor;
            b.suitor = g;
        }
        // Phase 3: boys finalize and notify the matched girl.
        Foreach (b: G.Nodes)[b.is_boy && b.match == NIL && b.suitor != NIL] {
            Node g = b.suitor;
            b.match = g;
            g.match = b;
            count += 1;
        }
    }
    Return count;
}
`

// BC is Approximate Betweenness Centrality as in the SNAP library and
// the paper's Fig. 4: K rounds of forward-BFS sigma accumulation and
// reverse-BFS delta accumulation from random sources.
const BC = `// Approximate Betweenness Centrality (paper Fig. 4).
Procedure bc_approx(G: Graph, K: Int, BC: Node_Prop<Double>)
{
    Node_Prop<Double> sigma;
    Node_Prop<Double> delta;
    G.BC = 0.0;
    Int k = 0;
    While (k < K) {
        Node s = G.PickRandom();
        G.sigma = 0.0;
        G.delta = 0.0;
        s.sigma = 1.0;
        InBFS (v: G.Nodes From s) {
            v.sigma += Sum(w: v.UpNbrs)(w.sigma);
        }
        InReverse {
            v.delta = Sum(w: v.DownNbrs)((v.sigma / w.sigma) * (1.0 + w.delta));
            v.BC += v.delta;
        }
        k = k + 1;
    }
}
`

// ByName maps algorithm short names to their Green-Marl sources, in the
// paper's presentation order.
var ByName = map[string]string{
	"avgteen":     AvgTeen,
	"pagerank":    PageRank,
	"conductance": Conductance,
	"sssp":        SSSP,
	"bipartite":   Bipartite,
	"bc":          BC,
}

// Names lists the algorithms in the paper's order.
var Names = []string{"avgteen", "pagerank", "conductance", "sssp", "bipartite", "bc"}
