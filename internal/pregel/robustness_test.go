package pregel

// Robustness-layer tests: the resource governor's staged degradation
// (outbox release, inbox spill, clean budget abort), the extended
// fault-phase matrix, the codec v3 integrity frame, and the
// barrier-consistency of partial Stats under aborts that race recovery.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// ---- Resource governor ----

// A run under a budget of a fraction of the unconstrained accounted peak
// must complete bit-identically by spilling inboxes to the temp-file
// segment store instead of aborting (acceptance criterion: graceful
// degradation before ErrBudgetExceeded).
func TestGovernorSpillCompletesBitIdentical(t *testing.T) {
	// Once at stride 2 (exact) and once at stride 5 (widened): the
	// budgets are fractions of each width's own accounted peak, and the
	// spilled windows come back through the same unpack either way.
	for _, width := range []slotDecl{slotsExact, slotsWidened} {
		t.Run("slots="+width.String(), func(t *testing.T) { testGovernorSpill(t, width) })
	}
}

func testGovernorSpill(t *testing.T, width slotDecl) {
	const n = 256
	g := gen.TwitterLike(n, 4, 3)
	run := func(budget int64) (*perfRankJob, Stats, error) {
		j := newPerfRankJob(n, 6)
		j.width = width
		st, err := Run(g, j, Config{NumWorkers: 4, Seed: 2, MemoryBudget: budget})
		return j, st, err
	}
	clean, cleanSt, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	// A huge budget never degrades but measures the accounted peak.
	_, peakSt, err := run(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	peak := peakSt.MemoryPeakBytes
	if peak == 0 {
		t.Fatal("MemoryPeakBytes = 0 under an enabled governor")
	}
	if peakSt.Spills != 0 {
		t.Fatalf("Spills = %d under a huge budget, want 0", peakSt.Spills)
	}
	for _, frac := range []struct {
		name   string
		budget int64
	}{{"half-peak", peak / 2}, {"quarter-peak", peak / 4}} {
		t.Run(frac.name, func(t *testing.T) {
			j, st, err := run(frac.budget)
			if err != nil {
				t.Fatalf("budget %d of peak %d: %v", frac.budget, peak, err)
			}
			if !reflect.DeepEqual(clean.rank, j.rank) {
				t.Errorf("budget-constrained ranks differ from unconstrained run")
			}
			if a, b := statsModuloRecovery(cleanSt), statsModuloRecovery(st); !reflect.DeepEqual(a, b) {
				t.Errorf("budget-constrained stats differ:\nclean:    %+v\nbudgeted: %+v", a, b)
			}
			if frac.budget == peak/4 && st.Spills == 0 {
				t.Errorf("quarter-peak budget completed without spilling (peak %d, budget %d)", peak, frac.budget)
			}
			if st.Spills > 0 && st.SpillBytes == 0 {
				t.Errorf("Spills = %d but SpillBytes = 0", st.Spills)
			}
		})
	}
}

// The broadcast index is fixed memory the governor accounts once a run
// has fetched it: nothing before; at one worker, where it is the graph's
// CSR, only the identity offsets up to the largest out-degree; and at
// W>1 exactly its permuted edge list, its edge offsets and a cut row of
// W+1 offsets per vertex, 8·E + 4·V·(W+1) bytes — each vertex's
// out-neighbours, as local indices on their owners with their out-edge
// offsets, one group per (vertex, worker) holding exactly the
// neighbours that worker owns, in out-edge order — on a random graph
// and on the in-skewed one, whose in-edges land mostly on one worker.
// Only a folded broadcast fetches the index: the folded job sending per
// edge and the min-label job, which does not fold, never do.
func TestGovernorAccountsBroadcastIndex(t *testing.T) {
	const n = 200
	g := gen.TwitterLike(n, 6, 5)
	perEdge := newFoldJob(n, 8, true)
	perEdge.perEdge = true
	for _, j := range []Job{perEdge, &minLabelJob{label: make([]int64, n)}} {
		e := newEngine(g, j, Config{NumWorkers: 3, Seed: 1, MaxSupersteps: 30}.withDefaults())
		if err := e.loop(context.Background()); err != nil {
			t.Fatal(err)
		}
		if e.nbrs != nil {
			t.Errorf("%T built a broadcast index without a folded broadcast", j)
		}
		e.stop()
	}
	for _, g := range []*graph.Directed{g, inSkewedGraph(n)} {
		maxDeg := 0
		for v := graph.NodeID(0); int(v) < n; v++ {
			maxDeg = max(maxDeg, g.OutDegree(v))
		}
		for _, cfg := range []Config{{NumWorkers: 1}, {NumWorkers: 3}, {NumWorkers: 2, ChunkSize: 16},
			{NumWorkers: 3, Partitioner: PartitionDegree}, {NumWorkers: 2, Partitioner: PartitionDegree, ChunkSize: 16}} {
			w := cfg.NumWorkers
			j := newPerfRankJob(n, 2)
			j.fold = true
			cfg.Seed = 1
			e := newEngine(g, j, cfg.withDefaults())
			before := e.accountedUsage()
			ix := e.nbrIndex()
			grew := e.accountedUsage() - before
			e.stop()
			if w == 1 {
				if grew != int64(4*maxDeg) || &ix.local[0] != &g.OutDst[0] {
					t.Errorf("W=1: the index adds %d accounted bytes, want %d beside the CSR itself", grew, 4*maxDeg)
				}
				continue
			}
			if want := int64(8*len(g.OutDst) + 4*n*(w+1)); grew != want {
				t.Errorf("%s: the index adds %d accounted bytes, want %d", scheduleName(cfg), grew, want)
			}
			owner := e.workers[0].ownerOf
			for v := graph.NodeID(0); int(v) < n; v++ {
				lo, hi := g.OutEdgeRange(v)
				var got []graph.NodeID
				for d := range w {
					nbrs, offs := ix.owned(v, d)
					var wantNbrs []graph.NodeID
					var wantOffs []uint32
					for off, u := range g.OutNbrs(v) {
						if owner(u) == d {
							wantNbrs = append(wantNbrs, graph.NodeID(e.workers[d].localOf(u)))
							wantOffs = append(wantOffs, uint32(off))
						}
					}
					if len(nbrs) != len(wantNbrs) || len(nbrs) > 0 && (!reflect.DeepEqual(nbrs, wantNbrs) || !reflect.DeepEqual(offs, wantOffs)) {
						t.Fatalf("vertex %d worker %d: owned %v at offsets %v, want %v at %v in out-edge order",
							v, d, nbrs, offs, wantNbrs, wantOffs)
					}
					got = append(got, nbrs...)
				}
				if len(got) != int(hi-lo) {
					t.Fatalf("vertex %d: its groups cover %d of %d out-neighbours", v, len(got), hi-lo)
				}
			}
		}
	}
}

// The pull fold's memory is governed like the broadcast index: a job
// that declares folds accounts its broadcast value columns from
// construction — a word and a stamp per folded type at every position,
// the vertices and posGap more per worker — and one without folds has
// none. The first pull fetches the in-index, which adds nothing at one
// worker, where it is the graph's own in-CSR, and at W>1 exactly its
// offsets and sender positions, plus the out-edge column only for a job
// that declares an edge column (MessageType.EdgeAdd): every edge once, under
// its destination's position, listed in (source worker, source local,
// out-edge) order — on a random graph and on the in-skewed one, under
// both partitioners.
func TestGovernorAccountsInIndexAndValueColumns(t *testing.T) {
	const n = 200
	plain := newEngine(gen.Ring(n), newPerfRankJob(n, 2), Config{NumWorkers: 2}.withDefaults())
	if plain.bvals != nil || plain.bstamp != nil {
		t.Error("a job without folds has broadcast value columns")
	}
	plain.stop()
	for _, g := range []*graph.Directed{gen.TwitterLike(n, 6, 5), inSkewedGraph(n)} {
		for _, cfg := range []Config{{NumWorkers: 1}, {NumWorkers: 3}, {NumWorkers: 2, Partitioner: PartitionDegree},
			{NumWorkers: 3, Partitioner: PartitionDegree, ChunkSize: 16}} {
			cfg.Seed = 1
			rank := newPerfRankJob(n, 2)
			rank.fold = true
			e := newEngine(g, rank, cfg.withDefaults())
			npos := n + cfg.NumWorkers*posGap
			want := int64(npos) * (8 + 4)
			for _, wk := range e.workers {
				want += int64(len(wk.inOff))*4 + int64(len(wk.folds))*foldSlotBytes
			}
			if got := e.accountedUsage(); len(e.bvals) != npos || len(e.bstamp) != npos || got != want {
				t.Errorf("%s: %d values, %d stamps and %d accounted bytes, want %d, %d and %d",
					scheduleName(cfg), len(e.bvals), len(e.bstamp), got, npos, npos, want)
			}
			e.stop()
			// The dense fold job's int min declares an edge column.
			edged := newFoldJob(n, 2, true)
			edged.dense = true
			_, edged.ilen = edgeCols(g)
			// The two share the in-index's offsets and senders.
			if a, b := checkInIndex(t, g, rank, cfg), checkInIndex(t, g, edged, cfg); &a.off[0] != &b.off[0] || &a.src[0] != &b.src[0] {
				t.Errorf("%s: a job with an edge column and one without hold two in-indexes", scheduleName(cfg))
			}
		}
	}
}

// checkInIndex pulls j's first superstep under cfg, every folded type
// once, and checks and returns the in-index it fetches and accounts.
func checkInIndex(t *testing.T, g *graph.Directed, j Job, cfg Config) *inIndex {
	t.Helper()
	n := g.NumNodes()
	e := newEngine(g, j, cfg.withDefaults())
	defer e.stop()
	edge := slices.ContainsFunc(e.foldEdges, func(c edgeCol) bool { return c.i != nil || c.f != nil })
	name := fmt.Sprintf("%s/edge=%v", scheduleName(cfg), edge)
	e.runVertexPhase(0)
	e.routeMessages()
	ix := e.in
	if e.pulls != int64(len(e.folds)) || ix == nil {
		t.Fatalf("%s: a dense superstep pulled %d times, want %d, and fetched in-index %v", name, e.pulls, len(e.folds), ix != nil)
	}
	with := e.accountedUsage()
	e.in = nil
	grew := with - e.accountedUsage()
	e.in = ix
	if cfg.NumWorkers == 1 {
		start, src, edges := g.InCSR()
		if grew != 0 || &ix.off[0] != &start[0] || &ix.src[0] != &src[0] || &ix.edge[0] != &edges[0] {
			t.Errorf("%s: the in-index adds %d accounted bytes, want 0, and should be the graph's in-CSR", name, grew)
		}
		return ix
	}
	npos := len(ix.off) - 1
	if want := int64(8*(npos+1) + 4*len(g.OutDst) + 8*len(g.OutDst)*btoi(edge)); grew != want || (ix.edge != nil) != edge {
		t.Errorf("%s: the in-index adds %d accounted bytes, want %d, and has the edge column %v, want %v",
			name, grew, want, ix.edge != nil, edge)
	}
	// want lists each vertex's in-edges as (source position, out-edge),
	// the out-edge only with the column, walking the sources in
	// position order.
	posOf := make([]int, n)
	for w, wk := range e.workers {
		for li, v := range wk.ids {
			posOf[v] = e.vbase[w] + li
		}
	}
	type inEdge struct {
		src  graph.NodeID
		edge int64
	}
	want := make([][]inEdge, n)
	for _, wk := range e.workers {
		for _, u := range wk.ids {
			lo, hi := g.OutEdgeRange(u)
			for k := lo; k < hi; k++ {
				in := inEdge{src: graph.NodeID(posOf[u])}
				if edge {
					in.edge = k
				}
				want[g.OutDst[k]] = append(want[g.OutDst[k]], in)
			}
		}
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		var got []inEdge
		for k := ix.off[posOf[v]]; k < ix.off[posOf[v]+1]; k++ {
			got = append(got, inEdge{ix.src[k], 0})
			if edge {
				got[len(got)-1].edge = ix.edge[k]
			}
		}
		if !reflect.DeepEqual(got, want[v]) {
			t.Fatalf("%s: vertex %d's in-edges are %v, want %v in (source position, out-edge) order", name, v, got, want[v])
		}
	}
	if ix.off[npos] != int64(len(g.OutDst)) {
		t.Errorf("%s: the in-index holds %d in-edges, want %d", name, ix.off[npos], len(g.OutDst))
	}
	return ix
}

// The broadcast index is built once per (graph, worker count,
// partitioner) and shared read-only: a second run on the graph reuses
// the first run's index, and so does one that differs only in
// ChunkSize, whose geometry the index does not depend on; another worker
// count or partitioner gets its own, concurrent first runs (under -race)
// all get the one build, and every run that fetches it still accounts it
// as its own fixed memory.
func TestBroadcastIndexSharedPerGraph(t *testing.T) {
	const n = 120
	g := gen.TwitterLike(n, 5, 8)
	fetch := func(cfg Config) (*nbrIndex, int64) {
		j := newPerfRankJob(n, 2)
		j.fold = true
		e := newEngine(g, j, cfg.withDefaults())
		defer e.stop()
		before := e.accountedUsage()
		ix := e.nbrIndex()
		return ix, e.accountedUsage() - before
	}
	var start, done sync.WaitGroup
	start.Add(1)
	const runs = 4
	got := make([]*nbrIndex, runs)
	for r := range runs {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			j := newPerfRankJob(n, 3)
			j.fold = true
			e := newEngine(g, j, Config{NumWorkers: 3, Seed: 1}.withDefaults())
			defer e.stop()
			if err := e.loop(context.Background()); err != nil {
				t.Error(err)
			}
			got[r] = e.nbrs
		}()
	}
	start.Done()
	done.Wait()
	for r := range runs {
		if got[r] == nil || got[r] != got[0] {
			t.Fatalf("concurrent run %d fetched index %p, run 0 %p: want one shared build", r, got[r], got[0])
		}
	}
	ix, grew := fetch(Config{NumWorkers: 3})
	if ix != got[0] {
		t.Error("a later run at the same worker count and partitioner rebuilt the index")
	}
	if grew != ix.bytes() || grew == 0 {
		t.Errorf("a run sharing the index accounts %d bytes for it, want its %d", grew, ix.bytes())
	}
	for _, chunk := range []int{1, 16} {
		if other, _ := fetch(Config{NumWorkers: 3, ChunkSize: chunk}); other != ix {
			t.Errorf("a run at ChunkSize %d built its own index, want the one shared at the same worker count and partitioner", chunk)
		}
	}
	for _, cfg := range []Config{{NumWorkers: 2}, {NumWorkers: 3, Partitioner: PartitionDegree}, {NumWorkers: 1}} {
		other, _ := fetch(cfg)
		if other == ix {
			t.Errorf("W=%d part=%d shares the W=3 mod index", cfg.NumWorkers, cfg.Partitioner)
		}
		if again, _ := fetch(cfg); again != other {
			t.Errorf("W=%d part=%d rebuilt its index", cfg.NumWorkers, cfg.Partitioner)
		}
	}
}

// A budget below the post-degradation floor aborts cleanly with a
// wrapped ErrBudgetExceeded and barrier-consistent partial Stats —
// never an OOM or panic.
func TestGovernorBudgetExhaustedAbortsCleanly(t *testing.T) {
	const n = 128
	g := gen.TwitterLike(n, 4, 3)
	j := newPerfRankJob(n, 6)
	st, err := Run(g, j, Config{NumWorkers: 4, Seed: 2, MemoryBudget: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error message %q does not mention the budget", err)
	}
	// The floor (inbox offset tables) exceeds 1 byte at the very first
	// govern point, so the run aborts before any superstep commits.
	if st.Supersteps != 0 {
		t.Errorf("Supersteps = %d, want 0 (barrier-consistent abort)", st.Supersteps)
	}
	if st.MemoryPeakBytes == 0 {
		t.Errorf("MemoryPeakBytes = 0, want the pre-abort accounted usage")
	}
}

// The spill segment store round-trips records bit-identically at every
// record width, both whole segments and chunk-aligned sub-windows,
// across multiple appended segments. A segment costs exactly the
// records' in-memory footprint: stride words of recWordBytes each.
func TestSpillStoreRoundTrip(t *testing.T) {
	for stride := 1; stride <= 1+MaxPayloadSlots; stride++ {
		t.Run(fmt.Sprintf("stride=%d", stride), func(t *testing.T) {
			var s spillStore
			defer s.close()
			mk := func(k, salt int) []uint64 {
				var recs []uint64
				for i := 0; i < k; i++ {
					var m Msg
					for sl := 0; sl < stride-1; sl++ {
						m.V[sl] = uint64(i+salt)<<32 | uint64(sl) | 0x8000000000000000
					}
					recs = appendRec(recs, packHeader(graph.NodeID(i*3+salt), uint8((i+salt)%3)), &m.V, stride-1)
				}
				return recs
			}
			a := mk(17, 0)
			offA, scratch, err := s.writeSegment(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			b := mk(5, 1000)
			offB, _, err := s.writeSegment(b, scratch)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(17 * stride * recWordBytes); offB != want {
				t.Errorf("second segment offset = %d, want %d", offB, want)
			}
			got, _, err := s.readWindow(nil, nil, offA, 0, len(a))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, got) {
				t.Errorf("segment A round-trip differs")
			}
			win, _, err := s.readWindow(nil, nil, offA, 4*stride, 9*stride)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a[4*stride:13*stride], win) {
				t.Errorf("sub-window of records [4:13) round-trip differs")
			}
			got, _, err = s.readWindow(got, nil, offB, 0, len(b))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b, got) {
				t.Errorf("segment B round-trip differs")
			}
			empty, _, err := s.readWindow(nil, nil, offA, 3*stride, 0)
			if err != nil || len(empty) != 0 {
				t.Errorf("empty window: recs=%v err=%v", empty, err)
			}
		})
	}
}

// ---- Extended fault-phase matrix ----

// faultCase is one crash plan of the fault-phase matrix and the number
// of supersteps its single rollback re-executes.
type faultCase struct {
	name      string
	plan      FaultPlan
	recovered int
}

// everyPhaseCases crosses each crash phase — vertex compute, routing and
// the steal hand-off — with three crash supersteps under CheckpointEvery
// 2: superstep 0 (nothing routed yet, the rollback target written at the
// same barrier), superstep 2 (messages in flight, the target again
// written at the same barrier) and superstep 3 (one superstep past the
// target). The torn checkpoint at superstep 2 is paired with a
// vertex-compute crash at 2 and at 3, the way chaos.Generate pairs it,
// so the rollback falls back to the checkpoint at 0.
func everyPhaseCases() []faultCase {
	var cases []faultCase
	for _, p := range []FaultPhase{FaultVertexCompute, FaultRouting, FaultSteal} {
		for _, s := range []int{0, 2, 3} {
			cases = append(cases, faultCase{
				name:      fmt.Sprintf("%v/step=%d", p, s),
				plan:      FaultPlan{{Superstep: s, Worker: 1, Phase: p}},
				recovered: s%2 + 1,
			})
		}
	}
	for _, s := range []int{2, 3} {
		cases = append(cases, faultCase{
			name: fmt.Sprintf("%v/step=%d", FaultCheckpoint, s),
			plan: FaultPlan{
				{Superstep: 2, Worker: 0, Phase: FaultCheckpoint},
				{Superstep: s, Worker: 1, Phase: FaultVertexCompute},
			},
			recovered: s + 1,
		})
	}
	return cases
}

// Every fault phase is injectable and recovers bit-identically at every
// point of the schedule lattice, at each crash superstep of
// everyPhaseCases. The oracle for a whole (worker count, partitioner)
// group is its fault-free one-chunk reference run.
func TestFaultEveryPhaseRecoveryBitIdentical(t *testing.T) {
	const n = 48
	g := gen.Ring(n)
	cases := everyPhaseCases()
	runFolded := func(cfg Config) (any, Stats) {
		j := newFoldJob(n, 8, true)
		st, err := Run(g, j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return j.outputs(), st
	}
	// The whole matrix runs at stride 2 (exact) and at stride 5
	// (widened); the reference is the narrow fault-free run, so the wide
	// faulty runs are also checked against the other width, bar the type
	// tag widening adds (tagged). The folded job runs it once more.
	for _, group := range scheduleGroups(Config{Seed: 3}) {
		labels, st := runMinLabel(t, g, n, group[0])
		foldOut, foldSt := runFolded(group[0])
		for _, cfg := range group {
			for _, c := range cases {
				faulty := cfg
				faulty.CheckpointEvery = 2
				faulty.Faults = c.plan
				t.Run(scheduleName(cfg)+"/"+c.name+"/folded", func(t *testing.T) {
					out, fst := runFolded(faulty)
					if !reflect.DeepEqual(foldOut, out) {
						t.Errorf("outputs differ from the fault-free reference")
					}
					if a, b := statsModuloRecovery(foldSt), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
						t.Errorf("stats differ:\nfault-free: %+v\nfaulty:     %+v", a, b)
					}
					if fst.Recoveries != 1 || fst.RecoveredSupersteps != c.recovered {
						t.Errorf("Recoveries/RecoveredSupersteps = %d/%d, want 1/%d",
							fst.Recoveries, fst.RecoveredSupersteps, c.recovered)
					}
				})
				for _, width := range []slotDecl{slotsExact, slotsWidened} {
					t.Run(scheduleName(cfg)+"/"+c.name+"/slots="+width.String(), func(t *testing.T) {
						fLabels, fst := runMinLabelWidth(t, g, n, faulty, width)
						if !reflect.DeepEqual(labels, fLabels) {
							t.Errorf("labels differ from the fault-free reference")
						}
						want := st
						if width == slotsWidened {
							want = tagged(st)
						}
						if a, b := statsModuloRecovery(want), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
							t.Errorf("stats differ:\nfault-free: %+v\nfaulty:     %+v", a, b)
						}
						if fst.Recoveries != 1 || fst.RecoveredSupersteps != c.recovered {
							t.Errorf("Recoveries/RecoveredSupersteps = %d/%d, want 1/%d",
								fst.Recoveries, fst.RecoveredSupersteps, c.recovered)
						}
					})
				}
			}
		}
	}
}

// ---- Codec v3 integrity frame ----

// A bit flip anywhere in a checkpoint is caught by the payload checksum
// before any field is decoded into engine state.
func TestCheckpointChecksumDetectsCorruption(t *testing.T) {
	const n = 30
	g := gen.Ring(n)
	j := &minLabelJob{label: make([]int64, n)}
	cfg := Config{NumWorkers: 3, Seed: 4, TraceSteps: true, CheckpointEvery: 1}.withDefaults()
	e := newEngine(g, j, cfg)
	defer e.stop()
	e.cfg.MaxSupersteps = 5
	if err := e.loop(context.Background()); err == nil {
		t.Fatal("want max-supersteps error to stop mid-run, got nil")
	}
	data := e.encodeState()
	for _, pos := range []int{frameHeaderBytes, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x01
		err := e.decodeState(bad)
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("flip at %d: err = %v, want checksum mismatch", pos, err)
		}
	}
	// A tampered length field is rejected as truncation or checksum
	// damage, never decoded.
	bad := append([]byte(nil), data...)
	bad[1] ^= 0x01
	if err := e.decodeState(bad); err == nil {
		t.Errorf("tampered length field decoded successfully")
	}
	// The engine remains usable: the pristine snapshot still decodes.
	if err := e.decodeState(data); err != nil {
		t.Fatalf("pristine snapshot rejected after corrupt decodes: %v", err)
	}
}

// A crash during a checkpoint write (torn snapshot) is detected by the
// integrity frame at the next rollback, which falls back to the
// previous checkpoint and replays bit-identically.
func TestCheckpointWriteCrashFallsBackToPrevious(t *testing.T) {
	const n = 60
	g := gen.Ring(n)
	base := Config{NumWorkers: 4, Seed: 3}
	labels, st := runMinLabel(t, g, n, base)

	faulty := base
	faulty.CheckpointEvery = 2
	faulty.Faults = FaultPlan{
		{Superstep: 2, Worker: 0, Phase: FaultCheckpoint},
		{Superstep: 3, Worker: 1, Phase: FaultVertexCompute},
	}
	fLabels, fst := runMinLabel(t, g, n, faulty)

	if !reflect.DeepEqual(labels, fLabels) {
		t.Errorf("torn-checkpoint labels differ from fault-free run")
	}
	if a, b := statsModuloRecovery(st), statsModuloRecovery(fst); !reflect.DeepEqual(a, b) {
		t.Errorf("torn-checkpoint stats differ:\nfault-free: %+v\nfaulty:     %+v", a, b)
	}
	if fst.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", fst.Recoveries)
	}
	// The snapshot at superstep 2 is torn, so the crash at 3 must fall
	// back to the checkpoint at 0: supersteps 0..3 re-executed.
	if fst.RecoveredSupersteps != 4 {
		t.Errorf("RecoveredSupersteps = %d, want 4 (fallback to checkpoint 0)", fst.RecoveredSupersteps)
	}
}

// A torn snapshot with no earlier valid checkpoint is a clean,
// diagnosable error — not a decode of corrupt state.
func TestCheckpointTornWithoutFallbackFailsCleanly(t *testing.T) {
	const n = 48
	g := gen.Ring(n)
	cfg := Config{NumWorkers: 4, Seed: 3, Faults: FaultPlan{
		// Tear the very first checkpoint (superstep 0), then crash.
		{Superstep: 0, Worker: 0, Phase: FaultCheckpoint},
		{Superstep: 2, Worker: 1, Phase: FaultVertexCompute},
	}}
	j := &minLabelJob{label: make([]int64, n)}
	_, err := Run(g, j, cfg)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("err = %v, want corrupt-checkpoint failure", err)
	}
}

// ---- Abort accounting and races ----

// returningMinLabelJob records the current superstep as the run's return
// value on every master call, making partially merged barrier state
// visible through Stats.ReturnedInt.
type returningMinLabelJob struct {
	minLabelJob
}

func (j *returningMinLabelJob) MasterCompute(mc *MasterContext) {
	mc.ReturnInt(int64(mc.Superstep()))
}

// Regression: an abort raised mid-superstep (a routing crash with both
// retained checkpoints torn) must report the semantic counters of the
// last completed barrier, not the partially merged superstep. Before the
// commit-mark fix, Supersteps read 4 and ReturnedInt 3 here.
func TestFaultAbortMidRoutingReportsCommittedStats(t *testing.T) {
	const n = 24
	g := gen.Ring(n)
	j := &returningMinLabelJob{minLabelJob{label: make([]int64, n)}}
	cfg := Config{NumWorkers: 3, Seed: 4, CheckpointEvery: 2, Faults: FaultPlan{
		{Superstep: 0, Worker: 0, Phase: FaultCheckpoint},
		{Superstep: 2, Worker: 0, Phase: FaultCheckpoint},
		{Superstep: 3, Worker: 0, Phase: FaultRouting},
	}}
	st, err := Run(g, j, cfg)
	if err == nil || !strings.Contains(err.Error(), "no valid fallback") {
		t.Fatalf("err = %v, want the no-valid-checkpoint failure", err)
	}
	// Supersteps 0..2 completed their barriers; the crashed superstep 3
	// never did.
	if st.Supersteps != 3 {
		t.Errorf("Supersteps = %d, want 3 (last completed barrier)", st.Supersteps)
	}
	if !st.ReturnedIsSet || !st.ReturnedIsInt || st.ReturnedInt != 2 {
		t.Errorf("Returned = (set=%v int=%v %d), want int 2 (master call of the last committed superstep)",
			st.ReturnedIsSet, st.ReturnedIsInt, st.ReturnedInt)
	}
}

// Recovery racing cooperative cancellation: repeated crashes with a
// concurrently canceled context must always end in either a clean
// finish or a cancellation error, with barrier-consistent Stats
// (Supersteps always equals the number of committed Steps entries).
// Runs with 7 workers under -race as the scheduler-stress gate.
func TestRecoveryRacingContextCancelKeepsStatsConsistent(t *testing.T) {
	const n = 64
	g := gen.Ring(n)
	for i := 0; i < 8; i++ {
		j := &minLabelJob{label: make([]int64, n)}
		cfg := Config{NumWorkers: 7, Seed: int64(i + 1), TraceSteps: true, CheckpointEvery: 1}
		for s := 1; s < 20; s++ {
			cfg.Faults = append(cfg.Faults, Fault{Superstep: s, Worker: s, Phase: FaultPhase(s % 2)})
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(i) * 500 * time.Microsecond)
		st, err := RunContext(ctx, g, j, cfg)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want nil or context.Canceled", i, err)
		}
		if st.Supersteps != len(st.Steps) {
			t.Errorf("run %d: Supersteps = %d but %d committed Steps entries", i, st.Supersteps, len(st.Steps))
		}
	}
}

// ---- Zero-allocation contract ----

// A warm governed superstep — vertex phase, routing, and the govern
// point — must allocate nothing when the budget fits: enabling the
// governor does not perturb the engine's steady-state allocation
// contract.
func TestGovernedSuperstepZeroAlloc(t *testing.T) {
	const n = 256
	g := gen.TwitterLike(n, 4, 3)
	j := newPerfRankJob(n, 1<<20)
	cfg := Config{NumWorkers: 4, Seed: 1, MemoryBudget: 1 << 40}
	e := newEngine(g, j, cfg.withDefaults())
	defer e.stop()
	step := 0
	var governErr error
	cycle := func() {
		e.runVertexPhase(step)
		e.routeMessages()
		if err := e.govern(step); err != nil {
			governErr = err
		}
		step++
	}
	for i := 0; i < 3; i++ {
		cycle() // reach high-water inbox/outbox capacity
	}
	if a := testing.AllocsPerRun(10, cycle); a != 0 {
		t.Fatalf("governed warm superstep allocates %v per run, want 0", a)
	}
	if governErr != nil {
		t.Fatal(governErr)
	}
	if e.stats.MemoryPeakBytes == 0 {
		t.Errorf("governor never measured a peak")
	}
}
