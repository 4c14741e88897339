package pregel

// Steady-state performance regression tests for the superstep hot path:
// the persistent worker pool must not spawn goroutines per superstep,
// send and warm routing must not allocate, the arithmetic partition
// indexing must agree with hardware division, and the incremental
// active counters must track the active bitmaps exactly — including
// through crash-recovery.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"gmpregel/internal/graph"
	"gmpregel/internal/graph/gen"
)

// perfRankJob is a PageRank-shaped job defined locally (in-package tests
// cannot import internal/manual): every vertex sums its float messages
// and re-broadcasts to all out-neighbors for a fixed number of
// supersteps. Its compute functions allocate nothing, so any allocation
// observed in a warm superstep belongs to the engine. With fold set it
// declares its sum as a delivery fold, as manual.PageRank does.
type perfRankJob struct {
	rank  []float64
	steps int
	width slotDecl // zero value: exact, 16-byte records
	fold  bool
}

func newPerfRankJob(n, steps int) *perfRankJob {
	return &perfRankJob{rank: make([]float64, n), steps: steps}
}

func (j *perfRankJob) Schema() Schema {
	s := Schema{MessagePayloadBytes: []int{8}, MessageSlots: j.width.declare(1)}
	if j.fold {
		s.Folds = []*Fold{{Op: AggSum, Kind: AggKindFloat}}
	}
	return s
}

func (j *perfRankJob) MasterCompute(mc *MasterContext) {
	if mc.Superstep() >= j.steps {
		mc.Halt()
	}
}

func (j *perfRankJob) VertexCompute(vc *VertexContext) {
	sum := 0.0
	for _, m := range vc.Messages() {
		sum += m.Float(0)
	}
	id := int(vc.ID())
	j.rank[id] = 0.15/float64(len(j.rank)) + 0.85*sum
	if d := vc.OutDegree(); d > 0 {
		var m Msg
		m.SetFloat(0, j.rank[id]/float64(d))
		vc.SendToAllNbrs(m)
	}
}

// perfSSSPJob is an SSSP-shaped job: an int distance relaxed along
// weighted out-edges, its min declared as a delivery fold and the
// weights as the type's edge column, so a relaxation is one
// edge-valued broadcast as manual.SSSP sends it; every vertex but the
// first ssspSources votes to halt, so a superstep runs only the
// frontier. Every ssspRound supersteps the next source starts a new
// search from a lower base distance, so relaxation never settles and a
// warm engine keeps a frontier for as long as it runs.
type perfSSSPJob struct {
	dist []int64
	len  []int64 // by out-edge index
}

const ssspRound, ssspSources = 24, 16

func newPerfSSSPJob(g *graph.Directed) *perfSSSPJob {
	j := &perfSSSPJob{dist: make([]int64, g.NumNodes()), len: make([]int64, g.NumEdges())}
	for v := range j.dist {
		j.dist[v] = math.MaxInt64
		lo, hi := g.OutEdgeRange(graph.NodeID(v))
		for e := lo; e < hi; e++ {
			j.len[e] = int64((v+int(g.OutDst[e]))%7 + 1)
		}
	}
	return j
}

func (j *perfSSSPJob) Schema() Schema {
	return Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{1},
		Folds: []*Fold{{Op: AggMin, Kind: AggKindInt}}, EdgeAdd: []any{j.len}}
}

func (j *perfSSSPJob) MasterCompute(mc *MasterContext) {}

func (j *perfSSSPJob) VertexCompute(vc *VertexContext) {
	v, step := int(vc.ID()), vc.Superstep()
	best := j.dist[v]
	if r := step / ssspRound; step%ssspRound == 0 && v == r%ssspSources {
		best = -int64(r+1) << 32
	}
	for _, m := range vc.Messages() {
		best = min(best, m.Int(0))
	}
	if best < j.dist[v] {
		j.dist[v] = best
		var m Msg
		m.SetInt(0, best)
		vc.SendToAllNbrs(m)
	}
	if v >= ssspSources {
		vc.VoteToHalt()
	}
}

func TestFastDiv(t *testing.T) {
	values := []uint32{0, 1, 2, 3, 6, 7, 8, 100, 1023, 1 << 16, 1<<31 - 1, 1 << 31, ^uint32(0)}
	for d := uint32(1); d <= 64; d++ {
		f := newFastDiv(d)
		for _, x := range values {
			if got, want := f.div(x), x/d; got != want {
				t.Fatalf("fastDiv(%d).div(%d) = %d, want %d", d, x, got, want)
			}
			if got, want := f.mod(x), x%d; got != want {
				t.Fatalf("fastDiv(%d).mod(%d) = %d, want %d", d, x, got, want)
			}
		}
	}
}

// resetOutbound mimics the start of a vertex phase: truncate the
// worker's chunk boxes and fold boxes, retaining their capacity.
func resetOutbound(wk *worker) {
	for ci := range wk.chunks {
		wk.chunks[ci].truncateBoxes()
	}
}

// sendContext wires executor 0's reused VertexContext to worker wk's
// chunk ci, the way runChunk does before invoking vertex compute.
func sendContext(e *engine, wk *worker, ci int) *VertexContext {
	vc := &e.executors[0].vc
	vc.wk = wk
	vc.ck = &wk.chunks[ci]
	vc.id = wk.ids[0]
	vc.local = 0
	return vc
}

// Satellite: send must be allocation-free in steady state, into the
// chunk boxes and into the fold boxes, by Send and by SendToAllNbrs.
func TestSendSteadyStateZeroAlloc(t *testing.T) {
	const n = 64
	g := gen.Ring(n)
	for _, fold := range []bool{false, true} {
		t.Run(fmt.Sprintf("fold=%v", fold), func(t *testing.T) {
			j := newPerfRankJob(n, 4)
			j.fold = fold
			e := newEngine(g, j, Config{NumWorkers: 4, Seed: 1, ChunkSize: 4}.withDefaults())
			defer e.stop()
			wk := e.workers[0]
			var m Msg
			m.SetFloat(0, 1)
			vc := sendContext(e, wk, 0)
			cycle := func() {
				resetOutbound(wk)
				for i := 0; i < n; i++ {
					vc.Send(graph.NodeID(i), m)
				}
				vc.SendToAllNbrs(m)
			}
			cycle() // reach high-water box capacity
			if a := testing.AllocsPerRun(20, cycle); a != 0 {
				t.Fatalf("steady-state send allocates %v per superstep, want 0", a)
			}
		})
	}
}

// Satellite: a warm superstep — chunked vertex phase plus segmented
// message routing on the persistent pool — must allocate nothing at
// every point of the schedule lattice, for the PageRank-shaped job plain
// and with its one sum folded, for the folded job (two folded types
// beside an unfolded one), and for the SSSP-shaped job, whose broadcasts
// carry an edge column. The folded jobs broadcast their folded types, so
// at every worker count the warm-up builds the broadcast index and the
// measured supersteps send and expand broadcast records.
// This also proves no per-superstep goroutine creation: a spawned
// goroutine costs at least one allocation, and this test demands zero.
func TestWarmRoutingZeroAlloc(t *testing.T) {
	const n = 256
	g := gen.TwitterLike(n, 4, 3)
	for _, group := range scheduleGroups(Config{Seed: 1}) {
		for _, cfg := range group {
			t.Run(scheduleName(cfg)+"/rank", func(t *testing.T) {
				testWarmRoutingZeroAlloc(t, g, newPerfRankJob(n, 1<<20), cfg, 3)
			})
			t.Run(scheduleName(cfg)+"/rank-folded", func(t *testing.T) {
				j := newPerfRankJob(n, 1<<20)
				j.fold = true
				testWarmRoutingZeroAlloc(t, g, j, cfg, 3)
			})
			t.Run(scheduleName(cfg)+"/folded", func(t *testing.T) {
				testWarmRoutingZeroAlloc(t, g, newFoldJob(n, 1<<20, true), cfg, 3)
			})
			t.Run(scheduleName(cfg)+"/edge-valued", func(t *testing.T) {
				// One search from every source: the measured supersteps
				// then repeat the first search's, whose boxes are warm.
				testWarmRoutingZeroAlloc(t, g, newPerfSSSPJob(g), cfg, ssspSources*ssspRound)
			})
		}
	}
	// The in-skewed graph at W=2 with several chunks per worker, whose
	// in-edges land mostly on one worker, the folded jobs only.
	sg := inSkewedGraph(n)
	for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
		cfg := Config{NumWorkers: 2, Partitioner: part, ChunkSize: 16, Seed: 1}
		t.Run(scheduleName(cfg)+"/in-skewed/rank-folded", func(t *testing.T) {
			j := newPerfRankJob(n, 1<<20)
			j.fold = true
			testWarmRoutingZeroAlloc(t, sg, j, cfg, 3)
		})
		t.Run(scheduleName(cfg)+"/in-skewed/folded", func(t *testing.T) {
			testWarmRoutingZeroAlloc(t, sg, newFoldJob(n, 1<<20, true), cfg, 3)
		})
		t.Run(scheduleName(cfg)+"/in-skewed/edge-valued", func(t *testing.T) {
			testWarmRoutingZeroAlloc(t, sg, newPerfSSSPJob(sg), cfg, ssspSources*ssspRound)
		})
	}
	// Dense: every vertex with an out-edge broadcasts the folded sum in
	// every superstep, so every measured routing pulls it, through the
	// graph's in-CSR at W=1 and through the in-index at W=2; the warm-up
	// fetches either.
	for _, w := range []int{1, 2} {
		for _, part := range []PartitionKind{PartitionMod, PartitionDegree} {
			cfg := Config{NumWorkers: w, Partitioner: part, ChunkSize: 16, Seed: 1}
			t.Run(scheduleName(cfg)+"/dense", func(t *testing.T) {
				j := newPerfRankJob(n, 1<<20)
				j.fold = true
				if pulled := testWarmRoutingZeroAlloc(t, sg, j, cfg, 3); pulled < 10 {
					t.Fatalf("the measured routings pulled %d times, want one each", pulled)
				}
			})
		}
	}
}

// testWarmRoutingZeroAlloc runs warm supersteps of j, which bring the
// buffers to their high-water capacity, then measures, and returns the
// pulled (superstep, type) pairs of the measured supersteps.
func testWarmRoutingZeroAlloc(t *testing.T, g *graph.Directed, j Job, cfg Config, warm int) int64 {
	e := newEngine(g, j, cfg.withDefaults())
	defer e.stop()
	step := 0
	cycle := func() {
		e.runVertexPhase(step)
		e.routeMessages()
		step++
	}
	for i := 0; i < warm; i++ {
		cycle() // reach high-water inbox/outbox capacity
	}
	if built := e.nbrs != nil; built != (e.folds != nil) {
		t.Fatalf("broadcast index built = %v, want %v: the folded jobs broadcast, the plain one does not", built, e.folds != nil)
	}
	before, pulls := sentMsgs(e), e.pulls
	if a := testing.AllocsPerRun(10, cycle); a != 0 {
		t.Fatalf("warm superstep allocates %v per run, want 0", a)
	}
	if sentMsgs(e) == before {
		t.Fatal("the measured supersteps sent no messages")
	}
	for _, x := range e.executors {
		if x.err != nil {
			t.Fatalf("executor %d failed: %v", x.id, x.err)
		}
	}
	for _, wk := range e.workers {
		for ci := range wk.chunks {
			if err := wk.chunks[ci].err; err != nil {
				t.Fatalf("worker %d chunk %d failed: %v", wk.index, ci, err)
			}
		}
	}
	return e.pulls - pulls
}

// Tentpole: worker goroutines are spawned once per run and shut down on
// every exit path — repeated runs (including failed ones) must not leak.
func TestWorkerPoolLifecycle(t *testing.T) {
	g := gen.Ring(64)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Run(g, newPerfRankJob(64, 3), Config{NumWorkers: 8, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// An error exit (a crash with both retained checkpoints torn) must
	// also stop the pool.
	cfg := Config{NumWorkers: 8, Seed: 1, CheckpointEvery: 1, Faults: FaultPlan{
		{Superstep: 0, Worker: 0, Phase: FaultCheckpoint},
		{Superstep: 1, Worker: 0, Phase: FaultCheckpoint},
		{Superstep: 1, Worker: 0, Phase: FaultVertexCompute},
	}}
	if _, err := Run(g, newPerfRankJob(64, 3), cfg); err == nil {
		t.Fatal("want no-valid-checkpoint error, got nil")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	// stop is idempotent: RunContext defers it after loop already exited.
	e := newEngine(g, newPerfRankJob(64, 1), Config{NumWorkers: 2, Seed: 1}.withDefaults())
	e.stop()
	e.stop()
}

// The per-chunk numActive counters that replaced the O(V) termination
// scan must track the active bitmaps exactly at every barrier, including
// after VoteToHalt/activation churn and through crash-recovery's
// checkpoint decode path. foldJob halts every vertex every superstep, so
// only the messages waiting for them — routed or folded — bring them
// back, and runChunk, the one activation site, activates them as it
// reaches them; it is stopped after each superstep in turn, with its
// vertices halted and its messages waiting.
func TestActiveCounterInvariant(t *testing.T) {
	const n = 60
	g := gen.TwitterLike(n, 4, 6)
	check := func(t *testing.T, e *engine) (active int) {
		t.Helper()
		for _, wk := range e.workers {
			for ci := range wk.chunks {
				ck, in := &wk.chunks[ci], 0
				for _, a := range wk.active[ck.lo:ck.hi] {
					if a {
						in++
					}
				}
				if in != int(ck.numActive) {
					t.Errorf("worker %d chunk %d: numActive = %d, bitmap has %d", wk.index, ci, ck.numActive, in)
				}
				active += in
			}
		}
		return active
	}
	for _, w := range workerCounts() {
		j := &minLabelJob{label: make([]int64, n)}
		e := newEngine(g, j, Config{NumWorkers: w, Seed: 5}.withDefaults())
		if err := e.loop(context.Background()); err != nil {
			t.Fatal(err)
		}
		check(t, e)
		e.stop()
		const steps = 6
		for stop := 1; stop <= steps; stop++ {
			e := newEngine(g, newFoldJob(n, steps, true), Config{NumWorkers: w, Seed: 5, ChunkSize: 8}.withDefaults())
			e.cfg.MaxSupersteps = stop // stop at the barrier after superstep stop-1
			if err := e.loop(context.Background()); err == nil {
				t.Fatal("want max-supersteps error, got nil")
			}
			waiting := false
			for _, wk := range e.workers {
				waiting = waiting || wk.inTotal > 0 || wk.foldTotal > 0
			}
			if check(t, e) == 0 && !waiting {
				t.Errorf("W=%d, stopped after superstep %d: no vertex active and no message waiting", w, stop-1)
			}
			e.stop()
		}
	}
	// Through recovery: a mid-run crash rolls back via decodeState, which
	// must recompute the counters from the restored bitmap.
	j := &minLabelJob{label: make([]int64, n)}
	cfg := Config{NumWorkers: 3, Seed: 5, CheckpointEvery: 2, Faults: FaultPlan{
		{Superstep: 3, Worker: 1, Phase: FaultVertexCompute},
	}}.withDefaults()
	e := newEngine(g, j, cfg)
	defer e.stop()
	if err := e.loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.stats.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", e.stats.Recoveries)
	}
	check(t, e)
}

// ---- Microbenchmarks (CI runs these with -benchtime 1x as a gate) ----

// BenchmarkSuperstepPageRank measures one warm superstep — vertex phase
// plus routing — of a PageRank-shaped job on the persistent pool.
func BenchmarkSuperstepPageRank(b *testing.B) {
	const n = 4096
	g := gen.TwitterLike(n, 8, 3)
	j := newPerfRankJob(n, 1<<30)
	e := newEngine(g, j, Config{NumWorkers: 4, Seed: 1}.withDefaults())
	defer e.stop()
	step := 0
	for i := 0; i < 3; i++ {
		e.runVertexPhase(step)
		e.routeMessages()
		step++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runVertexPhase(step)
		e.routeMessages()
		step++
	}
	reportRecordBytes(b, e)
}

// reportRecordBytes prints the width of the record this run moves each
// message in, so the CI microbenchmark step shows on every push that the
// PageRank-shaped job has not fallen back to the 40-byte default.
func reportRecordBytes(b *testing.B, e *engine) {
	b.ReportMetric(float64(e.stride*recWordBytes), "B/msg")
}

// BenchmarkRouting measures routing alone — the whole dispatch of fold
// and inbox tasks, each inbox task counting, prefixing and placing its
// destination's records: outboxes are refilled outside the timer each
// iteration.
func BenchmarkRouting(b *testing.B) {
	const n = 4096
	g := gen.TwitterLike(n, 8, 3)
	j := newPerfRankJob(n, 1<<30)
	e := newEngine(g, j, Config{NumWorkers: 4, Seed: 1}.withDefaults())
	defer e.stop()
	fill := func() {
		var m Msg
		m.SetFloat(0, 1)
		for _, wk := range e.workers {
			resetOutbound(wk)
			vc := sendContext(e, wk, 0)
			for _, v := range wk.ids {
				vc.id = v
				vc.SendToAllNbrs(m)
			}
		}
	}
	fill()
	e.routeMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		e.routeMessages()
	}
	reportRecordBytes(b, e)
}

// BenchmarkRoutingFolded measures one warm superstep of the
// PageRank-shaped job with its sum declared as a delivery fold, so every
// message takes the folded path: broadcast into the fold boxes, expanded
// into the destination's slots by its fold, delivered from the slots.
// Every vertex with an out-edge broadcasts, so every routing pulls the
// sum instead of expanding the records. It runs on the random graph at
// W=4 and on an RMAT web graph at W=2, whose in-edges land mostly on one
// worker, and at W=1, which pulls over the graph's in-CSR. Each reports
// the cost, the pulls per superstep (1), the fold-box bytes per message
// sent, failing unless broadcast records bring them under the 16 of a
// per-edge record, and the records per broadcast: how many destination
// workers a broadcast reaches, at most W.
func BenchmarkRoutingFolded(b *testing.B) {
	b.Run("twitter/W=4", func(b *testing.B) { benchRoutingFolded(b, gen.TwitterLike(4096, 8, 3), 4) })
	b.Run("web-skewed/W=2", func(b *testing.B) { benchRoutingFolded(b, gen.WebLike(12, 8, 3), 2) })
	b.Run("web-skewed/W=1", func(b *testing.B) { benchRoutingFolded(b, gen.WebLike(12, 8, 3), 1) })
}

func benchRoutingFolded(b *testing.B, g *graph.Directed, w int) {
	j := newPerfRankJob(g.NumNodes(), 1<<30)
	j.fold = true
	e := newEngine(g, j, Config{NumWorkers: w, Seed: 1}.withDefaults())
	defer e.stop()
	step := 0
	for i := 0; i < 3; i++ {
		e.runVertexPhase(step)
		e.routeMessages()
		step++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runVertexPhase(step)
		e.routeMessages()
		step++
	}
	msgs := float64(b.N) * float64(g.NumEdges())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(e.pulls)/float64(step), "pulls/step")
	// Every superstep sends one message per edge and one broadcast per
	// vertex with out-edges, and the last one's fold boxes are still
	// filled.
	words, senders := fboxWords(e), 0
	for v := range g.NumNodes() {
		if g.OutDegree(graph.NodeID(v)) > 0 {
			senders++
		}
	}
	reportFoldBoxBytes(b, words, g.NumEdges())
	b.ReportMetric(float64(words/foldStride)/float64(senders), "rec/bcast")
}

// sentMsgs is the messages e's workers have sent since the last barrier
// merge, which the warm-superstep loops here never run.
func sentMsgs(e *engine) (msgs int64) {
	for _, wk := range e.workers {
		for ci := range wk.chunks {
			msgs += wk.chunks[ci].st.Messages
		}
	}
	return msgs
}

// fboxWords counts the words in every chunk's fold boxes: the records
// the last vertex phase wrote, which routing leaves in place.
func fboxWords(e *engine) (words int) {
	for _, wk := range e.workers {
		for ci := range wk.chunks {
			for _, box := range wk.chunks[ci].fboxes {
				words += len(box)
			}
		}
	}
	return words
}

// reportFoldBoxBytes reports the fold-box bytes words took per message
// of msgs, failing unless they are under the 16 of a per-edge record.
func reportFoldBoxBytes(b *testing.B, words int, msgs int64) {
	perMsg := float64(words*recWordBytes) / float64(msgs)
	if msgs == 0 || perMsg >= foldStride*recWordBytes {
		b.Fatalf("fold boxes hold %.1f B/msg over %d messages, want under the %d of a per-edge record",
			perMsg, msgs, foldStride*recWordBytes)
	}
	b.ReportMetric(perMsg, "B/msg")
}

// BenchmarkRoutingFoldedMin measures one warm superstep of the
// SSSP-shaped job: halting vertices, a sparse frontier, every message an
// int min whose edge weight the destination adds as it folds it into its
// slots, and delivery the only way a halted vertex wakes. It reports the
// cost per message sent, then, over one more untimed search round, the
// fold-box bytes per message, and fails unless edge-valued broadcast
// records bring them under the 16 of a per-edge record.
func BenchmarkRoutingFoldedMin(b *testing.B) {
	const n = 4096
	g := gen.TwitterLike(n, 8, 3)
	e := newEngine(g, newPerfSSSPJob(g), Config{NumWorkers: 4, Seed: 1}.withDefaults())
	defer e.stop()
	sent := func() int64 { return sentMsgs(e) }
	step := 0
	for i := 0; i < 2*ssspRound; i++ {
		e.runVertexPhase(step) // two searches: boxes reach their high-water mark
		e.routeMessages()
		step++
	}
	before := sent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runVertexPhase(step)
		e.routeMessages()
		step++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(sent()-before, 1)), "ns/msg")
	b.StopTimer()
	before, words := sent(), 0
	for i := 0; i < ssspRound; i++ {
		e.runVertexPhase(step)
		e.routeMessages()
		words += fboxWords(e)
		step++
	}
	reportFoldBoxBytes(b, words, sent()-before)
}
