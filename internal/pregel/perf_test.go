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
// weighted out-edges, its min declared as a delivery fold, every vertex
// but the first ssspSources voting to halt, so a superstep runs only
// the frontier. Every ssspRound supersteps the next source starts a new
// search from a lower base distance, so relaxation never settles and a
// warm engine keeps a frontier for as long as it runs.
type perfSSSPJob struct {
	dist []int64
}

const ssspRound, ssspSources = 24, 16

func newPerfSSSPJob(n int) *perfSSSPJob {
	j := &perfSSSPJob{dist: make([]int64, n)}
	for v := range j.dist {
		j.dist[v] = math.MaxInt64
	}
	return j
}

func (j *perfSSSPJob) Schema() Schema {
	return Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{1},
		Folds: []*Fold{{Op: AggMin, Kind: AggKindInt}}}
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
		for _, u := range vc.OutNbrs() {
			var m Msg
			m.SetInt(0, best+int64((v+int(u))%7+1))
			vc.Send(u, m)
		}
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
		ck := &wk.chunks[ci]
		for d := range ck.boxes {
			ck.boxes[d] = ck.boxes[d][:0]
			ck.fboxes[d] = ck.fboxes[d][:0]
		}
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
// and with its one sum folded, and for the folded job (two folded types
// beside an unfolded one). This
// also proves no per-superstep goroutine creation: a spawned goroutine
// costs at least one allocation, and this test demands zero.
func TestWarmRoutingZeroAlloc(t *testing.T) {
	const n = 256
	g := gen.TwitterLike(n, 4, 3)
	for _, group := range scheduleGroups(Config{Seed: 1}) {
		for _, cfg := range group {
			t.Run(scheduleName(cfg)+"/rank", func(t *testing.T) {
				testWarmRoutingZeroAlloc(t, g, newPerfRankJob(n, 1<<20), cfg)
			})
			t.Run(scheduleName(cfg)+"/rank-folded", func(t *testing.T) {
				j := newPerfRankJob(n, 1<<20)
				j.fold = true
				testWarmRoutingZeroAlloc(t, g, j, cfg)
			})
			t.Run(scheduleName(cfg)+"/folded", func(t *testing.T) {
				testWarmRoutingZeroAlloc(t, g, newFoldJob(n, 1<<20, true), cfg)
			})
		}
	}
}

func testWarmRoutingZeroAlloc(t *testing.T, g *graph.Directed, j Job, cfg Config) {
	e := newEngine(g, j, cfg.withDefaults())
	defer e.stop()
	step := 0
	cycle := func() {
		e.runVertexPhase(step)
		e.routeMessages()
		step++
	}
	for i := 0; i < 3; i++ {
		cycle() // reach high-water inbox/outbox capacity
	}
	if a := testing.AllocsPerRun(10, cycle); a != 0 {
		t.Fatalf("warm superstep allocates %v per run, want 0", a)
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

// Tentpole: the per-worker numActive counters that replaced the O(V)
// termination scan, and the per-chunk counters they sum, must track the
// active bitmaps exactly, including after voteToHalt/reactivation churn
// and through crash-recovery's checkpoint decode path. foldJob halts
// every vertex every superstep, so routing's CSR and fold reactivation
// alone bring them back; it is stopped after each superstep in turn.
func TestActiveCounterInvariant(t *testing.T) {
	const n = 60
	g := gen.TwitterLike(n, 4, 6)
	check := func(t *testing.T, e *engine) (active int) {
		t.Helper()
		for _, wk := range e.workers {
			count := 0
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
				count += in
			}
			if count != wk.numActive {
				t.Errorf("worker %d: numActive = %d, bitmap has %d", wk.index, wk.numActive, count)
			}
			active += count
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
			if check(t, e) == 0 {
				t.Errorf("W=%d, stopped after superstep %d: no vertex reactivated", w, stop-1)
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

// BenchmarkRouting measures routing alone — the shard counts a vertex
// phase would have overlapped with compute, then prefix and place:
// outboxes are refilled outside the timer each iteration.
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
	route := func() {
		for sh := 0; sh < e.shards; sh++ {
			for _, dst := range e.workers {
				e.countShard(dst, sh)
			}
		}
		e.routeMessages()
	}
	fill()
	route()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		route()
	}
	reportRecordBytes(b, e)
}

// BenchmarkRoutingFolded measures one warm superstep of the
// PageRank-shaped job with its sum declared as a delivery fold, so every
// message takes the folded path: sent into the fold boxes, folded into
// the destination's slots by the prefix tasks, delivered from the slots.
// It reports the cost per message sent.
func BenchmarkRoutingFolded(b *testing.B) {
	const n = 4096
	g := gen.TwitterLike(n, 8, 3)
	j := newPerfRankJob(n, 1<<30)
	j.fold = true
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
	msgs := float64(b.N) * float64(g.NumEdges())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(foldStride*recWordBytes, "B/msg")
}

// BenchmarkRoutingFoldedMin measures one warm superstep of the
// SSSP-shaped job: halting vertices, a sparse frontier, every message an
// int min folded into the destination's slots, and delivery the only way
// a halted vertex wakes. It reports the cost per message sent.
func BenchmarkRoutingFoldedMin(b *testing.B) {
	const n = 4096
	g := gen.TwitterLike(n, 8, 3)
	e := newEngine(g, newPerfSSSPJob(n), Config{NumWorkers: 4, Seed: 1}.withDefaults())
	defer e.stop()
	sent := func() (msgs int64) {
		for _, wk := range e.workers {
			msgs += wk.msgs
		}
		return msgs
	}
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
	b.ReportMetric(foldStride*recWordBytes, "B/msg")
}
