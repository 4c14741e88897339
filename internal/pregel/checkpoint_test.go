package pregel

import (
	"context"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"gmpregel/internal/graph/gen"
)

// reframe wraps payload in a checkpoint frame with a valid length and
// checksum, so a mutated payload reaches the decoder instead of being
// stopped by the integrity check.
func reframe(payload []byte) []byte {
	b := make([]byte, 0, frameHeaderBytes+len(payload)+frameTrailerBytes)
	b = append(b, checkpointVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint64(b, fnv64a(payload))
}

// decodeAllocs decodes data into e and reports the bytes the decode
// allocated and its error.
func decodeAllocs(e *engine, data []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := e.decodeState(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// ckptEngine runs a job to completion (every inbox empty, so the offset
// tables are all zero) and returns the engine with its final frame's
// payload.
func ckptEngine(t testing.TB, job Job, cfg Config) (*engine, []byte) {
	t.Helper()
	e := newEngine(gen.TwitterLike(40, 4, 6), job, cfg.withDefaults())
	if err := e.loop(context.Background()); err != nil {
		e.stop()
		t.Fatal(err)
	}
	data := e.encodeState()
	return e, append([]byte(nil), data[frameHeaderBytes:len(data)-frameTrailerBytes]...)
}

// inboxAt is the payload offset of the first worker's inbox records in
// e's frame (checkpoint.go, encodeState): five master fields, the draw
// count, globals, aggregators, seven Stats counters, the step records;
// then the worker count, a reserved word, the active flags and the
// inbox count.
func inboxAt(e *engine) int {
	return ckptDrawsAt + 8 + 4 + 8*len(e.globals) + 8 + 4 + 17*len(e.aggValues) + 7*8 +
		4 + ckptStepBytes*len(e.stats.Steps) + 4 + 8 + 4 + len(e.workers[0].active) + 4
}

const ckptDrawsAt = 3 + 8 + 8

// A checkpoint whose checksum is valid but whose counts are hostile
// fails closed before any allocation or work sized by the count: the
// step count is bounded by the bytes left, the inbox offsets must form a
// CSR over the inbox, and the master RNG draw count cannot exceed the
// live stream's. So does one whose inbox records are: a record must
// carry a declared type the job does not fold, and sit in the window of
// the vertex it is addressed to.
func TestCheckpointDecodeHostileCounts(t *testing.T) {
	e, payload := ckptEngine(t, &minLabelJob{label: make([]int64, 40)}, Config{NumWorkers: 1, Seed: 4, MaxSupersteps: 50})
	defer e.stop()
	wk := e.workers[0]
	stepsAt := inboxAt(e) - (4 + ckptStepBytes*len(e.stats.Steps) + 4 + 8 + 4 + len(wk.active) + 4)
	inOffAt := inboxAt(e) + 4
	if got := binary.LittleEndian.Uint32(payload[stepsAt:]); int(got) != len(e.stats.Steps) {
		t.Fatalf("layout drift: step count at %d reads %d, want %d", stepsAt, got, len(e.stats.Steps))
	}
	if got := binary.LittleEndian.Uint32(payload[inOffAt-4:]); int(got) != len(wk.inOff) || wk.inTotal != 0 {
		t.Fatalf("layout drift: offset count at %d reads %d, want %d (inbox %d)", inOffAt-4, got, len(wk.inOff), wk.inTotal)
	}
	// A frame taken mid-run carries a routed inbox of the fold job's
	// unfolded type 2; its first record is (destination u32, type u8,
	// payload).
	mid := newEngine(gen.TwitterLike(40, 4, 6), newFoldJob(40, 8, true), Config{NumWorkers: 1, Seed: 4, MaxSupersteps: 2}.withDefaults())
	defer mid.stop()
	if err := mid.loop(context.Background()); err == nil {
		t.Fatal("want the max-supersteps stop mid-run")
	}
	data := mid.encodeState()
	midPayload := append([]byte(nil), data[frameHeaderBytes:len(data)-frameTrailerBytes]...)
	recAt := inboxAt(mid)
	dst := binary.LittleEndian.Uint32(midPayload[recAt:])
	if w := mid.workers[0]; w.inTotal == 0 || dst != uint32(headerDst(w.inFlat[0])) || midPayload[recAt+4] != 2 {
		t.Fatalf("layout drift: first inbox record at %d reads (%d, %d), inbox of %d", recAt, dst, midPayload[recAt+4], w.inTotal)
	}
	for _, tc := range []struct {
		name   string
		mid    bool
		mutate func(p []byte)
		want   string
	}{
		{"step count", false, func(p []byte) { binary.LittleEndian.PutUint32(p[stepsAt:], 1<<20) }, "step records overrun"},
		{"inbox offset", false, func(p []byte) { binary.LittleEndian.PutUint32(p[inOffAt+4:], 1<<22) }, "inbox offset 1"},
		{"first inbox offset", false, func(p []byte) { binary.LittleEndian.PutUint32(p[inOffAt:], 1) }, "inbox offset 0"},
		{"rng draw count", false, func(p []byte) { binary.LittleEndian.PutUint64(p[ckptDrawsAt:], 1<<40) }, "draw count"},
		{"negative rng draw count", false, func(p []byte) { binary.LittleEndian.PutUint64(p[ckptDrawsAt:], 1<<63) }, "draw count"},
		{"folded inbox type", true, func(p []byte) { p[recAt+4] = 0 }, "not a declared unfolded type"},
		{"undeclared inbox type", true, func(p []byte) { p[recAt+4] = 3 }, "not a declared unfolded type"},
		{"inbox record in another vertex's window", true, func(p []byte) { binary.LittleEndian.PutUint32(p[recAt:], (dst+1)%40) }, "window"},
		{"inbox destination beyond the graph", true, func(p []byte) { binary.LittleEndian.PutUint32(p[recAt:], 1<<31) }, "window"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			de, p := e, append([]byte(nil), payload...)
			if tc.mid {
				de, p = mid, append([]byte(nil), midPayload...)
			}
			tc.mutate(p)
			alloc, err := decodeAllocs(de, reframe(p))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to mention %q", err, tc.want)
			}
			if alloc > 1<<20 {
				t.Errorf("decode allocated %d bytes for a %d-byte frame", alloc, len(p))
			}
		})
	}
	if err := e.decodeState(reframe(payload)); err != nil {
		t.Fatalf("pristine payload rejected after hostile decodes: %v", err)
	}
	if err := mid.decodeState(reframe(midPayload)); err != nil {
		t.Fatalf("pristine mid-run payload rejected after hostile decodes: %v", err)
	}
}

// FuzzDecodeCheckpoint mutates real checkpoint payloads and re-frames
// them with a valid checksum, so the decoder itself sees the damage. A
// decode must return an error or a state whose inbox offsets form a CSR
// over the inbox — never panic, hang, or allocate beyond a small multiple
// of its input. Run with `go test -fuzz FuzzDecodeCheckpoint
// ./internal/pregel` for continuous fuzzing; in normal test runs the
// seed corpus executes.
func FuzzDecodeCheckpoint(f *testing.F) {
	minLabel, minPayload := ckptEngine(f, &minLabelJob{label: make([]int64, 40)},
		Config{NumWorkers: 3, Seed: 4, TraceSteps: true, CheckpointEvery: 1, MaxSupersteps: 50})
	defer minLabel.stop()
	fold, foldPayload := ckptEngine(f, newFoldJob(40, 3, true), Config{NumWorkers: 2, Seed: 4, TraceSteps: true})
	defer fold.stop()
	engines := []*engine{minLabel, fold}
	draws := []int64{minLabel.masterSrc.draws, fold.masterSrc.draws}
	f.Add(uint8(0), minPayload)
	f.Add(uint8(1), foldPayload)
	// Frames taken mid-run carry routed inboxes and present fold slots.
	for i, job := range []Job{&minLabelJob{label: make([]int64, 40)}, newFoldJob(40, 8, true)} {
		e := newEngine(gen.TwitterLike(40, 4, 6), job, Config{NumWorkers: 2, Seed: 4, TraceSteps: true, MaxSupersteps: 2}.withDefaults())
		if err := e.loop(context.Background()); err == nil {
			f.Fatal("want the max-supersteps stop mid-run")
		}
		data := e.encodeState()
		e.stop()
		f.Add(uint8(i), data[frameHeaderBytes:len(data)-frameTrailerBytes])
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		i := int(which) % len(engines)
		e := engines[i]
		// Every decode starts from the stream position the run ended at.
		e.masterSrc.jump(draws[i])
		data := reframe(payload)
		alloc, err := decodeAllocs(e, data)
		if limit := 1<<16 + 4*uint64(len(data)); alloc > limit {
			t.Fatalf("decode allocated %d bytes for a %d-byte frame (err %v)", alloc, len(data), err)
		}
		if err != nil {
			return
		}
		for _, wk := range e.workers {
			if wk.inOff[0] != 0 || int(wk.inOff[len(wk.inOff)-1]) != wk.inTotal || len(wk.inFlat) != wk.inTotal*e.stride {
				t.Fatalf("worker %d: offsets %d..%d over an inbox of %d (%d words)",
					wk.index, wk.inOff[0], wk.inOff[len(wk.inOff)-1], wk.inTotal, len(wk.inFlat))
			}
			for li := 1; li < len(wk.inOff); li++ {
				if wk.inOff[li] < wk.inOff[li-1] {
					t.Fatalf("worker %d: offset %d decreases", wk.index, li)
				}
			}
		}
	})
}
