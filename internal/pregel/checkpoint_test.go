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

// A checkpoint whose checksum is valid but whose counts are hostile
// fails closed before any allocation or work sized by the count: the
// step count is bounded by the bytes left, the inbox offsets must form a
// CSR over the inbox, and the master RNG draw count cannot exceed the
// live stream's.
func TestCheckpointDecodeHostileCounts(t *testing.T) {
	e, payload := ckptEngine(t, &minLabelJob{label: make([]int64, 40)}, Config{NumWorkers: 1, Seed: 4, MaxSupersteps: 50})
	defer e.stop()
	wk := e.workers[0]
	// Payload layout (checkpoint.go, encodeState): five master fields, the
	// draw count, globals, aggregators, seven Stats counters, the step
	// count; then per worker a reserved word, the active flags, the inbox
	// and its offsets.
	const drawsAt = 3 + 8 + 8
	stepsAt := drawsAt + 8 + 4 + 8*len(e.globals) + 8 + 4 + 17*len(e.aggValues) + 7*8
	inOffAt := stepsAt + 4 + ckptStepBytes*len(e.stats.Steps) + 4 + 8 + 4 + len(wk.active) + 4 + 4
	if got := binary.LittleEndian.Uint32(payload[stepsAt:]); int(got) != len(e.stats.Steps) {
		t.Fatalf("layout drift: step count at %d reads %d, want %d", stepsAt, got, len(e.stats.Steps))
	}
	if got := binary.LittleEndian.Uint32(payload[inOffAt-4:]); int(got) != len(wk.inOff) || wk.inTotal != 0 {
		t.Fatalf("layout drift: offset count at %d reads %d, want %d (inbox %d)", inOffAt-4, got, len(wk.inOff), wk.inTotal)
	}
	for _, tc := range []struct {
		name   string
		mutate func(p []byte)
		want   string
	}{
		{"step count", func(p []byte) { binary.LittleEndian.PutUint32(p[stepsAt:], 1<<20) }, "step records overrun"},
		{"inbox offset", func(p []byte) { binary.LittleEndian.PutUint32(p[inOffAt+4:], 1<<22) }, "inbox offset 1"},
		{"first inbox offset", func(p []byte) { binary.LittleEndian.PutUint32(p[inOffAt:], 1) }, "inbox offset 0"},
		{"rng draw count", func(p []byte) { binary.LittleEndian.PutUint64(p[drawsAt:], 1<<40) }, "draw count"},
		{"negative rng draw count", func(p []byte) { binary.LittleEndian.PutUint64(p[drawsAt:], 1<<63) }, "draw count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := append([]byte(nil), payload...)
			tc.mutate(p)
			alloc, err := decodeAllocs(e, reframe(p))
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
