package pregel

import (
	"fmt"
	"testing"
	"unsafe"

	"gmpregel/internal/graph/gen"
)

// written is a byte range some executor writes per vertex or per send.
type written struct {
	what     string
	at, size uintptr
}

// blocksOf returns the first and last cacheBlock-byte block r touches.
func (r written) blocksOf() (lo, hi uintptr) {
	return r.at / cacheBlock, (r.at + r.size - 1) / cacheBlock
}

// sliceBytes is the backing array of s up to its capacity: the bytes a
// retained buffer may be written at.
func sliceBytes[T any](what string, s []T) written {
	var z T
	if cap(s) == 0 {
		return written{what: what}
	}
	return written{what, uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(cap(s)) * unsafe.Sizeof(z)}
}

// disjointBlocks fails t unless no range of one group shares a block
// with a range of another.
func disjointBlocks(t *testing.T, name string, groups [][]written) {
	t.Helper()
	for i, gi := range groups {
		for j := i + 1; j < len(groups); j++ {
			for _, a := range gi {
				for _, b := range groups[j] {
					if a.size == 0 || b.size == 0 {
						continue
					}
					alo, ahi := a.blocksOf()
					blo, bhi := b.blocksOf()
					if alo <= bhi && blo <= ahi {
						t.Errorf("%s: %s of executor %d and %s of executor %d share a %d-byte block (%#x+%d, %#x+%d)",
							name, a.what, i, b.what, j, cacheBlock, a.at, a.size, b.at, b.size)
					}
				}
			}
		}
	}
}

// layoutJob declares one folded float type and one aggregator: the
// narrowest Messages() scratch and a per-chunk aggregator cell.
type layoutJob struct{}

func (layoutJob) Schema() Schema {
	return Schema{MessagePayloadBytes: []int{8}, MessageSlots: []int{1}, Folds: []*Fold{sumFold},
		Aggregators: []AggSpec{{Name: "delta", Kind: AggKindFloat, Op: AggSum}}}
}
func (layoutJob) MasterCompute(*MasterContext)    {}
func (layoutJob) VertexCompute(vc *VertexContext) {}

// Executors share no written cache line: whatever one executor writes
// per vertex or per send — its Messages() scratch, its VertexContext and
// RNG, the chunk it runs: the chunk's counters, its box and fold-box
// slice headers, its broadcast counts and aggregator cells, and the
// chunk's worker's stretch of the broadcast value column and its stamps
// — lies on 128-byte blocks no other executor writes in the same phase.
// Executor i is grouped with worker i's chunks and columns, which it
// writes unless it steals, so every pair of executors and every pair of
// chunks or columns owned by different workers is checked, at W = 2, 3
// and 7, with the scratch sized for one folded type (a single 40-byte
// Msg) and again for a wide inbox.
func TestExecutorsShareNoWrittenBlock(t *testing.T) {
	g := gen.TwitterLike(700, 6, 3)
	for _, w := range []int{2, 3, 7} {
		e := newEngine(g, layoutJob{}, Config{NumWorkers: w, ChunkSize: 16, Seed: 1}.withDefaults())
		groups := func() [][]written {
			groups := make([][]written, w)
			for i, x := range e.executors {
				from := uintptr(unsafe.Pointer(&x.e))
				to := uintptr(unsafe.Pointer(&x.err)) + unsafe.Sizeof(x.err)
				groups[i] = append(groups[i], written{"executor state", from, to - from}, sliceBytes("Messages() scratch", x.msgs))
				wk := e.workers[i]
				groups[i] = append(groups[i], sliceBytes("broadcast values", wk.bvals), sliceBytes("broadcast stamps", wk.bstamp))
				for ci := range wk.chunks {
					ck := &wk.chunks[ci]
					name := fmt.Sprintf("chunk %d ", ci)
					groups[i] = append(groups[i],
						written{name + "struct", uintptr(unsafe.Pointer(ck)), unsafe.Sizeof(*ck)},
						sliceBytes(name+"box headers", ck.boxes),
						sliceBytes(name+"fold-box headers", ck.fboxes),
						sliceBytes(name+"broadcast counts", ck.fbcast),
						sliceBytes(name+"aggregator cells", ck.agg))
				}
			}
			return groups
		}
		e.sizeUnpackScratch()
		if got := cap(e.executors[0].msgs); got < 1 {
			t.Fatalf("W=%d: scratch holds %d messages after sizing for one folded type", w, got)
		}
		disjointBlocks(t, fmt.Sprintf("W=%d/one-folded-type", w), groups())
		for _, wk := range e.workers {
			wk.inMax = 37
		}
		e.sizeUnpackScratch()
		disjointBlocks(t, fmt.Sprintf("W=%d/wide-inbox", w), groups())
		e.stop()
	}
}
