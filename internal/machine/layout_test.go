package machine

import (
	"testing"
	"unsafe"

	"gmpregel/internal/graph/gen"
	"gmpregel/internal/ir"
	"gmpregel/internal/pregel"
)

// Each executor's vertex environment and its three local slices (the
// interpreter's and the closures' int and float ones), written for every
// vertex, lie on 128-byte blocks no other executor's environment
// touches, at W = 2, 3 and 7 — the engine's rule for what executors
// write (TestExecutorsShareNoWrittenBlock in internal/pregel).
func TestExecutorEnvsShareNoWrittenBlock(t *testing.T) {
	p := avgProgram()
	p.Nodes[1].Vertex.Locals = []ir.Kind{ir.KInt, ir.KFloat}
	g := gen.Ring(64)
	type span struct{ lo, hi uintptr } // first and last block
	names := []string{"env", "locals", "int locals", "float locals"}
	blocks := func(at, size uintptr) span { return span{at / 128, (at + size - 1) / 128} }
	for _, w := range []int{2, 3, 7} {
		ex, err := newExec(p, g, Bindings{}, pregel.Config{NumWorkers: w}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var spans [][]span
		for _, env := range ex.envs {
			from := uintptr(unsafe.Pointer(&env.ex))
			to := uintptr(unsafe.Pointer(&env.curEdge)) + unsafe.Sizeof(env.curEdge)
			spans = append(spans, []span{blocks(from, to-from),
				blocks(uintptr(unsafe.Pointer(unsafe.SliceData(env.locals))), uintptr(cap(env.locals))*unsafe.Sizeof(ir.Value{})),
				blocks(uintptr(unsafe.Pointer(unsafe.SliceData(env.ints))), uintptr(cap(env.ints))*8),
				blocks(uintptr(unsafe.Pointer(unsafe.SliceData(env.floats))), uintptr(cap(env.floats))*8)})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				for a, sa := range spans[i] {
					for b, sb := range spans[j] {
						if sa.lo <= sb.hi && sb.lo <= sa.hi {
							t.Errorf("W=%d: %s of executor %d and %s of executor %d share a 128-byte block",
								w, names[a], i, names[b], j)
						}
					}
				}
			}
		}
		if len(ex.envs) != w {
			t.Fatalf("W=%d: %d environments", w, len(ex.envs))
		}
	}
}
