package pregel

import "gmpregel/internal/graph"

// PartitionKind selects how vertices are assigned to workers.
type PartitionKind uint8

// Partitioners. PartitionMod is the classic hash partitioning
// (owner = id mod W, the GPS default): cheap, degree-oblivious, and the
// layout every release before the skew-aware scheduler used.
// PartitionDegree assigns contiguous vertex ranges balanced by outgoing
// edge mass (weight 1 + outDegree per vertex), so a worker owning a
// power-law hub owns correspondingly fewer other vertices. Owner lookup
// stays O(1): range boundaries are aligned to a power-of-two block grid
// and resolved through a flat block→owner table (at most 2^14 entries),
// one shift and one load per message instead of a multiply-high.
const (
	PartitionMod PartitionKind = iota
	PartitionDegree
)

// maxPartBlocks bounds the block→owner table. The block size is the
// smallest power of two keeping ceil(n / blockSize) within this bound,
// so the table stays ≤ 64 KiB and balance granularity degrades
// gracefully (n ≤ 16384 gets per-vertex cuts).
const maxPartBlocks = 1 << 14

// degreeRanges computes the degree-aware contiguous partition of g into
// w ranges: starts[k] is the first vertex owned by worker k
// (starts[w] = n), and blocks[b] is the owner of vertex block b under
// the returned shift. Boundaries are block-aligned so the table is
// exact; within that granularity each worker receives as close to
// total_weight/w as the greedy sweep allows.
func degreeRanges(g *graph.Directed, w int) (starts []int32, blocks []int32, shift uint32) {
	n := g.NumNodes()
	for (n >> shift) > maxPartBlocks {
		shift++
	}
	numBlocks := 0
	if n > 0 {
		numBlocks = ((n - 1) >> shift) + 1
	}
	weight := make([]int64, numBlocks)
	var total int64
	for v := 0; v < n; v++ {
		d := int64(1 + g.OutDegree(graph.NodeID(v)))
		weight[v>>shift] += d
		total += d
	}
	starts = make([]int32, w+1)
	starts[w] = int32(n)
	blocks = make([]int32, numBlocks)
	owner := 0
	var cum int64
	for b := 0; b < numBlocks; b++ {
		blocks[b] = int32(owner)
		cum += weight[b]
		// Advance to the next worker once this one's share of the total
		// weight is met; a single oversized block may satisfy several
		// targets at once, leaving later workers with empty (valid) ranges.
		for owner+1 < w && cum*int64(w) >= total*int64(owner+1) {
			owner++
			next := int32((b + 1) << shift)
			if next > int32(n) {
				next = int32(n)
			}
			starts[owner] = next
		}
	}
	// Workers never reached by the sweep (more workers than blocks) own
	// empty tail ranges.
	for k := owner + 1; k < w; k++ {
		starts[k] = int32(n)
	}
	return starts, blocks, shift
}
