package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"

	"gmpregel/internal/graph"
)

// defaultSeed is the seed expected.json pins inputs for.
const defaultSeed = 1

// inputs are the property columns and scalars the algorithms read,
// derived from a graph and a seed. The draw order (age and member per
// vertex, then edge lengths, then the root) is the one the job server
// uses for its snapshots, so serve-mix can rebuild a served snapshot's
// columns and run the same query directly as its oracle.
type inputs struct {
	age     []int64
	member  []int64
	edgeLen []int64 // 1..16, by out-edge index
	isBoy   []bool  // first boys vertices
	root    graph.NodeID
}

func makeInputs(g *graph.Directed, boys int, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	in := &inputs{
		age:     make([]int64, n),
		member:  make([]int64, n),
		edgeLen: make([]int64, g.NumEdges()),
		isBoy:   make([]bool, n),
	}
	for v := 0; v < n; v++ {
		in.age[v] = int64(8 + rng.Intn(70))
		in.member[v] = int64(rng.Intn(4))
		in.isBoy[v] = v < boys
	}
	for e := range in.edgeLen {
		in.edgeLen[e] = int64(1 + rng.Intn(16))
	}
	if n > 0 {
		// A root with out-edges, so SSSP relaxes something (RMAT and
		// preferential-attachment graphs have sink vertices).
		in.root = graph.NodeID(rng.Intn(n))
		for tries := 0; tries < 100 && g.OutDegree(in.root) == 0; tries++ {
			in.root = graph.NodeID(rng.Intn(n))
		}
	}
	return in
}

// pin is what expected.json records for one workload at one size: the
// input's shape and an FNV-64a checksum of everything the program reads.
type pin struct {
	Nodes    int    `json:"nodes"`
	Edges    int64  `json:"edges"`
	Checksum string `json:"checksum"`
}

type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) int64(v int64) {
	binary.LittleEndian.PutUint64(h.buf[:], uint64(v))
	h.h.Write(h.buf[:])
}

func (h *hasher) text(s string) { h.h.Write([]byte(s)) }

func (h *hasher) sum() string { return fmt.Sprintf("%016x", h.h.Sum64()) }

// pinGraph checksums the CSR arrays and the input columns.
func pinGraph(g *graph.Directed, in *inputs) pin {
	h := newHasher()
	for _, v := range g.OutStart {
		h.int64(v)
	}
	for _, v := range g.OutDst {
		h.int64(int64(v))
	}
	for _, col := range [][]int64{in.age, in.member, in.edgeLen} {
		for _, v := range col {
			h.int64(v)
		}
	}
	for _, b := range in.isBoy {
		if b {
			h.int64(1)
		} else {
			h.int64(0)
		}
	}
	h.int64(int64(in.root))
	return pin{Nodes: g.NumNodes(), Edges: g.NumEdges(), Checksum: h.sum()}
}

//go:embed expected.json
var expectedJSON []byte

// checkPin is the input-drift guard: at the default seed, a workload's
// inputs must be the ones expected.json pins, so a changed generator or
// serve builder fails loudly instead of silently shifting the baseline.
// Other seeds have no pin and pass.
func checkPin(workload string, smoke bool, seed int64, got pin) error {
	if seed != defaultSeed {
		return nil
	}
	var expected map[string]pin
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	key := pinKey(workload, smoke)
	want, ok := expected[key]
	if !ok {
		return fmt.Errorf("expected.json has no entry %q (regenerate with -pin)", key)
	}
	if got != want {
		return fmt.Errorf("input drift on %s: got %+v, expected.json pins %+v (if the change is intended, regenerate with -pin)", key, got, want)
	}
	return nil
}

func pinKey(workload string, smoke bool) string {
	if smoke {
		return workload + "/smoke"
	}
	return workload + "/full"
}
