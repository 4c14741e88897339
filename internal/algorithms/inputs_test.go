package algorithms

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"gmpregel/internal/core"
	"gmpregel/internal/graph/gen"
	"gmpregel/internal/ir"
)

func TestMakeInputsDeterministicAndValid(t *testing.T) {
	spec, _ := GraphByName("twitter")
	g := spec.Build(1)
	a := MakeInputs(g, 100, 7)
	b := MakeInputs(g, 100, 7)
	if a.Root != b.Root {
		t.Error("roots differ for same seed")
	}
	for i := range a.Age {
		if a.Age[i] != b.Age[i] || a.Member[i] != b.Member[i] {
			t.Fatal("node inputs differ for same seed")
		}
	}
	for i := range a.EdgeLen {
		if a.EdgeLen[i] != b.EdgeLen[i] {
			t.Fatal("edge inputs differ for same seed")
		}
		if a.EdgeLen[i] < 1 {
			t.Fatal("non-positive edge length")
		}
	}
	if g.OutDegree(a.Root) == 0 {
		t.Error("root has no out-edges")
	}
	for v := 0; v < 100; v++ {
		if !a.IsBoy[v] {
			t.Fatal("boy flag wrong")
		}
	}
	if a.IsBoy[100] {
		t.Fatal("boundary wrong")
	}
	if _, err := GraphByName("nope"); err == nil {
		t.Error("unknown graph should error")
	}

	// Every paper table, the served snapshots and the spine's serve-mix
	// pin are built from these bytes: any change to a generator argument
	// or to MakeInputs' RNG draw order shows up here first.
	const want = 0x70af1e9dddb2b960
	if got := inputsChecksum(t); got != want {
		t.Errorf("evaluation inputs drifted: checksum %#x, want %#x", got, want)
	}
}

// Bindings binds every scalar parameter each paper program declares, and
// binds only parameters the program declares, with the same kind and
// column length. machine.Run zero-fills whatever is left unbound, so a
// renamed parameter would otherwise run silently on zeros.
func TestBindingsMatchDeclaredParams(t *testing.T) {
	g := gen.Random(64, 256, 3)
	in := MakeInputs(g, 32, 1)
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			c, err := core.Compile(ByName[name], core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b := Bindings(name, in, DefaultParams())

			bound := map[string]ir.Kind{}
			for k := range b.Int {
				bound[k] = ir.KInt
			}
			for k := range b.Float {
				bound[k] = ir.KFloat
			}
			for k := range b.Bool {
				bound[k] = ir.KBool
			}
			for k := range b.Node {
				bound[k] = ir.KNode
			}
			declared := map[string]ir.Kind{}
			for _, s := range c.Program.Scalars {
				if !s.IsParam {
					continue
				}
				declared[s.Name] = s.Kind
				if k, ok := bound[s.Name]; !ok || k != s.Kind {
					t.Errorf("scalar parameter %q (%v) is not bound", s.Name, s.Kind)
				}
			}
			for n, k := range bound {
				if dk, ok := declared[n]; !ok || dk != k {
					t.Errorf("binds scalar %q (%v), which the program does not declare", n, k)
				}
			}

			type column struct {
				kind ir.Kind
				edge bool
				len  int
			}
			cols := map[string]column{}
			for k, v := range b.NodePropInt {
				cols[k] = column{ir.KInt, false, len(v)}
			}
			for k, v := range b.NodePropFloat {
				cols[k] = column{ir.KFloat, false, len(v)}
			}
			for k, v := range b.NodePropBool {
				cols[k] = column{ir.KBool, false, len(v)}
			}
			for k, v := range b.NodePropNode {
				cols[k] = column{ir.KNode, false, len(v)}
			}
			for k, v := range b.EdgePropInt {
				cols[k] = column{ir.KInt, true, len(v)}
			}
			for k, v := range b.EdgePropFloat {
				cols[k] = column{ir.KFloat, true, len(v)}
			}
			for n, col := range cols {
				found := false
				for _, pd := range c.Program.Props {
					if pd.Name == n && pd.IsParam && pd.Kind == col.kind && pd.IsEdge == col.edge {
						found = true
					}
				}
				if !found {
					t.Errorf("binds property %q (%v, edge=%v), which the program does not declare", n, col.kind, col.edge)
				}
				want := g.NumNodes()
				if col.edge {
					want = int(g.NumEdges())
				}
				if col.len != want {
					t.Errorf("property %q has %d entries, want %d", n, col.len, want)
				}
			}
		})
	}
}

// inputsChecksum folds the three evaluation graphs at scale 1 (CSR
// arrays) and their MakeInputs columns at seed 8 into one FNV-64a sum.
func inputsChecksum(t *testing.T) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, name := range []string{"twitter", "sk2005", "bipartite"} {
		spec, err := GraphByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Build(1)
		boys := 0
		if spec.BipartiteBoys != nil {
			boys = spec.BipartiteBoys(1)
		}
		in := MakeInputs(g, boys, 8)
		for _, x := range g.OutStart {
			word(uint64(x))
		}
		for _, x := range g.OutDst {
			word(uint64(x))
		}
		for _, col := range [][]int64{in.Age, in.Member, in.EdgeLen} {
			for _, x := range col {
				word(uint64(x))
			}
		}
		for _, b := range in.IsBoy {
			if b {
				word(1)
			} else {
				word(0)
			}
		}
		word(uint64(in.Root))
	}
	return h.Sum64()
}
