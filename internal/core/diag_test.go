package core

import (
	"strings"
	"testing"
)

// TestCompileDiagnostics pins the error messages for programs the
// compiler cannot (or refuses to) translate — the boundary of the
// paper's "Pregel-compatible" set (Appendix A).
func TestCompileDiagnostics(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{
			name: "sequential For loop",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				For (n: G.Nodes) { n.x = 1; }
			}`,
			wantSub: "not Pregel-compatible",
		},
		{
			name: "reduce in while condition",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				While (Exist(n: G.Nodes)[n.x > 0]) {
					Foreach (n: G.Nodes) { n.x -= 1; }
				}
			}`,
			wantSub: "While condition",
		},
		{
			name: "pull loop under a condition",
			src: `Procedure f(G: Graph, a: Node_Prop<Int>, c: Node_Prop<Bool>) {
				Foreach (n: G.Nodes) {
					If (n.c) {
						Foreach (t: n.InNbrs) { n.a += t.a; }
					}
				}
			}`,
			wantSub: "cannot be transformed",
		},
		{
			name: "edge property in a pull",
			src: `Procedure f(G: Graph, w: Edge_Prop<Int>, a: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					Foreach (t: n.Nbrs) {
						Edge e = t.ToEdge();
						n.a += e.w;
					}
				}
			}`,
			wantSub: "message-pulling",
		},
		{
			name: "nested whole-graph loops",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					Foreach (m: G.Nodes) { m.x += 1; }
				}
			}`,
			wantSub: "",
		},
		{
			name: "random read in vertex context",
			src: `Procedure f(G: Graph, s: Node, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					n.x = s.x;
				}
			}`,
			wantSub: "message pulling",
		},
		{
			name: "random read in sequential condition",
			src: `Procedure f(G: Graph, s: Node, x: Node_Prop<Int>) {
				If (s.x > 0) {
					Foreach (n: G.Nodes) { n.x = 0; }
				}
			}`,
			wantSub: "assign it to a variable",
		},
		{
			name: "InDegree builtin",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) { n.x = n.InDegree(); }
			}`,
			wantSub: "incoming-neighbor",
		},
		{
			name: "whole-graph reduce in parallel",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					n.x = Count(m: G.Nodes)(m.x > 0);
				}
			}`,
			wantSub: "not Pregel-compatible",
		},
		{
			name: "neighborhood reduction under an If",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					If (n.x > 0) { n.x = Sum(t: n.Nbrs)(t.x); }
				}
			}`,
			wantSub: "3:27: a neighborhood reduction in an If or a nested block of a vertex loop cannot be transformed",
		},
		{
			name: "neighborhood reduction in a nested block",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					{ n.x = Sum(t: n.Nbrs)(t.x); }
				}
			}`,
			wantSub: "3:14: a neighborhood reduction in an If or a nested block of a vertex loop cannot be transformed",
		},
		{
			name: "filter hazard on split",
			src: `Procedure f(G: Graph, a: Node_Prop<Int>, flag: Node_Prop<Bool>) {
				Foreach (n: G.Nodes)(n.flag) {
					n.flag = False;
					Foreach (t: n.InNbrs) { n.a += t.a; }
					n.a = n.a * 2;
				}
			}`,
			wantSub: "loop filter",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, Options{})
			if err == nil {
				t.Fatalf("expected a compile error containing %q", tc.wantSub)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err.Error(), tc.wantSub)
			}
			// A diagnostic speaks of the user's program: no compiler
			// temporary, no internal error.
			for _, frag := range []string{`"_r`, `"_t`, "internal:"} {
				if strings.Contains(err.Error(), frag) {
					t.Errorf("error %q names %s", err.Error(), frag)
				}
			}
		})
	}
}

// TestCompileErrorsAreUserFacing ensures diagnostics carry positions.
func TestCompileErrorsAreUserFacing(t *testing.T) {
	_, err := Compile(`Procedure f(G: Graph, a: Node_Prop<Int>, c: Node_Prop<Bool>) {
		Foreach (n: G.Nodes) {
			If (n.c) {
				Foreach (t: n.InNbrs) { n.a += t.a; }
			}
		}
	}`, Options{})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), ":") {
		t.Errorf("diagnostic lacks a position: %q", err)
	}
	if strings.Contains(err.Error(), "internal:") {
		t.Errorf("user program error reported as internal: %q", err)
	}
}

// A diagnostic prints its position once, before the message.
func TestDiagnosticPositionPrintedOnce(t *testing.T) {
	_, err := Compile(`Procedure f(G: Graph, s: Node, x: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) { s.x += t.x; }
		}
	}`, Options{})
	want := `3:26: writing "s".x inside a neighbor loop requires message pulling, which Pregel cannot do`
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
}

// TestPayloadSlotLimit: communications needing more fields than the
// runtime message layout supports must fail at compile time, not panic
// at run time.
func TestPayloadSlotLimit(t *testing.T) {
	src := `Procedure f(G: Graph, a: Node_Prop<Int>, b: Node_Prop<Int>, c: Node_Prop<Int>,
	                     d: Node_Prop<Int>, e2: Node_Prop<Int>, o: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) {
				t.o += n.a;
				t.o += n.b;
				t.o += n.c;
				t.o += n.d;
				t.o += n.e2;
			}
		}
	}`
	_, err := Compile(src, Options{})
	if err == nil {
		t.Fatal("expected a payload-slot diagnostic")
	}
	if !strings.Contains(err.Error(), "message fields") {
		t.Errorf("error %q should mention message fields", err)
	}
	// Exactly at the limit compiles.
	ok := `Procedure f(G: Graph, a: Node_Prop<Int>, b: Node_Prop<Int>, c: Node_Prop<Int>,
	                     d: Node_Prop<Int>, o: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) {
				t.o += n.a + n.b + n.c + n.d;
			}
		}
	}`
	// The payload analysis ships each distinct variable, so this uses 4.
	if _, err := Compile(ok, Options{}); err != nil {
		t.Fatalf("4-field payload should compile: %v", err)
	}
}
