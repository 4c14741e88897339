package core

import (
	"strings"
	"testing"

	"gmpregel/internal/gm/analysis"
)

// TestCompileDiagnostics pins the error messages for programs the
// compiler cannot (or refuses to) translate — the boundary of the
// paper's "Pregel-compatible" set (Appendix A).
func TestCompileDiagnostics(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
		code, pos          string
	}{
		{
			name: "sequential For loop",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				For (n: G.Nodes) { n.x = 1; }
			}`,
			wantSub: "not Pregel-compatible",
			code:    analysis.CodeSema,
			pos:     "2:5",
		},
		{
			name: "reduce in while condition",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				While (Exist(n: G.Nodes)[n.x > 0]) {
					Foreach (n: G.Nodes) { n.x -= 1; }
				}
			}`,
			wantSub: "While condition",
			code:    analysis.CodeUnsupported,
			pos:     "2:5",
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
			code:    analysis.CodeCondPull,
			pos:     "4:7",
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
			code:    analysis.CodeEdgePull,
			pos:     "3:6",
		},
		{
			name: "nested whole-graph loops",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					Foreach (m: G.Nodes) { m.x += 1; }
				}
			}`,
			wantSub: "nested whole-graph loops",
			code:    analysis.CodeParallelNest,
			pos:     "3:6",
		},
		{
			name: "random read in vertex context",
			src: `Procedure f(G: Graph, s: Node, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					n.x = s.x;
				}
			}`,
			wantSub: "message pulling",
			code:    analysis.CodeUnsupported,
			pos:     "3:15",
		},
		{
			name: "random read in sequential condition",
			src: `Procedure f(G: Graph, s: Node, x: Node_Prop<Int>) {
				If (s.x > 0) {
					Foreach (n: G.Nodes) { n.x = 0; }
				}
			}`,
			wantSub: "assign it to a variable",
			code:    analysis.CodeUnsupported,
			pos:     "2:13",
		},
		{
			name: "InDegree builtin",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) { n.x = n.InDegree(); }
			}`,
			wantSub: "incoming-neighbor",
			code:    analysis.CodeUnsupported,
			pos:     "2:44",
		},
		{
			name: "whole-graph reduce in parallel",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					n.x = Count(m: G.Nodes)(m.x > 0);
				}
			}`,
			wantSub: "not Pregel-compatible",
			code:    analysis.CodeParallelNest,
			pos:     "3:12",
		},
		{
			name: "neighborhood reduction under an If",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					If (n.x > 0) { n.x = Sum(t: n.Nbrs)(t.x); }
				}
			}`,
			wantSub: "3:27: a neighborhood reduction in an If or a nested block of a vertex loop cannot be transformed",
			code:    analysis.CodeCondPull,
			pos:     "3:27",
		},
		{
			name: "neighborhood reduction in a nested block",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					{ n.x = Sum(t: n.Nbrs)(t.x); }
				}
			}`,
			wantSub: "3:14: a neighborhood reduction in an If or a nested block of a vertex loop cannot be transformed",
			code:    analysis.CodeCondPull,
			pos:     "3:14",
		},
		{
			name: "neighbor loop in a neighbor loop",
			src: `Procedure f(G: Graph, v: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					Foreach (t: n.Nbrs) {
						Foreach (u: t.Nbrs) { u.v += 1; }
					}
				}
			}`,
			wantSub: "nested deeper than one level",
			code:    analysis.CodeDeepNest,
			pos:     "4:7",
		},
		{
			name: "whole-graph loop in a neighbor loop",
			src: `Procedure f(G: Graph, v: Node_Prop<Int>) {
				Foreach (n: G.Nodes) {
					Foreach (t: n.Nbrs) {
						Foreach (u: G.Nodes) { u.v += 1; }
					}
				}
			}`,
			wantSub: "nested whole-graph loops",
			code:    analysis.CodeParallelNest,
			pos:     "4:7",
		},
		{
			name: "reduction in a loop filter",
			src: `Procedure f(G: Graph, x: Node_Prop<Int>) {
				Foreach (n: G.Nodes)(Sum(t: n.Nbrs)(t.x) > 0) { n.x = 1; }
			}`,
			wantSub: "a reduction in a loop filter",
			code:    analysis.CodeUnsupported,
			pos:     "2:26",
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
			code:    analysis.CodeUnsupported,
			pos:     "2:5",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, Options{})
			if err == nil {
				t.Fatalf("expected a compile error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err.Error(), tc.wantSub)
			}
			if d := analysis.FromError(err)[0]; d.Code != tc.code || d.Pos.String() != tc.pos {
				t.Errorf("error %q is %s at %s, want %s at %s", err.Error(), d.Code, d.Pos, tc.code, tc.pos)
			}
			// A diagnostic speaks of the user's program: no compiler
			// temporary, no Go type, no internal error.
			for _, frag := range []string{`"_r`, `"_t`, "*ast.", "internal:"} {
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

// TestDiagnoseReportsVerdict: the rejections the analyzer used to
// predict (GM4003, GM5006, GM5009) reach Diagnose as the compiler's
// own error, with Compile's text, and only when Compile fails.
func TestDiagnoseReportsVerdict(t *testing.T) {
	cases := []struct {
		name, src, code string // code "" when the program compiles
	}{
		{"payload over the slot budget", `Procedure f(G: Graph, k: Node_Prop<Double>, a: Node_Prop<Double>, b: Node_Prop<Double>, c: Node_Prop<Double>, d2: Node_Prop<Double>, f2: Node_Prop<Double>, s: Node_Prop<Double>) {
			Foreach (n: G.Nodes) {
				n.s = Sum(w: n.Nbrs)(n.k*w.a + n.k*w.b + n.k*w.c + n.k*w.d2 + n.k*w.f2);
			}
		}`, analysis.CodePayloadOverflow},
		{"payload at the slot budget", `Procedure f(G: Graph, k: Node_Prop<Double>, a: Node_Prop<Double>, b: Node_Prop<Double>, c: Node_Prop<Double>, d2: Node_Prop<Double>, s: Node_Prop<Double>) {
			Foreach (n: G.Nodes) {
				n.s = Sum(w: n.Nbrs)(n.k*w.a + n.k*w.b + n.k*w.c + n.k*w.d2);
			}
		}`, ""},
		{"whole-graph loop in a vertex loop", `Procedure f(G: Graph, v: Node_Prop<Int>) {
			Foreach (n: G.Nodes) {
				Foreach (m: G.Nodes) { m.v += n.v; }
			}
		}`, analysis.CodeParallelNest},
		{"neighbor loop in a neighbor loop", `Procedure f(G: Graph, v: Node_Prop<Int>) {
			Foreach (n: G.Nodes) {
				Foreach (t: n.Nbrs) {
					Foreach (u: t.Nbrs) { u.v += 1; }
				}
			}
		}`, analysis.CodeDeepNest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, Options{})
			var errs []analysis.Diagnostic
			for _, d := range Diagnose(tc.src) {
				if d.Severity == analysis.SevError {
					errs = append(errs, d)
				}
			}
			if tc.code == "" {
				if err != nil || len(errs) > 0 {
					t.Fatalf("want a clean compile, got %v and %v", err, errs)
				}
				return
			}
			if err == nil || len(errs) != 1 {
				t.Fatalf("want one %s error, got %v and %v", tc.code, err, errs)
			}
			if errs[0].Code != tc.code || errs[0].Error() != err.Error() {
				t.Errorf("Diagnose reports %s %q, Compile fails with %q", errs[0].Code, errs[0].Error(), err)
			}
		})
	}
}
