package machine

import (
	"strings"
	"testing"
	"time"

	"gmpregel/internal/graph"
	"gmpregel/internal/pregel"
)

func TestSerializeRoundTripHandBuilt(t *testing.T) {
	for _, p := range []*Program{avgProgram(), nbrSumProgram(), floatNodePayloadProgram(), loopProgram(), relaxProgram(), opsProgram()} {
		data, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		p2, err := DecodeProgram(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		if p.String() != p2.String() {
			t.Errorf("%s: listing changed across round trip:\n--- original ---\n%s\n--- decoded ---\n%s",
				p.Name, p, p2)
		}
	}
}

func TestSerializedProgramRunsIdentically(t *testing.T) {
	p := relaxProgram()
	data, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 0, Dst: 5},
	})
	b := Bindings{
		NodePropInt: map[string][]int64{"dist": {0, 10, 20, 30, 40, 50}},
		EdgePropInt: map[string][]int64{"len": {1, 2, 3, 4, 5}},
	}
	cfg := pregel.Config{NumWorkers: 2}
	r1, err := Run(p, g, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p2, g, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := r1.NodePropInt("dist_nxt")
	d2, _ := r2.NodePropInt("dist_nxt")
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("dist_nxt[%d] = %d vs %d after reload", v, d1[v], d2[v])
		}
	}
	if r1.Stats.NetworkBytes != r2.Stats.NetworkBytes {
		t.Error("stats differ after reload")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		[]byte("not json"),
		[]byte(`{"name":"x","nodes":[{}]}`), // empty node
		[]byte(`{"name":"x","nodes":[{"master":{"term":0,"then":9}}]}`), // bad target
		[]byte(`{"name":"x","nodes":[{"vertex":{"next":0,"body":[{"k":"bogus"}]}}]}`),
	}
	for i, data := range cases {
		if _, err := DecodeProgram(data); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestSerializeCarriesAnalysisSummary(t *testing.T) {
	p := avgProgram()
	p.Analysis = &AnalysisSummary{
		Errors: 0, Warnings: 2, Infos: 3,
		Codes: []string{"GM2002", "GM4001"}, WarningFree: false,
	}
	data, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Analysis == nil {
		t.Fatal("analysis summary lost in round trip")
	}
	if p2.Analysis.Warnings != 2 || p2.Analysis.Infos != 3 || p2.Analysis.WarningFree ||
		len(p2.Analysis.Codes) != 2 || p2.Analysis.Codes[0] != "GM2002" {
		t.Errorf("analysis summary drifted: %+v", p2.Analysis)
	}
}

// malformedArtifacts are artifacts DecodeProgram must reject with an
// error containing want: a missing operand, and slots, statements,
// expressions, operators and operand kinds that no context of the
// program can run. Each decoded cleanly (or panicked) before Validate
// walked master code, expressions and kinds, and failed, or computed
// garbage, only at run time.
var malformedArtifacts = []struct {
	name, json, want string
}{
	{"binary without operands", `{"name":"x","nodes":[{"master":{"term":1,"cond":{"k":"binary"},"then":0,"else":0}}],"entry":0}`,
		"node 0: binary expression missing operand 0"},
	{"unary without operand", `{"name":"x","nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"unary"}}]}}],"entry":0}`,
		"node 0: unary expression missing operand 0"},
	{"ternary without else", `{"name":"x","nodes":[{"master":{"term":1,"cond":{"k":"ternary","c":{"k":"const"},"l":{"k":"const"}},"then":0,"else":0}}],"entry":0}`,
		"node 0: ternary expression missing operand 2"},
	{"master sets an undeclared scalar", `{"name":"x","nodes":[{"master":{"stmts":[{"k":"setScalar","slot":99,"rhs":{"k":"const"}}],"term":2}}],"entry":0}`,
		"master block 0: bad scalar slot 99"},
	{"master folds an undeclared aggregator", `{"name":"x","scalars":[{"Name":"s"}],"nodes":[{"master":{"stmts":[{"k":"foldAgg","agg":3}],"term":2}}],"entry":0}`,
		"master block 0: bad agg slot 3"},
	{"condition reads an undeclared scalar", `{"name":"x","nodes":[{"master":{"term":1,"cond":{"k":"scalar","slot":4},"then":0,"else":0}}],"entry":0}`,
		"node 0 condition: bad scalar slot 4"},
	{"condition reads a property", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"master":{"term":1,"cond":{"k":"prop"},"then":0,"else":0}}],"entry":0}`,
		"node 0 condition: expression ir.PropRef out of context"},
	{"master returns an aggregator that is not declared", `{"name":"x","nodes":[{"master":{"stmts":[{"k":"return","rhs":{"k":"agg","slot":1}}],"term":2}}],"entry":0}`,
		"master block 0: bad agg slot 1"},
	{"master writes a property", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"master":{"stmts":[{"k":"setProp","rhs":{"k":"const"}}],"term":2}}],"entry":0}`,
		"master block 0: statement ir.SetProp out of context"},
	{"vertex sets a scalar", `{"name":"x","scalars":[{"Name":"s"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setScalar","rhs":{"k":"const"}}]}}],"entry":0}`,
		"vertex state 0: statement ir.SetScalar out of context"},
	{"vertex reads an undeclared local", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"local","slot":2}}]}}],"entry":0}`,
		"vertex state 0: bad local slot 2"},
	{"vertex reads an edge property as a node property", `{"name":"x","props":[{"Name":"p"},{"Name":"e","IsEdge":true}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"prop","slot":1}}]}}],"entry":0}`,
		"vertex state 0: prop 1 read as the wrong kind"},
	{"vertex reads an aggregator", `{"name":"x","props":[{"Name":"p"}],"aggs":[{"name":"a"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"agg"}}]}}],"entry":0}`,
		"vertex state 0: expression ir.AggRef out of context"},
	{"message field outside a receive loop", `{"name":"x","props":[{"Name":"p"}],"msgs":[{"Name":"m","Fields":[0]}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"msgField"}}]}}],"entry":0}`,
		"vertex state 0: message field 0 read outside a receive loop"},
	{"message field beyond its type's fields", `{"name":"x","props":[{"Name":"p"}],"msgs":[{"Name":"m","Fields":[0]}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"forMsgs","body":[{"k":"setProp","rhs":{"k":"msgField","slot":1}}]}]}}],"entry":0}`,
		"vertex state 0: bad message field slot 1"},
	{"send with a missing field", `{"name":"x","msgs":[{"Name":"m","Fields":[0,1]}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"sendToNbrs","payload":[{"k":"const"}]}]}}],"entry":0}`,
		"vertex state 0: message type 0 sent with 1 fields, declared with 2"},
	{"unknown builtin", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"builtin","op":9}}]}}],"entry":0}`,
		"vertex state 0: bad builtin slot 9"},
	{"master reads a vertex-only builtin", `{"name":"x","nodes":[{"master":{"term":1,"cond":{"k":"builtin","op":2},"then":0,"else":0}}],"entry":0}`,
		"node 0 condition: expression ir.Builtin out of context"},
	// Kind errors, judged by exprKind: a float operand of %, and a
	// condition (or an operand of !, && or ||) that is not Bool.
	{"% of a float", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"binary","op":12,"l":{"k":"prop","name":"p"},"r":{"k":"const","vk":1,"i":4611686018427387904}}}]}}],"entry":0}`,
		"vertex state 0: (this.p % 2) has a Float operand"},
	{"If on an int", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"if","cond":{"k":"prop","name":"p"}}]}}],"entry":0}`,
		"vertex state 0: condition this.p is Int, not Bool"},
	{"ternary on a float", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"ternary","c":{"k":"const","vk":1},"l":{"k":"const"},"r":{"k":"const"}}}]}}],"entry":0}`,
		"vertex state 0: condition 0 is Float, not Bool"},
	{"! of an int", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"unary","op":0,"l":{"k":"prop","name":"p"}}}]}}],"entry":0}`,
		"vertex state 0: condition this.p is Int, not Bool"},
	{"&& of a node", `{"name":"x","props":[{"Name":"p","Kind":2}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"binary","op":1,"l":{"k":"const","vk":2,"i":1},"r":{"k":"curNode"}}}]}}],"entry":0}`,
		"vertex state 0: condition this.id is Node, not Bool"},
	{"|| of an int", `{"name":"x","props":[{"Name":"p","Kind":2}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"binary","op":0,"l":{"k":"const","i":1},"r":{"k":"const","vk":2}}}]}}],"entry":0}`,
		"vertex state 0: condition 1 is Int, not Bool"},
	{"edge condition on an int", `{"name":"x","msgs":[{"Name":"m","Fields":[0]}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"sendToNbrs","cond":{"k":"const","i":1},"payload":[{"k":"const"}]}]}}],"entry":0}`,
		"vertex state 0: condition 1 is Int, not Bool"},
	{"terminator condition on a float", `{"name":"x","scalars":[{"Name":"s","Kind":1}],"nodes":[{"master":{"term":1,"cond":{"k":"scalar","name":"s"},"then":0,"else":0}}],"entry":0}`,
		"node 0 condition: condition $s is Float, not Bool"},
	{"unknown binary operator", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"binary","op":13,"l":{"k":"const"},"r":{"k":"const"}}}]}}],"entry":0}`,
		"vertex state 0: bad binary operator slot 13"},
	// Kinds outside Int, Float, Bool and Node, which Value.Convert and
	// the typed closures would read differently.
	{"scalar of kind 7", `{"name":"x","scalars":[{"Name":"s","Kind":7}],"nodes":[{"master":{"term":2}}],"entry":0}`,
		"machine: scalar of bad kind 7"},
	{"prop of kind 7", `{"name":"x","props":[{"Name":"p","Kind":7}],"nodes":[{"master":{"term":2}}],"entry":0}`,
		"machine: prop of bad kind 7"},
	{"aggregator of kind 7", `{"name":"x","aggs":[{"name":"a","kind":7}],"nodes":[{"master":{"term":2}}],"entry":0}`,
		"machine: agg of bad kind 7"},
	{"message field of kind 7", `{"name":"x","msgs":[{"Name":"m","Fields":[0,7]}],"nodes":[{"master":{"term":2}}],"entry":0}`,
		"machine: message field of bad kind 7"},
	{"return value of kind 7", `{"name":"x","has_return":true,"return_kind":7,"nodes":[{"master":{"term":2}}],"entry":0}`,
		"machine: return value of bad kind 7"},
	{"local of kind 7", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"vertex":{"name":"v","next":0,"locals":[7],"body":[{"k":"setLocal","rhs":{"k":"const"}}]}}],"entry":0}`,
		"vertex state 0: local of bad kind 7"},
	{"condition on a local of kind 7", `{"name":"x","nodes":[{"vertex":{"name":"v","next":0,"locals":[7],"body":[{"k":"if","cond":{"k":"local"}}]}}],"entry":0}`,
		"vertex state 0: local of bad kind 7"},
	{"constant of kind 7", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","rhs":{"k":"const","vk":7}}]}}],"entry":0}`,
		"vertex state 0: constant of bad kind 7"},
	{"message field read as kind 7", `{"name":"x","props":[{"Name":"p"}],"msgs":[{"Name":"m","Fields":[0]}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"forMsgs","body":[{"k":"setProp","rhs":{"k":"msgField","vk":7}}]}]}}],"entry":0}`,
		"vertex state 0: message field of bad kind 7"},
	{"unknown assignment operator", `{"name":"x","props":[{"Name":"p"}],"nodes":[{"vertex":{"name":"v","next":0,"body":[{"k":"setProp","op":-1,"rhs":{"k":"const"}}]}}],"entry":0}`,
		"vertex state 0: bad assignment operator slot -1"},
}

func TestDecodeRejectsMalformed(t *testing.T) {
	for _, c := range malformedArtifacts {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeProgram([]byte(c.json))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("DecodeProgram error = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// deepLogicArtifact is a valid artifact whose terminator condition is
// n nested &&s: true && (true && (... && true)).
func deepLogicArtifact(n int) string {
	return `{"name":"x","nodes":[{"master":{"term":1,"cond":` +
		strings.Repeat(`{"k":"binary","op":1,"l":{"k":"const","vk":2,"i":1},"r":`, n) +
		`{"k":"const","vk":2,"i":1}` + strings.Repeat("}", n) + `,"then":0,"else":0}}],"entry":0}`
}

// Validate walks each operand of && and || once: a condition of 64
// nested &&s decodes at once, where walking both operands twice per
// level took 2^64 steps.
func TestDecodeDeepLogicIsLinear(t *testing.T) {
	start := time.Now()
	if _, err := DecodeProgram([]byte(deepLogicArtifact(64))); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("decoding 64 nested &&s took %v", d)
	}
}
