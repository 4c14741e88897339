package ir

import (
	"math"
	"testing"
	"testing/quick"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/graph"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(-5); v.AsInt() != -5 || v.AsFloat() != -5.0 || v.K != KInt {
		t.Errorf("Int: %+v", v)
	}
	if v := Float(2.5); v.AsFloat() != 2.5 || v.AsInt() != 2 {
		t.Errorf("Float: %+v", v)
	}
	if v := Bool(true); !v.AsBool() || v.I != 1 {
		t.Errorf("Bool: %+v", v)
	}
	if v := Node(7); v.AsNode() != 7 {
		t.Errorf("Node: %+v", v)
	}
	if z := Zero(KNode); z.AsNode() != graph.NilNode {
		t.Errorf("Zero(KNode) = %+v, want NIL", z)
	}
	if z := Zero(KFloat); z.AsFloat() != 0 {
		t.Errorf("Zero(KFloat) = %+v", z)
	}
	if i := Inf(KInt); i.I != math.MaxInt64 {
		t.Errorf("Inf(KInt) = %+v", i)
	}
	if i := Inf(KFloat); !math.IsInf(i.F, 1) {
		t.Errorf("Inf(KFloat) = %+v", i)
	}
}

func TestValueConvert(t *testing.T) {
	if v := Float(3.9).Convert(KInt); v.I != 3 {
		t.Errorf("float→int = %v", v)
	}
	if v := Int(3).Convert(KFloat); v.F != 3.0 {
		t.Errorf("int→float = %v", v)
	}
	if v := Int(0).Convert(KBool); v.AsBool() {
		t.Errorf("0→bool = %v", v)
	}
}

func TestEqualAndLessPromote(t *testing.T) {
	if !Equal(Int(2), Float(2.0)) || Equal(Int(2), Float(2.5)) {
		t.Error("mixed equality wrong")
	}
	if !Less(Int(1), Float(1.5)) || Less(Float(2.5), Int(2)) {
		t.Error("mixed ordering wrong")
	}
}

func TestReduceOps(t *testing.T) {
	cases := []struct {
		op   ast.AssignOp
		old  Value
		v    Value
		want Value
	}{
		{ast.OpSet, Int(1), Int(9), Int(9)},
		{ast.OpAdd, Int(1), Int(9), Int(10)},
		{ast.OpSub, Int(1), Int(9), Int(-8)},
		{ast.OpMul, Int(3), Int(4), Int(12)},
		{ast.OpMin, Int(5), Int(9), Int(5)},
		{ast.OpMin, Int(9), Int(5), Int(5)},
		{ast.OpMax, Int(5), Int(9), Int(9)},
		{ast.OpAnd, Bool(true), Bool(false), Bool(false)},
		{ast.OpOr, Bool(false), Bool(true), Bool(true)},
		{ast.OpAdd, Float(1.5), Float(2.25), Float(3.75)},
		{ast.OpSet, Float(1), Int(2), Float(2)},
		{ast.OpSet, Node(3), Node(8), Node(8)},
	}
	for i, tc := range cases {
		got := Reduce(tc.op, tc.old, tc.v)
		if !Equal(got, tc.want) || got.K != tc.want.K {
			t.Errorf("case %d: Reduce(%v, %v, %v) = %v, want %v", i, tc.op, tc.old, tc.v, got, tc.want)
		}
	}
}

// Property: min/max reductions are commutative and idempotent.
func TestReduceMinMaxLawsQuick(t *testing.T) {
	f := func(a, b int64) bool {
		m1 := Reduce(ast.OpMin, Int(a), Int(b))
		m2 := Reduce(ast.OpMin, Int(b), Int(a))
		idem := Reduce(ast.OpMin, m1, m1)
		return Equal(m1, m2) && Equal(idem, m1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mockEnv provides deterministic values for Eval tests.
type mockEnv struct {
	scalars []Value
	locals  []Value
	props   []Value
	edges   []Value
	msg     []Value
	node    graph.NodeID
}

func (m *mockEnv) Scalar(s int) Value         { return m.scalars[s] }
func (m *mockEnv) Local(s int) Value          { return m.locals[s] }
func (m *mockEnv) Prop(s int) Value           { return m.props[s] }
func (m *mockEnv) EdgeProp(s int) Value       { return m.edges[s] }
func (m *mockEnv) CurNode() Value             { return Node(m.node) }
func (m *mockEnv) MsgField(i int) Value       { return m.msg[i] }
func (m *mockEnv) Agg(int) (Value, bool)      { return Value{}, false }
func (m *mockEnv) BuiltinVal(BuiltinOp) Value { return Int(42) }

// Kind reads e's kind off its value, which the mock's side-effect-free
// reads allow; the tests' ternaries have branches of one kind.
func (m *mockEnv) Kind(e Expr) Kind {
	if t, ok := e.(Ternary); ok {
		e = t.Then
	}
	return Eval(e, m).K
}

func TestEvalArithmeticPromotion(t *testing.T) {
	env := &mockEnv{}
	cases := []struct {
		e    Expr
		want Value
	}{
		{Binary{Op: ast.BinAdd, L: Const{V: Int(2)}, R: Const{V: Int(3)}}, Int(5)},
		{Binary{Op: ast.BinAdd, L: Const{V: Int(2)}, R: Const{V: Float(0.5)}}, Float(2.5)},
		{Binary{Op: ast.BinDiv, L: Const{V: Int(7)}, R: Const{V: Int(2)}}, Int(3)},
		{Binary{Op: ast.BinDiv, L: Const{V: Float(7)}, R: Const{V: Int(2)}}, Float(3.5)},
		{Binary{Op: ast.BinMod, L: Const{V: Int(7)}, R: Const{V: Int(3)}}, Int(1)},
		{Binary{Op: ast.BinDiv, L: Const{V: Int(7)}, R: Const{V: Int(0)}}, Int(0)},
		{Unary{Op: ast.UnNeg, X: Const{V: Int(4)}}, Int(-4)},
		{Unary{Op: ast.UnNot, X: Const{V: Bool(false)}}, Bool(true)},
		{Ternary{Cond: Const{V: Bool(true)}, Then: Const{V: Int(1)}, Else: Const{V: Int(2)}}, Int(1)},
		{Binary{Op: ast.BinLe, L: Const{V: Int(2)}, R: Const{V: Int(2)}}, Bool(true)},
	}
	for i, tc := range cases {
		got := Eval(tc.e, env)
		if !Equal(got, tc.want) || got.K != tc.want.K {
			t.Errorf("case %d: Eval(%s) = %v, want %v", i, tc.e, got, tc.want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// RHS panics if evaluated; short-circuit must prevent that.
	boom := MsgField{Idx: 99, K: KInt}
	env := &mockEnv{}
	if got := Eval(Binary{Op: ast.BinAnd, L: Const{V: Bool(false)}, R: boom}, env); got.AsBool() {
		t.Error("false && _ should be false")
	}
	if got := Eval(Binary{Op: ast.BinOr, L: Const{V: Bool(true)}, R: boom}, env); !got.AsBool() {
		t.Error("true || _ should be true")
	}
}

func TestEvalMsgFieldReinterprets(t *testing.T) {
	bits := math.Float64bits(6.5)
	env := &mockEnv{msg: []Value{Int(int64(bits))}}
	got := Eval(MsgField{Idx: 0, K: KFloat}, env)
	if got.AsFloat() != 6.5 {
		t.Errorf("float field = %v, want 6.5", got)
	}
	env2 := &mockEnv{msg: []Value{Int(int64(uint32(0xFFFFFFFF)))}}
	if got := Eval(MsgField{Idx: 0, K: KNode}, env2); got.AsNode() != graph.NilNode {
		t.Errorf("NIL node field = %v", got)
	}
}

func TestRemapLocals(t *testing.T) {
	body := []Stmt{
		SetLocal{Slot: 0, Name: "a", RHS: LocalRef{Slot: 1, Name: "b"}},
		If{
			Cond: Binary{Op: ast.BinLt, L: LocalRef{Slot: 0}, R: Const{V: Int(3)}},
			Then: []Stmt{SetProp{Slot: 0, Op: ast.OpAdd, RHS: LocalRef{Slot: 1}}},
		},
		ForMsgs{MsgType: 0, Body: []Stmt{
			SetLocal{Slot: 1, RHS: MsgField{Idx: 0, K: KInt}},
		}},
	}
	remapped := RemapLocals(body, 10)
	// Original must be unchanged.
	if body[0].(SetLocal).Slot != 0 {
		t.Fatal("original mutated")
	}
	if got := remapped[0].(SetLocal); got.Slot != 10 || got.RHS.(LocalRef).Slot != 11 {
		t.Errorf("SetLocal remap wrong: %+v", got)
	}
	iff := remapped[1].(If)
	if iff.Cond.(Binary).L.(LocalRef).Slot != 10 {
		t.Errorf("If cond remap wrong")
	}
	if iff.Then[0].(SetProp).RHS.(LocalRef).Slot != 11 {
		t.Errorf("nested SetProp remap wrong")
	}
	fm := remapped[2].(ForMsgs)
	if fm.Body[0].(SetLocal).Slot != 11 {
		t.Errorf("ForMsgs body remap wrong")
	}
	// Offset 0 is identity.
	same := RemapLocals(body, 0)
	if same[0].(SetLocal).Slot != 0 {
		t.Error("offset 0 changed slots")
	}
}

func TestKindWireSizes(t *testing.T) {
	if KInt.WireSize() != 8 || KFloat.WireSize() != 8 || KBool.WireSize() != 1 || KNode.WireSize() != 4 {
		t.Error("wire sizes wrong")
	}
}

func TestKindOfType(t *testing.T) {
	cases := map[ast.TypeKind]Kind{
		ast.TInt: KInt, ast.TLong: KInt,
		ast.TFloat: KFloat, ast.TDouble: KFloat,
		ast.TBool: KBool, ast.TNode: KNode,
	}
	for in, want := range cases {
		if got := KindOfType(in); got != want {
			t.Errorf("KindOfType(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestStmtAndExprStrings(t *testing.T) {
	// String renderings feed the machine listing; keep them stable-ish.
	s := SendToNbrs{MsgType: 1, Payload: []Expr{PropRef{Slot: 0, Name: "x"}}}
	if got := s.String(); got == "" {
		t.Error("empty string rendering")
	}
	e := Ternary{Cond: Const{V: Bool(true)}, Then: Const{V: Int(1)}, Else: Const{V: Int(2)}}
	if got := e.String(); got != "(true ? 1 : 2)" {
		t.Errorf("ternary rendering = %q", got)
	}
}
