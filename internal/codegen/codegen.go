// Package codegen emits the compiled Pregel program as Java source — the
// textual artifact the paper's compiler produces. One walker over the
// machine program prints both targets: GPS (the paper's backend) and
// Apache Giraph (its footnote 1), each described by a dialect value that
// spells the Pregel API calls. The output is for inspection and for the
// lines-of-code comparison (Table 2); the runnable artifact is the
// machine.Program interpreted on the engine.
package codegen

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/ir"
	"gmpregel/internal/machine"
)

// dialect spells one Java target's Pregel API. Class templates take the
// class-name stem as %[1]s and the message class as %[2]s; global
// templates take the Writable/Overwrite stem as %[1]s, the object name
// as %[2]q and the value as %[3]s. Indexed verbs let a target leave an
// argument out.
type dialect struct {
	giraph bool // raw-slot message class, registered aggregators, Computation first

	target                     string // header comment
	pub                        string // modifier on value/message classes and their fields
	slotField, inNbrsField     string // message slot f%d; value-class in_nbrs field
	valueClass                 string
	masterClass, masterCompute string
	vertexClass, vertexCompute string
	masterCase, vertexCase     string // master-side case headers
	yield                      string // master hands a superstep to vertex.compute

	self       string // prefix of a vertex-property access
	edgeLoop   string // loop over out-edges binding e
	edgeTarget string // target vertex of edge e
	edgeProp   string // prefix of an edge-property read
	curNode    string
	degree     string
	vertexID   string // wraps an int vertex id for sendMessage

	globalRead, globalWrite, contrib string
	result                           string // master-side procedure result
}

var gps = &dialect{
	target:        "GPS (master.compute + vertex.compute extended Pregel API)",
	slotField:     "long f%d; // raw 64-bit slot (long/double/boolean/vertex-id)",
	inNbrsField:   "int[] in_nbrs; // §4.3 incoming-neighbor list (when used)",
	valueClass:    "class %[1]sVertexValue implements Writable {",
	masterClass:   "class %[1]sMaster extends Master {",
	masterCompute: "public void compute(int superstepNo) {",
	vertexClass:   "class %[1]sVertex extends Vertex<%[1]sVertexValue, %[2]s> {",
	vertexCompute: "public void compute(Iterable<%[2]s> messages, int superstepNo) {",
	masterCase:    "case %d: { // master block",
	vertexCase:    "case %d: { // vertex-parallel state %q",
	yield:         "_state = %d; return; // run vertex.compute this superstep",
	self:          "getValue().",
	edgeLoop:      "for (int e = 0; e < getNeighborsCount(); e++) {",
	edgeTarget:    "getNeighborId(e)",
	edgeProp:      "getEdgeValue(e).",
	curNode:       "getId()",
	degree:        "getNeighborsCount()",
	vertexID:      "%s",
	globalRead:    "((%[1]sOverwrite) getGlobalObjectMap().get(%[2]q)).getValue()",
	globalWrite:   "getGlobalObjectMap().put(%[2]q, new %[1]sOverwrite(%[3]s));",
	contrib:       "getGlobalObjectMap().put(%[2]q, new Reduce(%[3]s));",
	result:        "setResult(%s);",
}

var giraph = &dialect{
	giraph:        true,
	target:        "Apache Giraph (BasicComputation + MasterCompute APIs)",
	pub:           "public ",
	slotField:     "public long f%d;",
	inNbrsField:   "public int[] in_nbrs;",
	valueClass:    "public class %[1]sValue implements Writable {",
	masterClass:   "public class %[1]sMaster extends DefaultMasterCompute {",
	masterCompute: "public void compute() {",
	vertexClass:   "public class %[1]sComputation extends BasicComputation<IntWritable, %[1]sValue, NullWritable, %[2]s> {",
	vertexCompute: "public void compute(Vertex<IntWritable, %[1]sValue, NullWritable> vertex, Iterable<%[2]s> messages) {",
	masterCase:    "case %d: {",
	vertexCase:    "case %d: { // vertex state %q",
	yield:         "_state = %d; return;",
	self:          "vertex.getValue().",
	edgeLoop:      "for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {",
	edgeTarget:    "e.getTargetVertexId()",
	edgeProp:      "e.getValue().",
	curNode:       "vertex.getId().get()",
	degree:        "vertex.getNumEdges()",
	vertexID:      "new IntWritable(%s)",
	globalRead:    "((%[1]sWritable) getAggregatedValue(%[2]q)).get()",
	globalWrite:   "setAggregatedValue(%[2]q, new %[1]sWritable(%[3]s));",
	contrib:       "aggregate(%[2]q, new %[1]sWritable(%[3]s));",
	result:        "// procedure result: %s",
}

// Java renders p as GPS-style Java source.
func Java(p *machine.Program) string { return render(p, gps) }

// Giraph renders p as Apache-Giraph-style Java source — the backend
// variant the paper mentions in its footnote 1 (Green-Marl compiled to
// Giraph, which also adopts the master.compute() API).
func Giraph(p *machine.Program) string { return render(p, giraph) }

func render(p *machine.Program, d *dialect) string {
	g := &gen{p: p, d: d, cn: className(p.Name), msg: "Message"}
	if d.giraph {
		g.msg = g.cn + "Message"
	}
	g.printf("// Generated by the Green-Marl → Pregel compiler from procedure %q.", p.Name)
	g.printf("// Target: %s.", d.target)
	sections := []func(){g.messageClass, g.valueClass, g.masterClass, g.vertexClass}
	if d.giraph {
		slices.Reverse(sections)
	}
	for _, section := range sections {
		g.printf("")
		section()
	}
	return g.b.String()
}

// CountLines returns the number of non-blank lines in src, the metric
// used by the paper's Table 2.
func CountLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

type gen struct {
	p      *machine.Program
	d      *dialect
	cn     string // class-name stem
	msg    string // message class name
	b      strings.Builder
	indent int
}

func (g *gen) printf(format string, args ...interface{}) {
	for i := 0; i < g.indent; i++ {
		g.b.WriteString("    ")
	}
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) open(format string, args ...interface{}) {
	g.printf(format, args...)
	g.indent++
}

func (g *gen) close(s string) {
	g.indent--
	g.printf("%s", s)
}

// Java spellings of each ir.Kind, indexed by KInt, KFloat, KBool, KNode.
var (
	javaTypes = [...]string{"long", "double", "boolean", "int"}
	ioNames   = [...]string{"Long", "Double", "Boolean", "Int"} // DataOutput/Writable stem
	zeros     = [...]string{"0", "0.0", "false", "-1"}
	// A message slot is a raw long; these convert a field to and from it.
	slotWrite  = [...]string{"out.writeLong(f%d);", "out.writeDouble(Double.longBitsToDouble(f%d));", "out.writeBoolean(f%d != 0);", "out.writeInt((int) f%d);"}
	slotRead   = [...]string{"f%d = in.readLong();", "f%d = Double.doubleToLongBits(in.readDouble());", "f%d = in.readBoolean() ? 1 : 0;", "f%d = in.readInt();"}
	slotEncode = [...]string{"%s", "Double.doubleToLongBits(%s)", "(%s) ? 1 : 0", "%s"}
	slotDecode = [...]string{"m.f%d", "Double.longBitsToDouble(m.f%d)", "(m.f%d != 0)", "(int) m.f%d"}
)

func className(name string) string {
	parts := strings.Split(name, "_")
	var b strings.Builder
	for _, p := range parts {
		if p == "" {
			continue
		}
		b.WriteString(strings.ToUpper(p[:1]) + p[1:])
	}
	return b.String()
}

// messageClass prints the single message class. GPS decodes each
// message type's fields from the raw slots; Giraph ships the slots raw.
func (g *gen) messageClass() {
	g.open("%sclass %s implements Writable {", g.d.pub, g.msg)
	multi := len(g.p.Msgs) > 1
	if multi {
		g.printf("%sbyte type;", g.d.pub)
	}
	slots := 0
	for _, m := range g.p.Msgs {
		slots = max(slots, len(m.Fields))
	}
	for i := 0; i < slots; i++ {
		g.printf(g.d.slotField, i)
	}
	g.open("public void write(DataOutput out) throws IOException {")
	if multi {
		g.printf("out.writeByte(type);")
	}
	g.slotIO(slots, slotWrite)
	g.close("}")
	g.open("public void readFields(DataInput in) throws IOException {")
	if multi {
		g.printf("type = in.readByte();")
	}
	g.slotIO(slots, slotRead)
	g.close("}")
	g.close("}")
}

func (g *gen) slotIO(slots int, calls [4]string) {
	typed := func(m machine.MsgSchema) string {
		parts := make([]string, len(m.Fields))
		for i, f := range m.Fields {
			parts[i] = fmt.Sprintf(calls[f], i)
		}
		return strings.Join(parts, " ")
	}
	switch {
	case g.d.giraph:
		for i := 0; i < slots; i++ {
			g.printf(calls[ir.KInt], i)
		}
	case len(g.p.Msgs) > 1:
		g.open("switch (type) {")
		for ti, m := range g.p.Msgs {
			g.printf("case %d: %s break;", ti, typed(m))
		}
		g.close("}")
	case len(g.p.Msgs) == 1:
		g.printf("%s", typed(g.p.Msgs[0]))
	}
}

func (g *gen) valueClass() {
	g.open(g.d.valueClass, g.cn)
	for _, pr := range g.p.Props {
		if !pr.IsEdge {
			g.printf("%s%s %s;", g.d.pub, javaTypes[pr.Kind], pr.Name)
		}
	}
	g.printf("%s", g.d.inNbrsField)
	g.open("public void write(DataOutput out) throws IOException {")
	for _, pr := range g.p.Props {
		if !pr.IsEdge {
			g.printf("out.write%s(%s);", ioNames[pr.Kind], pr.Name)
		}
	}
	g.close("}")
	g.open("public void readFields(DataInput in) throws IOException {")
	for _, pr := range g.p.Props {
		if !pr.IsEdge {
			g.printf("%s = in.read%s();", pr.Name, ioNames[pr.Kind])
		}
	}
	g.close("}")
	g.close("}")
}

func (g *gen) masterClass() {
	g.open(g.d.masterClass, g.cn)
	g.printf("int _state = %d;", g.p.Entry)
	for _, s := range g.p.Scalars {
		g.printf("%s %s;", javaTypes[s.Kind], s.Name)
	}
	g.printf("")
	if g.d.giraph {
		g.printf("@Override")
		g.open("public void initialize() throws InstantiationException, IllegalAccessException {")
		g.printf("registerPersistentAggregator(\"_state\", IntOverwriteAggregator.class);")
		for _, s := range g.p.Scalars {
			g.printf("registerPersistentAggregator(%q, %sOverwriteAggregator.class);", s.Name, ioNames[s.Kind])
		}
		for _, a := range g.p.Aggs {
			g.printf("registerAggregator(%q, %s%sAggregator.class);", a.Name, ioNames[a.Kind], aggSuffix(a.Op))
		}
		g.close("}")
		g.printf("")
		g.printf("@Override")
	}
	g.open("%s", g.d.masterCompute)
	g.open("while (true) {")
	g.open("switch (_state) {")
	for i, n := range g.p.Nodes {
		if n.Master != nil {
			g.open(g.d.masterCase, i)
			for _, s := range n.Master.Stmts {
				g.masterStmt(s)
			}
			switch n.Master.Term.Kind {
			case machine.TGoto:
				g.printf("_state = %d; break;", n.Master.Term.Then)
			case machine.TCond:
				g.printf("_state = (%s) ? %d : %d; break;",
					g.expr(n.Master.Term.Cond), n.Master.Term.Then, n.Master.Term.Else)
			case machine.THalt:
				g.printf("haltComputation(); return;")
			}
			g.close("}")
			continue
		}
		v := n.Vertex
		g.open(g.d.vertexCase, i, v.Name)
		g.printf(g.d.globalWrite, "Int", "_state", strconv.Itoa(i))
		for _, sc := range v.ReadScalars {
			s := g.p.Scalars[sc]
			g.printf(g.d.globalWrite, ioNames[s.Kind], s.Name, s.Name)
		}
		g.printf(g.d.yield, v.Next)
		g.close("}")
	}
	g.close("}")
	g.close("}")
	g.close("}")
	g.close("}")
}

func aggSuffix(op ast.AssignOp) string {
	switch op {
	case ast.OpAdd, ast.OpSub:
		return "Sum"
	case ast.OpMin:
		return "Min"
	case ast.OpMax:
		return "Max"
	case ast.OpAnd:
		return "And"
	case ast.OpOr:
		return "Or"
	default:
		return "Overwrite"
	}
}

func (g *gen) vertexClass() {
	g.open(g.d.vertexClass, g.cn, g.msg)
	if g.d.giraph {
		g.printf("")
		g.printf("@Override")
	}
	g.open(g.d.vertexCompute, g.cn, g.msg)
	g.printf("int _state = %s;", fmt.Sprintf(g.d.globalRead, "Int", "_state"))
	g.open("switch (_state) {")
	for i, n := range g.p.Nodes {
		vs := n.Vertex
		if vs == nil {
			continue
		}
		g.open("case %d: { // %s", i, vs.Name)
		locals := func() {
			for li, lk := range vs.Locals {
				g.printf("%s %s = %s;", javaTypes[lk], localName(vs, li), zeros[lk])
			}
		}
		if !g.d.giraph {
			locals()
		}
		for _, sc := range vs.ReadScalars {
			s := g.p.Scalars[sc]
			g.printf("%s %s = %s;", javaTypes[s.Kind], s.Name, fmt.Sprintf(g.d.globalRead, ioNames[s.Kind], s.Name))
		}
		if g.d.giraph {
			locals()
		}
		for _, s := range vs.Body {
			g.vertexStmt(s, vs)
		}
		g.printf("break;")
		g.close("}")
	}
	g.close("}")
	g.close("}")
	g.close("}")
}

// block prints stmts under an opened if, with an else branch when present.
func (g *gen) block(cond ir.Expr, then, els []ir.Stmt, stmt func(ir.Stmt)) {
	g.open("if (%s) {", g.expr(cond))
	for _, st := range then {
		stmt(st)
	}
	if len(els) > 0 {
		g.close("} else {")
		g.indent++
		for _, st := range els {
			stmt(st)
		}
	}
	g.close("}")
}

func (g *gen) masterStmt(s ir.Stmt) {
	switch s := s.(type) {
	case ir.SetScalar:
		g.printf("%s %s %s;", s.Name, opJava(s.Op), g.expr(s.RHS))
	case ir.FoldAgg:
		if g.d.giraph {
			g.printf("%s %s %s;", s.ScalarName, opJava(s.Op), fmt.Sprintf(g.d.globalRead, ioNames[g.p.Aggs[s.Agg].Kind], s.AggName))
			break
		}
		g.open("if (getGlobalObjectMap().hasUpdates(%q)) {", s.AggName)
		g.printf("%s %s getGlobalObjectMap().get(%q).getValue();", s.ScalarName, opJava(s.Op), s.AggName)
		g.close("}")
	case ir.If:
		g.block(s.Cond, s.Then, s.Else, g.masterStmt)
	case ir.Return:
		if s.Value != nil {
			g.printf(g.d.result, g.expr(s.Value))
		}
		g.printf("haltComputation(); return;")
	default:
		g.printf("// unsupported master statement %T", s)
	}
}

func (g *gen) vertexStmt(s ir.Stmt, vs *machine.VertexState) {
	switch s := s.(type) {
	case ir.SetLocal:
		g.printf("%s = %s;", localName(vs, s.Slot), g.expr(s.RHS))
	case ir.SetProp:
		g.propAssign(g.d.self+s.Name, s.Op, g.expr(s.RHS))
	case ir.ContribAgg:
		g.printf(g.d.contrib, ioNames[g.p.Aggs[s.Agg].Kind], s.Name, g.expr(s.RHS))
	case ir.SendToNbrs:
		g.open("%s", g.d.edgeLoop)
		if s.EdgeCond != nil {
			g.open("if (%s) {", g.expr(s.EdgeCond))
		}
		g.send(s.MsgType, s.Payload, g.d.edgeTarget)
		if s.EdgeCond != nil {
			g.close("}")
		}
		g.close("}")
	case ir.SendToInNbrs:
		g.open("for (int i = 0; i < %sin_nbrs.length; i++) {", g.d.self)
		g.send(s.MsgType, s.Payload, fmt.Sprintf(g.d.vertexID, g.d.self+"in_nbrs[i]"))
		g.close("}")
	case ir.CollectInNbrs:
		g.printf("%sin_nbrs = collectSenderIds(messages);", g.d.self)
	case ir.SendTo:
		target := g.expr(s.Target)
		g.open("if ((%s) != -1) {", target)
		g.send(s.MsgType, s.Payload, fmt.Sprintf(g.d.vertexID, target))
		g.close("}")
	case ir.ForMsgs:
		g.open("for (%s m : messages) {", g.msg)
		if len(g.p.Msgs) > 1 {
			g.open("if (m.type == %d) {", s.MsgType)
		}
		for _, st := range s.Body {
			g.vertexStmt(st, vs)
		}
		if len(g.p.Msgs) > 1 {
			g.close("}")
		}
		g.close("}")
	case ir.If:
		g.block(s.Cond, s.Then, s.Else, func(st ir.Stmt) { g.vertexStmt(st, vs) })
	default:
		g.printf("// unsupported vertex statement %T", s)
	}
}

// send builds one message of type mt and sends it to target.
func (g *gen) send(mt int, payload []ir.Expr, target string) {
	g.printf("%s m = new %s();", g.msg, g.msg)
	for i, pe := range payload {
		g.printf("m.f%d = %s;", i, fmt.Sprintf(slotEncode[g.p.Msgs[mt].Fields[i]], g.expr(pe)))
	}
	g.printf("sendMessage(%s, m);", target)
}

func (g *gen) propAssign(lhs string, op ast.AssignOp, rhs string) {
	switch op {
	case ast.OpSet:
		g.printf("%s = %s;", lhs, rhs)
	case ast.OpAdd, ast.OpSub, ast.OpMul:
		g.printf("%s %s %s;", lhs, opJava(op), rhs)
	case ast.OpMin:
		g.printf("%s = Math.min(%s, %s);", lhs, lhs, rhs)
	case ast.OpMax:
		g.printf("%s = Math.max(%s, %s);", lhs, lhs, rhs)
	case ast.OpAnd:
		g.printf("%s = %s && %s;", lhs, lhs, rhs)
	case ast.OpOr:
		g.printf("%s = %s || %s;", lhs, lhs, rhs)
	}
}

func opJava(op ast.AssignOp) string {
	switch op {
	case ast.OpAdd:
		return "+="
	case ast.OpSub:
		return "-="
	case ast.OpMul:
		return "*="
	default:
		return "="
	}
}

func localName(vs *machine.VertexState, slot int) string {
	if slot < len(vs.LocalNames) {
		return vs.LocalNames[slot]
	}
	return fmt.Sprintf("local%d", slot)
}

func (g *gen) expr(e ir.Expr) string {
	switch e := e.(type) {
	case nil:
		return "true"
	case ir.Const:
		return constJava(e.V)
	case ir.ScalarRef:
		return e.Name
	case ir.LocalRef:
		return e.Name
	case ir.PropRef:
		return g.d.self + e.Name
	case ir.EdgePropRef:
		return g.d.edgeProp + e.Name
	case ir.CurNode:
		return g.d.curNode
	case ir.MsgField:
		return fmt.Sprintf(slotDecode[e.K], e.Idx)
	case ir.AggRef:
		return fmt.Sprintf("getGlobalObjectMap().get(%q).getValue()", e.Name)
	case ir.Builtin:
		switch e.Op {
		case ir.BNumNodes:
			return "getTotalNumVertices()"
		case ir.BNumEdges:
			return "getTotalNumEdges()"
		case ir.BDegree:
			return g.d.degree
		case ir.BPickRandom:
			return "pickRandomVertex()"
		case ir.BNodeId:
			return g.d.curNode
		}
	case ir.Binary:
		return fmt.Sprintf("(%s %s %s)", g.expr(e.L), e.Op, g.expr(e.R))
	case ir.Unary:
		if e.Op == ast.UnNot {
			return "!" + g.expr(e.X)
		}
		return "-" + g.expr(e.X)
	case ir.Ternary:
		return fmt.Sprintf("(%s ? %s : %s)", g.expr(e.Cond), g.expr(e.Then), g.expr(e.Else))
	}
	return fmt.Sprintf("/* %T */", e)
}

func constJava(v ir.Value) string {
	switch v.K {
	case ir.KFloat:
		switch f := v.F; {
		case math.IsInf(f, 1):
			return "Double.POSITIVE_INFINITY"
		case math.IsInf(f, -1):
			return "Double.NEGATIVE_INFINITY"
		case math.IsNaN(f):
			return "Double.NaN"
		}
		// A Java literal without '.' or an exponent is an int or long.
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	case ir.KBool:
		return strconv.FormatBool(v.I != 0)
	case ir.KNode:
		return strconv.FormatInt(v.I, 10)
	}
	if v.I == math.MaxInt64 {
		return "Long.MAX_VALUE"
	}
	return fmt.Sprintf("%dL", v.I)
}
