package analysis

import "sort"

// CodeInfo is one entry in the central diagnostic-code registry: the
// stable code, its default severity, and a one-line summary matching
// docs/ANALYSIS.md.
type CodeInfo struct {
	Code     string
	Severity Severity
	Summary  string
}

// CodeTable is the central registry of every stable GMxxxx diagnostic
// code. The package's tests (codes_test.go) require that the table, the
// Code* constants in diag.go, and docs/ANALYSIS.md agree: every constant
// is declared once, registered exactly once and documented, and no
// diagnostic is built from an unregistered string literal. Adding a code
// means adding the constant, a row here, and a docs/ANALYSIS.md entry.
var CodeTable = []CodeInfo{
	{CodeParse, SevError, "source does not parse"},
	{CodeOther, SevError, "compile failure without a source position, or an internal one"},
	{CodeSema, SevError, "semantic (name/type) error"},
	{CodeWriteConflict, SevWarning, "parallel plain-write conflict (one write wins)"},
	{CodeCrossStepHazard, SevWarning, "cross-superstep read-after-write hazard"},
	{CodeUnusedProp, SevWarning, "property declared but never used"},
	{CodeDeadWrite, SevWarning, "property written but never read"},
	{CodePayload, SevInfo, "message payload estimate for a communication"},
	{CodeHazardPayload, SevWarning, "hazard forces a wider message"},
	{CodePayloadOverflow, SevError, "payload exceeds the engine's slot budget"},
	{CodeLoopDissect, SevInfo, "sequential loop forces dissection / merge barrier"},
	{CodeIncomingComm, SevInfo, "incoming-edge communication (flip / in-nbr prologue)"},
	{CodeRandomWrite, SevInfo, "random write lowers to a directed message"},
	{CodeRandomAccess, SevInfo, "sequential random access lowers to a filtered loop"},
	{CodeBFS, SevInfo, "InBFS lowers to level-synchronous supersteps"},
	{CodeParallelNest, SevError, "whole-graph or misplaced neighborhood work"},
	{CodeCondPull, SevError, "message pull or neighborhood reduction under a condition"},
	{CodeEdgePull, SevError, "edge property in a message pull or an in-edge push"},
	{CodeDeepNest, SevError, "nested neighbor iteration"},
	{CodeUnsupported, SevError, "construct without a Pregel translation"},
}

// LookupCode returns the registry entry for a code.
func LookupCode(code string) (CodeInfo, bool) {
	for _, ci := range CodeTable {
		if ci.Code == code {
			return ci, true
		}
	}
	return CodeInfo{}, false
}

// RegisteredCodes returns every registered code, sorted.
func RegisteredCodes() []string {
	out := make([]string, len(CodeTable))
	for i, ci := range CodeTable {
		out[i] = ci.Code
	}
	sort.Strings(out)
	return out
}
