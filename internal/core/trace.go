// Package core implements the paper's primary contribution: the compiler
// that turns imperative Green-Marl programs into Pregel (GPS) programs.
//
// The pipeline mirrors the paper's Figure 1:
//
//	AST → normalize (bulk assigns, group reductions, random access in
//	sequential phase, BFS lowering) → canonicalize (dissect nested loops,
//	flip edges) → Pregel-canonical check → translate (state machine,
//	global objects, neighborhood/multiple/random-write communication,
//	edge properties, incoming-neighbor prologue, message classes) →
//	optimize (state merging, intra-loop state merging) → machine.Program.
//
// Every rule application is recorded in a Trace, which regenerates the
// paper's Table 3.
package core

import "strings"

// Rule identifies one translation/transformation rule of the paper
// (§3.1, §4.1, §4.2, §4.3).
type Rule int

// The paper's rules, in Table 3 order.
const (
	RuleStateMachine Rule = iota
	RuleGlobalObject
	RuleNeighborhoodComm
	RuleMultipleComm
	RuleRandomWrite
	RuleEdgeProperty
	RuleFlipEdges
	RuleDissectLoops
	RuleRandomAccessSeq
	RuleBFSTraversal
	RuleStateMerging
	RuleIntraLoopMerge
	RuleIncomingNbrs
	RuleMessageClassGen

	numRules
)

var ruleNames = [...]string{
	"State Machine Const.",
	"Global Object",
	"Neighborhood Comm.",
	"Multiple Comm.",
	"Random Writing",
	"Edge Property",
	"Flipping Edge",
	"Dissecting Loops",
	"Random Access (Seq.)",
	"BFS Traversal",
	"State Merging",
	"Intra-Loop Merge",
	"Incoming Neighbors",
	"Message Class Gen.",
}

// String returns the paper's name for the rule.
func (r Rule) String() string { return ruleNames[r] }

// Rules lists all rules in Table 3 order.
func Rules() []Rule {
	rs := make([]Rule, numRules)
	for i := range rs {
		rs[i] = Rule(i)
	}
	return rs
}

// Trace records which rules fired during a compilation, with counts.
type Trace struct {
	counts [numRules]int
}

// Record notes one application of r.
func (t *Trace) Record(r Rule) { t.counts[r]++ }

// Applied reports whether r fired at least once.
func (t *Trace) Applied(r Rule) bool { return t.counts[r] > 0 }

// Count returns how many times r fired.
func (t *Trace) Count(r Rule) int { return t.counts[r] }

// String renders the trace as a checklist.
func (t *Trace) String() string {
	var b strings.Builder
	for _, r := range Rules() {
		mark := " "
		if t.Applied(r) {
			mark = "x"
		}
		b.WriteString("[" + mark + "] " + r.String() + "\n")
	}
	return b.String()
}
