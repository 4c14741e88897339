package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"gmpregel/internal/gm/token"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, from least to most severe.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

var severityNames = [...]string{"info", "warning", "error"}

func (s Severity) String() string {
	if s < SevInfo || s > SevError {
		return "unknown"
	}
	return severityNames[s]
}

// ParseSeverity converts a rendered severity name back to its value.
func ParseSeverity(name string) (Severity, error) {
	for i, n := range severityNames {
		if n == name {
			return Severity(i), nil
		}
	}
	return SevInfo, fmt.Errorf("analysis: unknown severity %q", name)
}

// Stable diagnostic codes. Each code identifies one class of finding and
// never changes meaning (docs/ANALYSIS.md catalogues them). The
// compiler (internal/core) alone emits GM4003, GM5006..GM5009 and GM5011:
// its rejections of programs outside the Pregel-canonical fragment.
const (
	CodeParse = "GM0001" // source does not parse
	CodeOther = "GM0002" // compile failure without a position, or an internal one
	CodeSema  = "GM1001" // semantic (name/type) error

	CodeWriteConflict   = "GM2001" // parallel plain-write conflict ("one write wins")
	CodeCrossStepHazard = "GM2002" // cross-superstep read-after-write hazard

	CodeUnusedProp = "GM3001" // property declared but never used
	CodeDeadWrite  = "GM3002" // property written but never read

	CodePayload         = "GM4001" // message payload estimate for a communication
	CodeHazardPayload   = "GM4002" // hazard forces a wider message
	CodePayloadOverflow = "GM4003" // payload exceeds the engine's slot budget

	CodeLoopDissect  = "GM5001" // sequential loop forces dissection / merge barrier
	CodeIncomingComm = "GM5002" // incoming-edge communication (flip / in-nbr prologue)
	CodeRandomWrite  = "GM5003" // random write lowers to a directed message
	CodeRandomAccess = "GM5004" // sequential random access lowers to a filtered loop
	CodeBFS          = "GM5005" // InBFS lowers to level-synchronous supersteps
	CodeParallelNest = "GM5006" // whole-graph or misplaced neighborhood work
	CodeCondPull     = "GM5007" // message pull or neighborhood reduction under a condition
	CodeEdgePull     = "GM5008" // edge property in a message pull or an in-edge push
	CodeDeepNest     = "GM5009" // nested neighbor iteration
	CodeUnsupported  = "GM5011" // construct without a Pregel translation (GM5010 is retired)
)

// Diagnostic is one finding: a stable code, a severity, the source
// position it anchors to, a message, and an optional fix hint. The
// compiler returns its rejection of a program as a *Diagnostic error.
type Diagnostic struct {
	Code     string
	Severity Severity
	Pos      token.Pos
	Msg      string
	Hint     string // optional suggestion for fixing the finding
}

// String renders the diagnostic on one line: "line:col: severity CODE: msg".
func (d Diagnostic) String() string {
	pos := "-"
	if d.Pos.IsValid() {
		pos = d.Pos.String()
	}
	return fmt.Sprintf("%s: %s %s: %s", pos, d.Severity, d.Code, d.Msg)
}

// Error renders the diagnostic as the compiler reports it when it
// rejects a program: "line:col: msg", or msg alone without a position.
func (d *Diagnostic) Error() string {
	if !d.Pos.IsValid() {
		return d.Msg
	}
	return d.Pos.String() + ": " + d.Msg
}

// jsonDiag is the wire form of a Diagnostic; severity renders as its
// name and the position as explicit line/col so the JSON is self-
// describing for external tooling.
type jsonDiag struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Hint     string `json:"hint,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonDiag{
		Code: d.Code, Severity: d.Severity.String(),
		Line: d.Pos.Line, Col: d.Pos.Col,
		Message: d.Msg, Hint: d.Hint,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Diagnostic) UnmarshalJSON(data []byte) error {
	var j jsonDiag
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	sev, err := ParseSeverity(j.Severity)
	if err != nil {
		return err
	}
	*d = Diagnostic{
		Code: j.Code, Severity: sev,
		Pos: token.Pos{Line: j.Line, Col: j.Col},
		Msg: j.Message, Hint: j.Hint,
	}
	return nil
}

// List is an ordered collection of diagnostics.
type List []Diagnostic

// Sort orders the list by position, then code, then message, so output
// is deterministic regardless of analysis order.
func (l List) Sort() {
	sort.SliceStable(l, func(i, j int) bool {
		a, b := l[i], l[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// Counts tallies the list by severity.
func (l List) Counts() (errors, warnings, infos int) {
	for _, d := range l {
		switch d.Severity {
		case SevError:
			errors++
		case SevWarning:
			warnings++
		default:
			infos++
		}
	}
	return
}

// HasErrors reports whether any diagnostic is an error.
func (l List) HasErrors() bool {
	e, _, _ := l.Counts()
	return e > 0
}

// HasWarnings reports whether any diagnostic is a warning.
func (l List) HasWarnings() bool {
	_, w, _ := l.Counts()
	return w > 0
}

// Codes returns the distinct diagnostic codes present, sorted.
func (l List) Codes() []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range l {
		if !seen[d.Code] {
			seen[d.Code] = true
			out = append(out, d.Code)
		}
	}
	sort.Strings(out)
	return out
}

// Text renders the list for a terminal: one line per diagnostic plus an
// indented hint line when present.
func (l List) Text() string {
	var b strings.Builder
	for _, d := range l {
		b.WriteString(d.String())
		b.WriteByte('\n')
		if d.Hint != "" {
			b.WriteString("    hint: " + d.Hint + "\n")
		}
	}
	return b.String()
}

// Report is the JSON envelope of a diagnostic run.
type Report struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Errors      int          `json:"errors"`
	Warnings    int          `json:"warnings"`
	Infos       int          `json:"infos"`
	WarningFree bool         `json:"warning_free"`
}

// Report wraps the list in its JSON envelope with severity totals.
func (l List) Report() Report {
	e, w, i := l.Counts()
	diags := []Diagnostic(l)
	if diags == nil {
		diags = []Diagnostic{} // render as [] rather than null
	}
	return Report{Diagnostics: diags, Errors: e, Warnings: w, Infos: i, WarningFree: e == 0 && w == 0}
}

// JSON renders the list as an indented JSON report that DecodeJSON (or
// any encoding/json client) can parse back.
func (l List) JSON() ([]byte, error) {
	return json.MarshalIndent(l.Report(), "", "  ")
}

// DecodeJSON parses a report produced by JSON back into a List.
func DecodeJSON(data []byte) (List, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("analysis: decoding report: %w", err)
	}
	return List(r.Diagnostics), nil
}
