package machine

import (
	"gmpregel/internal/graph"
	"gmpregel/internal/pregel"
)

// ExecSchema is the Schema a run of p on g with b declares to the
// engine, for the external tests.
func ExecSchema(p *Program, g *graph.Directed, b Bindings) (pregel.Schema, error) {
	ex, err := newExec(p, g, b, pregel.Config{}, RunOptions{})
	if err != nil {
		return pregel.Schema{}, err
	}
	return ex.Schema(), nil
}

// MalformedArtifacts returns the artifacts TestDecodeRejectsMalformed
// requires DecodeProgram to reject, for the external fuzz seeds.
func MalformedArtifacts() []string {
	out := make([]string, len(malformedArtifacts))
	for i, c := range malformedArtifacts {
		out[i] = c.json
	}
	return out
}

// DeepLogicArtifact is deepLogicArtifact, for the external fuzz seeds.
func DeepLogicArtifact(n int) string { return deepLogicArtifact(n) }
