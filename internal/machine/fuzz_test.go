package machine_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gmpregel/internal/core"
	"gmpregel/internal/machine"
)

// FuzzDecodeProgram feeds arbitrary bytes to the artifact decoder
// (gmpregel.LoadArtifact reads artifacts through it). It must return a
// program or an error, never panic, and an accepted program must
// re-encode to bytes that decode to an equal program: one whose own
// encoding is byte-identical (a float constant may be a NaN, so
// equality is judged on the encoding, which keeps its bits). The seeds
// are the nine testdata programs, compiled and encoded, and the
// malformed artifacts serialize_test.go rejects. Run with
// `go test -fuzz FuzzDecodeProgram ./internal/machine`; in normal test
// runs the seed corpus executes.
func FuzzDecodeProgram(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/*.gm")
	if err != nil || len(paths) != 9 {
		f.Fatalf("found %d testdata programs (%v), want 9", len(paths), err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		c, err := core.Compile(string(src), core.Options{})
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		data, err := machine.EncodeProgram(c.Program)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(data)
	}
	for _, s := range machine.MalformedArtifacts() {
		f.Add([]byte(s))
	}
	f.Add([]byte(machine.DeepLogicArtifact(64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // keep single iterations fast
		}
		p, err := machine.DecodeProgram(data)
		if err != nil {
			return
		}
		enc, err := machine.EncodeProgram(p)
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		q, err := machine.DecodeProgram(enc)
		if err != nil {
			t.Fatalf("re-encoded artifact is rejected: %v\n%s", err, enc)
		}
		again, err := machine.EncodeProgram(q)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoded artifact decodes to a different program (%v):\n%s\n---\n%s", err, enc, again)
		}
	})
}
