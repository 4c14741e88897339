package main

import (
	"fmt"
	"strings"
	"time"

	"gmpregel/internal/codegen"
	"gmpregel/internal/core"
	"gmpregel/internal/gm/analysis"
	"gmpregel/internal/gm/parser"
	"gmpregel/internal/gm/sema"
	"gmpregel/internal/machine"
)

// corpusProgram is one input program of compile-corpus with the
// reference compilation every timed pass is checked against.
type corpusProgram struct {
	name   string
	source string
	hash   string
}

// readCorpus loads the nine programs in name order (ReadDir sorts).
func readCorpus() []corpusProgram {
	entries, err := corpusFS.ReadDir("corpus")
	if err != nil {
		panic(err) // the corpus is compiled in; a missing directory is a build defect
	}
	var progs []corpusProgram
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".gm")
		progs = append(progs, corpusProgram{name: name, source: corpusSource(name)})
	}
	return progs
}

// pinCorpus checksums the corpus text; Nodes counts programs and Edges
// bytes, there being no graph.
func pinCorpus() pin {
	progs := readCorpus()
	h := newHasher()
	var bytes int64
	for _, p := range progs {
		h.text(p.name)
		h.text(p.source)
		bytes += int64(len(p.source))
	}
	return pin{Nodes: len(progs), Edges: bytes, Checksum: h.sum()}
}

// compilePass compiles every program from text, timing only the
// core.Compile calls, then checks each program's hash outside the timed
// region.
func compilePass(progs []corpusProgram, c *runCtx, rec *recorder, trace string) (time.Duration, error) {
	compiled := make([]*core.Compiled, len(progs))
	root := rec.begin(trace, nil, "benchmark", "pass")
	start := time.Now()
	for i, p := range progs {
		sp := rec.begin(trace, root, "core", "core.Compile:"+p.name)
		cc, err := core.Compile(p.source, core.Options{})
		sp.end(nil)
		if err != nil {
			return 0, fmt.Errorf("compile %s: %w", p.name, err)
		}
		compiled[i] = cc
	}
	wall := time.Since(start)
	root.end(nil)
	for i, p := range progs {
		c.res.attempted++
		h, err := compiled[i].Hash()
		if err != nil {
			return 0, fmt.Errorf("hash %s: %w", p.name, err)
		}
		if h != p.hash {
			c.res.fail("%s: %s compiled to %s, reference pass gave %s", trace, p.name, h, p.hash)
		}
	}
	return wall, nil
}

// setupCorpus is compile-corpus's set-up: read the corpus, take the
// reference compilation of each program (its hash must survive an
// encode/decode round trip), and run the warm passes.
func setupCorpus(c *runCtx, warm int) ([]corpusProgram, error) {
	progs := readCorpus()
	for i := range progs {
		p := &progs[i]
		cc, err := core.Compile(p.source, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.name, err)
		}
		if p.hash, err = cc.Hash(); err != nil {
			return nil, err
		}
		data, err := machine.EncodeProgram(cc.Program)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", p.name, err)
		}
		decoded, err := machine.DecodeProgram(data)
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", p.name, err)
		}
		c.res.attempted++
		if h, err := core.ProgramHash(decoded); err != nil || h != p.hash {
			c.res.fail("%s: hash %s does not survive encode/decode (got %s, err %v)", p.name, p.hash, h, err)
		}
	}
	for i := 0; i < warm; i++ {
		if _, err := compilePass(progs, c, nil, "warm"); err != nil {
			return nil, err
		}
	}
	return progs, nil
}

func runCompileCorpus(c *runCtx) error {
	warm, setups, minPasses := 100, setupRuns, 2000
	if c.smoke {
		warm, setups, minPasses = 2, 1, 20
	}
	if c.traced {
		setups = 1
	}
	var progs []corpusProgram
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if progs, err = setupCorpus(c, warm); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	c.res.set("setup_s", median(setupS), len(setupS))
	if err := checkPin("compile-corpus", c.smoke, c.seed, pinCorpus()); err != nil {
		return err
	}

	untracedFor := c.seconds
	if c.traced {
		untracedFor = c.seconds / 2
	}
	var passMS []float64
	begin := time.Now()
	for len(passMS) < minPasses || time.Since(begin).Seconds() < untracedFor {
		wall, err := compilePass(progs, c, nil, "pass")
		if err != nil {
			return err
		}
		passMS = append(passMS, float64(wall.Nanoseconds())/1e6)
	}
	total := 0.0
	for _, ms := range passMS {
		total += ms
	}
	n := len(passMS)
	c.res.set("op_ms", median(passMS), n)
	c.res.set("rate_per_s", float64(n)*1e3/total, n)
	c.res.set("compile_ms", median(passMS), n)
	c.res.set("compile_p99_ms", percentile(passMS, 99), n)
	if !c.traced {
		return nil
	}
	return traceCompileCorpus(progs, c, passMS)
}

// traceCompileCorpus is the traced run: layered passes that call each
// front-end module's public function on its own, wrapped in spans, and
// traced plain passes whose wall against the untraced ones is the
// tracing overhead.
func traceCompileCorpus(progs []corpusProgram, c *runCtx, untracedMS []float64) error {
	passes := 200
	if c.smoke {
		passes = 3
	}
	layers := []string{"parser", "sema", "analysis", "core", "codegen", "encode", "decode"}
	perPass := map[string][]float64{}
	var rules, states, msgTypes, javaLines, artifactBytes int
	for pass := 0; pass < passes; pass++ {
		trace := fmt.Sprintf("layers%d", pass)
		us := map[string]float64{}
		rules, states, msgTypes, javaLines, artifactBytes = 0, 0, 0, 0, 0
		root := c.rec.begin(trace, nil, "benchmark", "layered-pass")
		for _, p := range progs {
			// lap opens a span around the next call; calling the returned
			// func closes it and books the time to the layer.
			lap := func(layer, name string) func() {
				sp := c.rec.begin(trace, root, layer, name+":"+p.name)
				return func() { us[name] += float64(sp.end(nil).Nanoseconds()) / 1e3 }
			}
			done := lap("gm/parser", "parser")
			proc, err := parser.ParseProcedure(p.source)
			done()
			if err != nil {
				return fmt.Errorf("parse %s: %w", p.name, err)
			}
			done = lap("gm/sema", "sema")
			info, err := sema.Check(proc)
			done()
			if err != nil {
				return fmt.Errorf("sema %s: %w", p.name, err)
			}
			done = lap("gm/analysis", "analysis")
			analysis.AnalyzeProcedure(proc, info)
			done()
			done = lap("core", "core")
			cc, err := core.CompileProcedure(proc, core.Options{})
			done()
			if err != nil {
				return fmt.Errorf("compile %s: %w", p.name, err)
			}
			done = lap("codegen", "codegen")
			java := codegen.Java(cc.Program)
			done()
			done = lap("machine", "encode")
			data, err := machine.EncodeProgram(cc.Program)
			done()
			if err != nil {
				return fmt.Errorf("encode %s: %w", p.name, err)
			}
			done = lap("machine", "decode")
			_, err = machine.DecodeProgram(data)
			done()
			if err != nil {
				return fmt.Errorf("decode %s: %w", p.name, err)
			}
			for _, r := range core.Rules() {
				rules += cc.Trace.Count(r)
			}
			states += cc.Program.NumVertexStates()
			msgTypes += len(cc.Program.Msgs)
			javaLines += codegen.CountLines(java)
			artifactBytes += len(data)
		}
		root.end(map[string]int64{
			"rules_fired": int64(rules), "states": int64(states), "msg_types": int64(msgTypes),
			"java_lines": int64(javaLines), "artifact_bytes": int64(artifactBytes),
		})
		// core.CompileProcedure runs sema and the analyses itself; what is
		// left after taking the standalone calls out is the transformation
		// and translation work of package core.
		us["core"] -= us["sema"] + us["analysis"]
		for _, l := range layers {
			perPass[l] = append(perPass[l], us[l])
		}
	}
	c.res.set("parser.us", median(perPass["parser"]), passes)
	c.res.set("sema.us", median(perPass["sema"]), passes)
	c.res.set("analysis.us", median(perPass["analysis"]), passes)
	c.res.set("core.us", median(perPass["core"]), passes)
	c.res.set("codegen.us", median(perPass["codegen"]), passes)
	c.res.set("machine.encode_us", median(perPass["encode"]), passes)
	c.res.set("machine.decode_us", median(perPass["decode"]), passes)
	c.res.set("core.rules_fired", float64(rules), 1)
	c.res.set("core.states", float64(states), 1)
	c.res.set("core.msg_types", float64(msgTypes), 1)
	c.res.set("codegen.java_lines", float64(javaLines), 1)
	c.res.set("machine.artifact_bytes", float64(artifactBytes), 1)

	var tracedMS []float64
	for pass := 0; pass < passes; pass++ {
		wall, err := compilePass(progs, c, c.rec, fmt.Sprintf("pass%d", pass))
		if err != nil {
			return err
		}
		tracedMS = append(tracedMS, float64(wall.Nanoseconds())/1e6)
	}
	c.res.set("obs.trace_overhead", median(tracedMS)/median(untracedMS), passes)
	// One pass's spans are a root and nine sequential children, so self
	// times sum to the root by construction; report it all the same.
	spans := c.rec.spans[len(c.rec.spans)-len(progs)-1:]
	var selfSum int64
	for _, ns := range selfTimes(spans) {
		selfSum += ns
	}
	c.res.set("obs.self_time_cover", float64(selfSum)/float64(spans[0].DurNS), 1)
	return nil
}
