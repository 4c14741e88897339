// Command benchmark is the repository's one performance benchmark: five
// named workloads, a fixed set of end-to-end metrics with regression
// bounds, a per-layer table timed from outside each module's public
// functions, and a separate traced run. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	go run ./benchmark -workload NAME -seed S -seconds T -trace 0|1
//	go run ./benchmark -repeat 2     # self-check: spread of every metric against its bound
//	go run ./benchmark -pin          # regenerate expected.json on stdout
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

//go:embed corpus/*.gm
var corpusFS embed.FS

// corpusSource returns one corpus program's text.
func corpusSource(name string) string {
	data, err := corpusFS.ReadFile("corpus/" + name + ".gm")
	if err != nil {
		panic(err) // the corpus is compiled in; a missing file is a build defect
	}
	return string(data)
}

// setupRuns is how often an untraced run repeats its set-up, so that
// setup_s is a median: the driver compares set-up time across commits.
const setupRuns = 5

// runCtx is what a workload run is given.
type runCtx struct {
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	// wn is the worker and client count of the parallel arms.
	wn int
	// rec is the span recorder, nil unless traced.
	rec *recorder
	res *result
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	run  func(c *runCtx) error
	// pin computes the workload's expected.json entry.
	pin func(smoke bool) pin
}

var workloads = []workload{
	{
		name: "compile-corpus",
		why:  "nine Green-Marl programs compiled from text, no graph: front-end time shows here and nowhere else",
		run:  runCompileCorpus,
		pin:  func(bool) pin { return pinCorpus() },
	},
	engineWorkload("pagerank-web", "pagerank", &pageRank{},
		"all vertices active every superstep, float messages, sum combiner: the engine's send/route/barrier path dominates"),
	engineWorkload("sssp-social", "sssp", &sssp{},
		"sparse frontier with edge lengths; generated code runs every vertex where manual votes to halt: the paper's worst case"),
	engineWorkload("bipartite-match", "bipartite", &bipartite{},
		"random point-to-point writes, three message types, no combiner, shrinking active set: most state dispatch per message"),
	{
		name: "serve-mix",
		why:  "closed loop of Wn HTTP clients on a 60/25/15 hit/nocache/source mix: admission, cache, bind and encode, not the engine",
		run:  runServeMix,
		pin:  pinServeMix,
	},
}

func engineWorkload(name, program string, a algorithm, why string) workload {
	return workload{
		name: name,
		why:  why,
		run:  func(c *runCtx) error { return runEngine(name, corpusSource(program), a, c) },
		pin: func(smoke bool) pin {
			g, boys := a.build(smoke, defaultSeed)
			return pinGraph(g, makeInputs(g, boys, defaultSeed+7))
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// wn is min(NumCPU, 4): the load never uses more engine workers or HTTP
// clients than this.
func wn() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// environment is the block printed with every result.
type environment struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Wn         int    `json:"wn"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Traced     bool   `json:"traced"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // go run outside a git checkout stamps no revision
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runWorkload runs one workload in this process and prints its result.
// The trace of a traced run is written to traceDir.
func runWorkload(out io.Writer, w workload, seed int64, seconds float64, traced, smoke bool, traceDir string) (*result, error) {
	if smoke {
		seconds = 0 // the floors alone: one round, 20 passes, 40 requests per client
	}
	c := &runCtx{seed: seed, seconds: seconds, traced: traced, smoke: smoke, wn: wn(), res: newResult()}
	if traced {
		c.rec = newRecorder()
	}
	env, err := json.Marshal(environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Wn: c.wn, GoVersion: runtime.Version(),
		Commit: gitCommit(), Seed: seed, Workload: w.name, Traced: traced, Smoke: smoke,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "env %s\n", env)
	if err := w.run(c); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	c.res.set("peak_rss_mb", rss, 1)
	c.res.set("fail_share", float64(c.res.failed)/float64(c.res.attempted), c.res.attempted)
	defs := endToEnd
	if traced {
		defs = perLayer
		path := filepath.Join(traceDir, "trace-"+w.name+".jsonl")
		if err := c.rec.writeJSONL(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace %s spans=%d\n", path, len(c.rec.spans))
	} else {
		// The workload's own end-to-end names, for the reader; the driver
		// reads the three uniform ones from the last line.
		for _, d := range perLayer {
			if v, ok := c.res.values[d.Name]; ok && !strings.Contains(d.Name, ".") {
				fmt.Fprintf(out, "named  %-28s %16.6f %-6s n=%d\n", d.Name, v, d.Unit, c.res.samples[d.Name])
			}
		}
	}
	return c.res, c.res.report(out, defs)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", defaultSeed, "seed for the generator, inputs and request mix")
		seconds = flag.Float64("seconds", 16, "how long the timed rounds measure")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.jsonl")
		smoke   = flag.Bool("smoke", false, "tiny inputs and one round, for the smoke test")
		repeat  = flag.Int("repeat", 0, "self-check: run every workload N times in fresh processes and print each metric's spread against its bound")
		pins    = flag.Bool("pin", false, "print expected.json for the default seed and exit")
	)
	flag.Parse()
	switch {
	case *pins:
		if err := printPins(os.Stdout); err != nil {
			fatal(err)
		}
	case *repeat > 0:
		exceeded, err := selfCheck(os.Stdout, *repeat, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		if exceeded {
			os.Exit(1)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
		}
		res, err := runWorkload(os.Stdout, w, *seed, *seconds, *trace == 1, *smoke, ".")
		if err != nil {
			fatal(err)
		}
		if res.failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printPins writes the expected.json content: every workload's pin at
// full and smoke size for the default seed.
func printPins(out io.Writer) error {
	pins := map[string]pin{}
	for _, w := range workloads {
		for _, smoke := range []bool{false, true} {
			pins[pinKey(w.name, smoke)] = w.pin(smoke)
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

// selfCheck runs the full set of workloads n times, each run in a fresh
// process of this executable, and prints for every end-to-end metric the
// relative spread (max-min)/median of its n values against its bound:
// ok below a third of the bound, unresolved up to the bound (a
// regression of bound size could hide in the noise), exceeds above it.
// Exact-count layer metrics must repeat exactly. It reports whether any
// metric exceeded.
func selfCheck(out io.Writer, n int, seed int64, seconds float64) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	exceeded := false
	for _, w := range workloads {
		values := map[string][]float64{}
		for set := 0; set < n; set++ {
			for _, traced := range []string{"0", "1"} {
				metrics, err := runChild(exe, w.name, seed, seconds, traced)
				if err != nil {
					return false, fmt.Errorf("%s set %d trace %s: %w", w.name, set, traced, err)
				}
				for name, v := range metrics {
					values[name] = append(values[name], v)
				}
			}
		}
		for _, d := range endToEnd {
			spread := relSpread(values[d.Name])
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict, exceeded = "exceeds", true
			case spread > d.Bound/3:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-16s %-14s median=%-14.6g spread=%.4f bound=%.2f %s\n",
				w.name, d.Name, median(values[d.Name]), spread, d.Bound, verdict)
		}
		var drifted []string
		for _, d := range perLayer {
			if d.Exact && relSpread(values[d.Name]) != 0 {
				drifted = append(drifted, d.Name)
			}
		}
		if len(drifted) > 0 {
			exceeded = true
			fmt.Fprintf(out, "%-16s exact counts differ between sets: %s\n", w.name, strings.Join(drifted, ", "))
		} else {
			fmt.Fprintf(out, "%-16s exact-count layer metrics identical across %d sets\n", w.name, n)
		}
	}
	return exceeded, nil
}

// runChild runs one workload in a fresh process and returns the metric
// values of its last output line.
func runChild(exe, workload string, seed int64, seconds float64, traced string) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traced)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	last := strings.TrimSpace(string(stdout))
	last = last[strings.LastIndexByte(last, '\n')+1:]
	var parsed struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &parsed); err != nil {
		return nil, fmt.Errorf("last output line is not the result object: %w", err)
	}
	if !parsed.Correct {
		return nil, fmt.Errorf("run reported incorrect outputs")
	}
	values := map[string]float64{}
	for name, m := range parsed.Metrics {
		values[name] = m.Value
	}
	return values, nil
}
