// Command gmserve is the long-lived multi-tenant graph-analytics job
// server: it keeps immutable graph snapshots resident and executes
// Green-Marl programs (compiled per request) or named built-in
// algorithms against them over an HTTP/JSON API, with per-tenant
// admission control, result caching, and live introspection.
//
// Usage:
//
//	gmserve -addr :8090 -graph bench=twitter:1
//
// then interact with:
//
//	POST /graphs        load or hot-swap a snapshot
//	GET  /graphs        resident snapshots + refcounts
//	POST /jobs          submit a job (algorithm or source; wait=true
//	                    for synchronous execution)
//	GET  /jobs/{id}     poll status / result
//	GET  /jobs/{id}/trace  live engine progress for the job
//	POST /tenants       install a tenant quota
//	GET  /tenants       admission-control ledger
//	GET  /serverz       everything above in one snapshot
//	/metrics, /metrics.json, /healthz, /debug/pprof/*  (obs handler)
//
// See docs/SERVING.md. Closed-loop throughput and latency are measured
// by the benchmark spine's serve-mix workload (go run ./benchmark).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"gmpregel/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		workers  = flag.Int("workers", 4, "engine workers per job")
		seed     = flag.Int64("seed", 1, "engine seed for every run (fixed per server: cache soundness)")
		capacity = flag.Int("capacity", 8, "globally concurrent engine runs")
		cacheMB  = flag.Int64("cache-mb", 64, "result-cache budget in MiB")
		graph    = flag.String("graph", "", "preload a snapshot, name=builder:scale (e.g. bench=twitter:1)")
	)
	flag.Parse()

	srv := serve.New(serve.Options{
		Workers:    *workers,
		Seed:       *seed,
		Capacity:   *capacity,
		CacheBytes: *cacheMB << 20,
	})
	defer srv.Close()

	if *graph != "" {
		spec, err := parseGraphFlag(*graph, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		snap, _, err := srv.LoadGraph(spec)
		if err != nil {
			fatalf("loading %s: %v", *graph, err)
		}
		fmt.Fprintf(os.Stderr, "gmserve: loaded %s (%d nodes, %d edges)\n",
			snap.ID(), snap.Graph.NumNodes(), snap.Graph.NumEdges())
	}

	fmt.Fprintf(os.Stderr, "gmserve: serving on %s\n", *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		fatalf("%v", err)
	}
}

// parseGraphFlag parses name=builder:scale.
func parseGraphFlag(s string, seed int64) (serve.GraphSpec, error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return serve.GraphSpec{}, fmt.Errorf("gmserve: -graph wants name=builder:scale, got %q", s)
	}
	builder, scaleStr, ok := strings.Cut(rest, ":")
	scale := 1
	if ok {
		n, err := strconv.Atoi(scaleStr)
		if err != nil || n <= 0 {
			return serve.GraphSpec{}, fmt.Errorf("gmserve: bad scale in -graph %q", s)
		}
		scale = n
	}
	return serve.GraphSpec{Name: name, Builder: builder, Scale: scale, InputsSeed: seed + 7}, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gmserve: "+format+"\n", args...)
	os.Exit(1)
}
