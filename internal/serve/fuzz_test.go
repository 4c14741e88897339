package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gmpregel/internal/algorithms"
	"gmpregel/internal/graph/gen"
)

// FuzzSubmitJob sends arbitrary bytes as the body of POST /jobs, through
// Server.Handler, to a server holding a 64-vertex graph under a 50 ms
// deadline for every tenant. The handler must not panic; a rejection
// must be a 4xx carrying a JSON "error"; and a 500 may only report a job
// whose final state is "failed". The seeds are the request bodies of
// TestBadRequests and TestCompileFromSource. Run with
// `go test -run='^$' -fuzz=FuzzSubmitJob ./internal/serve`; in normal
// test runs the seed corpus executes.
func FuzzSubmitJob(f *testing.F) {
	for _, tc := range badRequests {
		if tc.path == "/jobs" {
			f.Add(mustMarshal(f, tc.body))
		}
	}
	for _, src := range []string{degSumSource, brokenSource} {
		f.Add(mustMarshal(f, JobRequest{Tenant: "dev", Graph: "bench", Source: src, Wait: true}))
	}

	s := New(Options{Workers: 2, Seed: testSeed, DefaultDeadline: 50 * time.Millisecond})
	f.Cleanup(s.Close)
	// The builders' smallest graph has 512 vertices; install a 64-vertex
	// snapshot directly so each input runs in microseconds.
	g := gen.Random(64, 256, 99)
	snap := &Snapshot{Name: "bench", Version: 1, Builder: "random", Graph: g,
		Inputs: algorithms.MakeInputs(g, 32, testSeed+7)}
	snap.acquire()
	s.snaps.current["bench"] = snap
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		payload := rec.Body.Bytes()
		switch code := rec.Code; {
		case code == http.StatusOK || code == http.StatusAccepted:
		case code >= 400 && code < 500:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(payload, &e); err != nil || e.Error == "" {
				t.Fatalf("HTTP %d without a JSON error: %s", code, payload)
			}
		case code == http.StatusInternalServerError:
			var st JobStatus
			if err := json.Unmarshal(payload, &st); err != nil || st.State != "failed" {
				t.Fatalf("HTTP 500 for a job that did not fail: %s", payload)
			}
		default:
			t.Fatalf("unexpected HTTP %d: %s", code, payload)
		}
	})
}

// FuzzSetQuota sends arbitrary bytes as the body of POST /tenants,
// through Server.Handler. The handler must not panic, must accept a
// quota only with {"ok":true}, and must reject any other body with a 4xx
// carrying a JSON "error". The seeds are the tenant rows of badRequests
// and one valid quota. Run with
// `go test -run='^$' -fuzz=FuzzSetQuota ./internal/serve`; in normal
// test runs the seed corpus executes.
func FuzzSetQuota(f *testing.F) {
	for _, tc := range badRequests {
		if tc.path == "/tenants" {
			f.Add(mustMarshal(f, tc.body))
		}
	}
	f.Add(mustMarshal(f, map[string]any{"name": "t", "quota": Quota{MaxConcurrent: 2, Weight: 3, MaxQueued: -1}}))

	s := New(Options{Workers: 1, Seed: testSeed})
	f.Cleanup(s.Close)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tenants", bytes.NewReader(body)))
		payload := rec.Body.Bytes()
		switch code := rec.Code; {
		case code == http.StatusOK:
			var ok struct {
				OK bool `json:"ok"`
			}
			if err := json.Unmarshal(payload, &ok); err != nil || !ok.OK {
				t.Fatalf("HTTP 200 without {\"ok\":true}: %s", payload)
			}
		case code >= 400 && code < 500:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(payload, &e); err != nil || e.Error == "" {
				t.Fatalf("HTTP %d without a JSON error: %s", code, payload)
			}
		default:
			t.Fatalf("unexpected HTTP %d: %s", code, payload)
		}
	})
}

func mustMarshal(f *testing.F, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
