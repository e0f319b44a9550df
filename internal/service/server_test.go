package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := New(ctx, Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		drainCtx, dc := context.WithTimeout(context.Background(), 5*time.Second)
		defer dc()
		s.Drain(drainCtx)
	})
	return s, ts
}

func doJSON(t *testing.T, client *http.Client, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestServerEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()

	tests := []struct {
		name       string
		method     string
		path       string
		body       any
		rawBody    string
		wantStatus int
		wantSubstr string
	}{
		{
			name: "healthz", method: "GET", path: "/healthz",
			wantStatus: http.StatusOK, wantSubstr: `"status": "ok"`,
		},
		{
			name: "metrics", method: "GET", path: "/metrics",
			wantStatus: http.StatusOK, wantSubstr: "counters",
		},
		{
			name: "kernels list", method: "GET", path: "/v1/kernels",
			wantStatus: http.StatusOK, wantSubstr: "MaxFlops",
		},
		{
			name: "experiments list", method: "GET", path: "/v1/experiments",
			wantStatus: http.StatusOK, wantSubstr: "table1",
		},
		{
			name: "simulate ok", method: "POST", path: "/v1/simulate",
			body:       map[string]any{"kernel": "CoMD"},
			wantStatus: http.StatusOK, wantSubstr: `"kernel": "CoMD"`,
		},
		{
			name: "simulate full options", method: "POST", path: "/v1/simulate",
			body: map[string]any{
				"cus": 256, "freq_mhz": 1200, "bw_tbps": 2, "kernel": "HPGMG",
				"options": map[string]any{
					"policy":        "hardware-cache",
					"miss_frac":     0.1,
					"optimizations": []string{"ntc", "compression"},
				},
			},
			wantStatus: http.StatusOK, wantSubstr: `"tflops"`,
		},
		{
			name: "simulate missing kernel", method: "POST", path: "/v1/simulate",
			body:       map[string]any{"cus": 128},
			wantStatus: http.StatusBadRequest, wantSubstr: "kernel is required",
		},
		{
			name: "simulate unknown kernel", method: "POST", path: "/v1/simulate",
			body:       map[string]any{"kernel": "nosuch"},
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "simulate bad policy", method: "POST", path: "/v1/simulate",
			body:       map[string]any{"kernel": "CoMD", "options": map[string]any{"policy": "psychic"}},
			wantStatus: http.StatusBadRequest, wantSubstr: "unknown policy",
		},
		{
			name: "simulate bad optimization", method: "POST", path: "/v1/simulate",
			body:       map[string]any{"kernel": "CoMD", "options": map[string]any{"optimizations": []string{"overclock"}}},
			wantStatus: http.StatusBadRequest, wantSubstr: "unknown optimization",
		},
		{
			name: "simulate miss_frac out of range", method: "POST", path: "/v1/simulate",
			body:       map[string]any{"kernel": "CoMD", "options": map[string]any{"miss_frac": 1.5}},
			wantStatus: http.StatusBadRequest, wantSubstr: "miss_frac",
		},
		{
			name: "simulate freq beyond its bound", method: "POST", path: "/v1/simulate",
			rawBody:    `{"cus":320,"freq_mhz":1e300,"bw_tbps":3,"kernel":"CoMD"}`,
			wantStatus: http.StatusBadRequest, wantSubstr: "freq_mhz 1e+300 exceeds the limit of 4000",
		},
		{
			name: "simulate bw beyond its bound", method: "POST", path: "/v1/simulate",
			rawBody:    `{"cus":320,"freq_mhz":1000,"bw_tbps":65,"kernel":"CoMD"}`,
			wantStatus: http.StatusBadRequest, wantSubstr: "bw_tbps 65 exceeds the limit of 64",
		},
		{
			name: "simulate temp_c beyond its bound", method: "POST", path: "/v1/simulate",
			rawBody:    `{"kernel":"CoMD","options":{"temp_c":1e300}}`,
			wantStatus: http.StatusBadRequest, wantSubstr: "temp_c 1e+300 out of [-40, 150]",
		},
		{
			name: "simulate temp_c below its bound", method: "POST", path: "/v1/simulate",
			rawBody:    `{"kernel":"CoMD","options":{"temp_c":-66}}`,
			wantStatus: http.StatusBadRequest, wantSubstr: "temp_c -66 out of [-40, 150]",
		},
		{
			name: "simulate temp_c at its upper bound", method: "POST", path: "/v1/simulate",
			rawBody:    `{"kernel":"CoMD","options":{"temp_c":150}}`,
			wantStatus: http.StatusOK, wantSubstr: `"node_w"`,
		},
		{
			name: "simulate unknown field", method: "POST", path: "/v1/simulate",
			rawBody:    `{"kernel":"CoMD","turbo":true}`,
			wantStatus: http.StatusBadRequest, wantSubstr: "invalid request body",
		},
		{
			name: "simulate malformed json", method: "POST", path: "/v1/simulate",
			rawBody:    `{"kernel":`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "simulate multiple documents", method: "POST", path: "/v1/simulate",
			rawBody:    `{"kernel":"CoMD"}{"kernel":"SNAP"}`,
			wantStatus: http.StatusBadRequest, wantSubstr: "multiple JSON documents",
		},
		{
			name: "simulate stray closing bracket", method: "POST", path: "/v1/simulate",
			rawBody:    `{"kernel":"CoMD"}]`,
			wantStatus: http.StatusBadRequest, wantSubstr: "data after the JSON document",
		},
		{
			name: "simulate stray closing brace", method: "POST", path: "/v1/simulate",
			rawBody:    `{"kernel":"CoMD"}}`,
			wantStatus: http.StatusBadRequest, wantSubstr: "data after the JSON document",
		},
		{
			name: "explore bad grid", method: "POST", path: "/v1/explore",
			body:       map[string]any{"cus": []int{-4}},
			wantStatus: http.StatusBadRequest, wantSubstr: "has non-positive value -4",
		},
		{
			name: "explore bad packaging axis", method: "POST", path: "/v1/explore",
			body:       map[string]any{"gpu_chiplets": []int{0, 4}},
			wantStatus: http.StatusBadRequest, wantSubstr: "has non-positive value 0",
		},
		{
			name: "explore freq beyond its bound", method: "POST", path: "/v1/explore",
			rawBody:    `{"freqs_mhz":[1000,1e300]}`,
			wantStatus: http.StatusBadRequest, wantSubstr: `axis \"freq\" value 1e+300 exceeds the limit of 4000`,
		},
		{
			name: "explore unknown explorer", method: "POST", path: "/v1/explore",
			body:       map[string]any{"explorer": "genetic"},
			wantStatus: http.StatusBadRequest, wantSubstr: "unknown explorer",
		},
		{
			name: "explore eval budget without surrogate", method: "POST", path: "/v1/explore",
			body:       map[string]any{"eval_budget": 10},
			wantStatus: http.StatusBadRequest, wantSubstr: "eval_budget requires explorer",
		},
		{
			name: "explore negative timeout", method: "POST", path: "/v1/explore",
			body:       map[string]any{"timeout_sec": -1},
			wantStatus: http.StatusBadRequest, wantSubstr: "negative timeout",
		},
		{
			name: "explore timeout past the longest deadline", method: "POST", path: "/v1/explore",
			body:       map[string]any{"timeout_sec": 1e10},
			wantStatus: http.StatusBadRequest, wantSubstr: "timeout_sec",
		},
		{
			name: "explore huge timeout", method: "POST", path: "/v1/explore",
			body:       map[string]any{"timeout_sec": 1e300},
			wantStatus: http.StatusBadRequest, wantSubstr: "timeout_sec",
		},
		{
			name: "job not found", method: "GET", path: "/v1/jobs/deadbeef",
			wantStatus: http.StatusNotFound, wantSubstr: "unknown job",
		},
		{
			name: "cancel job not found", method: "DELETE", path: "/v1/jobs/deadbeef",
			wantStatus: http.StatusNotFound,
		},
		{
			name: "experiment not found", method: "GET", path: "/v1/experiments/nosuch",
			wantStatus: http.StatusNotFound,
		},
		{
			name: "wrong method", method: "GET", path: "/v1/simulate",
			wantStatus: http.StatusMethodNotAllowed,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if tc.rawBody != "" {
				r, err := c.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.rawBody))
				if err != nil {
					t.Fatalf("POST: %v", err)
				}
				defer r.Body.Close()
				var buf bytes.Buffer
				buf.ReadFrom(r.Body)
				resp, body = r, buf.Bytes()
			} else {
				resp, body = doJSON(t, c, tc.method, ts.URL+tc.path, tc.body)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, tc.wantStatus, body)
			}
			if tc.wantSubstr != "" && !strings.Contains(string(body), tc.wantSubstr) {
				t.Errorf("body missing %q:\n%s", tc.wantSubstr, body)
			}
		})
	}
}

// TestSimulateCacheDedup is the headline acceptance check: a second identical
// request is served from cache without re-running the model, visible both in
// the response's cached flag and in the obs counters.
func TestSimulateCacheDedup(t *testing.T) {
	s, ts := newTestServer(t)
	c := ts.Client()
	body := map[string]any{"kernel": "LULESH", "cus": 288, "freq_mhz": 1100}

	resp1, b1 := doJSON(t, c, "POST", ts.URL+"/v1/simulate", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first status = %d: %s", resp1.StatusCode, b1)
	}
	var r1, r2 SimulateResponse
	if err := json.Unmarshal(b1, &r1); err != nil {
		t.Fatalf("unmarshal first: %v", err)
	}
	if r1.Cached {
		t.Error("first request reported cached")
	}

	resp2, b2 := doJSON(t, c, "POST", ts.URL+"/v1/simulate", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d: %s", resp2.StatusCode, b2)
	}
	if err := json.Unmarshal(b2, &r2); err != nil {
		t.Fatalf("unmarshal second: %v", err)
	}
	if !r2.Cached {
		t.Error("second identical request was not served from cache")
	}
	if r1.Key != r2.Key || r1.TFLOPs != r2.TFLOPs {
		t.Errorf("responses disagree: key %s vs %s, tflops %v vs %v", r1.Key, r2.Key, r1.TFLOPs, r2.TFLOPs)
	}

	snap := s.Registry().Snapshot()
	if n := snap.Counters["service.sim.executions"]; n != 1 {
		t.Errorf("sim executions = %d, want 1 (model must not re-run)", n)
	}
	if h, m := snap.Counters["service.cache.hits"], snap.Counters["service.cache.misses"]; h != 1 || m != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", h, m)
	}
}

// Requests that spell the same work differently (defaults omitted vs explicit,
// optimization list permuted) must map to one cache key.
func TestSimulateCanonicalKeys(t *testing.T) {
	s, ts := newTestServer(t)
	c := ts.Client()

	variants := []map[string]any{
		{"kernel": "SNAP", "options": map[string]any{"optimizations": []string{"ntc", "async-cu"}}},
		{"kernel": "SNAP", "cus": 320, "freq_mhz": 1000, "bw_tbps": 3,
			"options": map[string]any{"optimizations": []string{"async-cu", "ntc", "ntc"}, "policy": "software-managed"}},
	}
	keys := make([]string, len(variants))
	for i, v := range variants {
		resp, b := doJSON(t, c, "POST", ts.URL+"/v1/simulate", v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("variant %d status = %d: %s", i, resp.StatusCode, b)
		}
		var r SimulateResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		keys[i] = r.Key
	}
	if keys[0] != keys[1] {
		t.Errorf("equivalent requests got distinct keys:\n%s\n%s", keys[0], keys[1])
	}
	if n := s.Registry().Snapshot().Counters["service.sim.executions"]; n != 1 {
		t.Errorf("sim executions = %d, want 1 across equivalent variants", n)
	}
}

func pollJob(t *testing.T, c *http.Client, url string, deadline time.Duration) JobView {
	t.Helper()
	var last JobView
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		resp, b := doJSON(t, c, "GET", url, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d: %s", resp.StatusCode, b)
		}
		var wrap struct {
			Job JobView `json:"job"`
		}
		if err := json.Unmarshal(b, &wrap); err != nil {
			t.Fatalf("poll unmarshal: %v", err)
		}
		last = wrap.Job
		if last.State.Terminal() {
			return last
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job did not finish within %v (state %s)", deadline, last.State)
	return last
}

func TestExploreJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()

	req := map[string]any{
		"cus":       []int{64, 128},
		"freqs_mhz": []float64{800, 1000},
		"bws_tbps":  []float64{1, 2},
		"kernels":   []string{"MaxFlops", "CoMD"},
	}
	resp, b := doJSON(t, c, "POST", ts.URL+"/v1/explore", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202: %s", resp.StatusCode, b)
	}
	var wrap struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(b, &wrap); err != nil {
		t.Fatalf("unmarshal submit: %v", err)
	}
	if wrap.Job.ID == "" || wrap.Job.Kind != "explore" {
		t.Fatalf("submit view = %+v", wrap.Job)
	}

	final := pollJob(t, c, ts.URL+"/v1/jobs/"+wrap.Job.ID, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("job state = %s (error %q), want done", final.State, final.Error)
	}
	// Result round-trips through JSON as a map; re-marshal into the typed form.
	rb, _ := json.Marshal(final.Result)
	var res ExploreResult
	if err := json.Unmarshal(rb, &res); err != nil {
		t.Fatalf("result unmarshal: %v", err)
	}
	if res.Points != 8 {
		t.Errorf("points = %d, want 8 (2 CUs x 2 freqs x 2 BWs)", res.Points)
	}
	if res.BestMean.CUs == 0 {
		t.Errorf("best mean point empty: %+v", res.BestMean)
	}
	if len(res.PerKernel) != 2 {
		t.Errorf("per-kernel entries = %d, want 2", len(res.PerKernel))
	}
}

// A permuted but equivalent explore request must dedup onto the same cached
// sweep: the second job completes against the cache without a new execution.
func TestExploreCanonicalDedup(t *testing.T) {
	s, ts := newTestServer(t)
	c := ts.Client()

	submit := func(req map[string]any) JobView {
		resp, b := doJSON(t, c, "POST", ts.URL+"/v1/explore", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d: %s", resp.StatusCode, b)
		}
		var wrap struct {
			Job JobView `json:"job"`
		}
		if err := json.Unmarshal(b, &wrap); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		return wrap.Job
	}

	j1 := submit(map[string]any{
		"cus": []int{64, 128}, "freqs_mhz": []float64{1000}, "bws_tbps": []float64{1},
		"kernels": []string{"MaxFlops"},
	})
	f1 := pollJob(t, c, ts.URL+"/v1/jobs/"+j1.ID, 30*time.Second)
	if f1.State != JobDone {
		t.Fatalf("first job state = %s", f1.State)
	}
	before := s.Registry().Snapshot().Counters["dse.sweeps"]

	// Same grid, reversed and with a duplicate — canonicalization must
	// collapse it onto the cached key.
	j2 := submit(map[string]any{
		"cus": []int{128, 64, 64}, "freqs_mhz": []float64{1000}, "bws_tbps": []float64{1},
		"kernels": []string{"MaxFlops"},
	})
	f2 := pollJob(t, c, ts.URL+"/v1/jobs/"+j2.ID, 30*time.Second)
	if f2.State != JobDone {
		t.Fatalf("second job state = %s", f2.State)
	}
	after := s.Registry().Snapshot().Counters["dse.sweeps"]
	if after != before {
		t.Errorf("second equivalent explore ran a new sweep (sweeps %d -> %d)", before, after)
	}
	if n := s.Registry().Snapshot().Counters["service.cache.hits"]; n == 0 {
		t.Error("cache hits = 0; explore result was not served from cache")
	}
}

// Cancelling an explore job mid-sweep must stop the workers before the grid
// completes — the acceptance criterion for cooperative cancellation.
func TestExploreCancelMidSweep(t *testing.T) {
	s, ts := newTestServer(t)
	c := ts.Client()

	// A grid big enough (~46k points x 2 kernels) that cancellation lands
	// long before completion.
	var cus []int
	for v := 64; v <= 384; v += 2 {
		cus = append(cus, v)
	}
	var freqs []float64
	for v := 700.0; v <= 1500; v += 50 {
		freqs = append(freqs, v)
	}
	var bws []float64
	for v := 0.5; v <= 8; v += 0.25 {
		bws = append(bws, v)
	}
	total := len(cus) * len(freqs) * len(bws)

	resp, b := doJSON(t, c, "POST", ts.URL+"/v1/explore", map[string]any{
		"cus": cus, "freqs_mhz": freqs, "bws_tbps": bws,
		"kernels": []string{"MaxFlops", "CoMD"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, b)
	}
	var wrap struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(b, &wrap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	// Wait until the sweep is demonstrably in progress, then cancel it.
	deadline := time.Now().Add(10 * time.Second)
	for s.Registry().Snapshot().Counters["dse.points_evaluated"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}
	dresp, db := doJSON(t, c, "DELETE", ts.URL+"/v1/jobs/"+wrap.Job.ID, nil)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d: %s", dresp.StatusCode, db)
	}

	final := pollJob(t, c, ts.URL+"/v1/jobs/"+wrap.Job.ID, 30*time.Second)
	if final.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if final.Result != nil {
		t.Error("cancelled job leaked a result")
	}
	evaluated := s.Registry().Snapshot().Counters["dse.points_evaluated"]
	if evaluated >= int64(total) {
		t.Errorf("sweep ran to completion (%d of %d points) despite cancellation", evaluated, total)
	}
	if n := s.Registry().Snapshot().Counters["dse.sweeps_cancelled"]; n != 1 {
		t.Errorf("sweeps_cancelled = %d, want 1", n)
	}
}

func TestExperimentRunCached(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()

	var first, second ExperimentResponse
	resp, b := doJSON(t, c, "GET", ts.URL+"/v1/experiments/table1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &first); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if first.Cached || first.Output == "" {
		t.Errorf("first run: cached=%v, output len %d", first.Cached, len(first.Output))
	}
	_, b = doJSON(t, c, "GET", ts.URL+"/v1/experiments/table1", nil)
	if err := json.Unmarshal(b, &second); err != nil {
		t.Fatalf("unmarshal second: %v", err)
	}
	if !second.Cached {
		t.Error("second experiment run was not cached")
	}
	if second.Output != first.Output {
		t.Error("cached output differs from first run")
	}
}

// TestConcurrentClientsStress drives many clients over a small key space under
// the race detector: same-key requests must coalesce to one execution each,
// and every response must be consistent.
func TestConcurrentClientsStress(t *testing.T) {
	s, ts := newTestServer(t)
	c := ts.Client()

	kernels := []string{"MaxFlops", "CoMD", "HPGMG", "LULESH"}
	const clients = 24
	const perClient = 12

	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				k := kernels[(g+i)%len(kernels)]
				resp, b := doJSON(t, c, "POST", ts.URL+"/v1/simulate", map[string]any{"kernel": k})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", g, resp.StatusCode, b)
					return
				}
				var r SimulateResponse
				if err := json.Unmarshal(b, &r); err != nil {
					t.Errorf("client %d: %v", g, err)
					return
				}
				if r.Kernel != k || r.TFLOPs <= 0 {
					t.Errorf("client %d: bad response %+v", g, r)
					return
				}
			}
		}(g)
	}
	// Mix in metrics scrapes and health checks while simulations fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			doJSON(t, c, "GET", ts.URL+"/metrics", nil)
			doJSON(t, c, "GET", ts.URL+"/healthz", nil)
		}
	}()
	wg.Wait()

	snap := s.Registry().Snapshot()
	execs := snap.Counters["service.sim.executions"]
	if execs != int64(len(kernels)) {
		t.Errorf("sim executions = %d, want %d (one per distinct kernel)", execs, len(kernels))
	}
	if snap.Counters["service.http.simulate.requests"] != int64(clients*perClient) {
		t.Errorf("simulate requests = %d, want %d",
			snap.Counters["service.http.simulate.requests"], clients*perClient)
	}
}

// After Drain, job submissions are rejected with 503 but cheap reads still work.
func TestServerDrainRejectsNewJobs(t *testing.T) {
	ctx := context.Background()
	s := New(ctx, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, b := doJSON(t, c, "POST", ts.URL+"/v1/explore", map[string]any{
		"cus": []int{64}, "freqs_mhz": []float64{1000}, "bws_tbps": []float64{1},
		"kernels": []string{"MaxFlops"},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explore after drain = %d, want 503: %s", resp.StatusCode, b)
	}
	hresp, _ := doJSON(t, c, "GET", ts.URL+"/healthz", nil)
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz after drain = %d", hresp.StatusCode)
	}
}

// TestMalformedSweepBodiesRejected pins the boundary fixes: sweep bodies
// that once crashed the whole process (a 2^50-module external chain panicked
// in a dse pool goroutine; a 2^40-node scale shard ran it out of memory) get
// a 400 from the in-process handler, and the replica keeps answering.
func TestMalformedSweepBodiesRejected(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	job := `"job":{"kernels":["CoMD"],"budget_w":160,"opts":0},"start":0`
	hbms := make([]string, 300) // 300 x the 490-point default grid
	for i := range hbms {
		hbms[i] = strconv.Itoa(i + 1)
	}
	for _, tc := range []struct{ name, path, body, want string }{
		{"explore ext modules", "/v1/explore", `{"ext_modules":[1125899906842624]}`, "exceeds the limit"},
		{"explore chiplets", "/v1/explore", `{"gpu_chiplets":[1125899906842624]}`, "exceeds the limit"},
		{"explore too many points", "/v1/explore", `{"hbm_stack_gbs":[` + strings.Join(hbms, ",") + `]}`, "more than 131072 points"},
		{"explore stray closing bracket", "/v1/explore", `{"kernels":["CoMD"]}]`, "data after the JSON document"},
		{"explore stray closing brace", "/v1/explore", `{"kernels":["CoMD"]}}`, "data after the JSON document"},
		{"shard ext modules", "/v1/internal/shard/explore",
			`{"v":3,` + job + `,"items":[{"cus":320,"freq_mhz":1000,"bw_tbps":3,"ext_modules":1125899906842624}]}`, "exceeds the limit"},
		{"shard scale size", "/v1/internal/shard/scale",
			`{"v":3,"job":{"kernel":"CoMD","topology":"torus","mode":"weak"},"start":0,"items":[1099511627776]}`, "exceeds the limit"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: %d %q, want 400 naming %q", tc.name, rec.Code, rec.Body, tc.want)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after the malformed bodies = %d", rec.Code)
	}
}

// Queue saturation sheds load with 503 + Retry-After so clients know when
// to come back.
func TestExploreQueueFull(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, Config{Workers: 1, QueueCap: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	// Deterministically saturate the pool: a gated job occupies the single
	// worker and a second fills the one queue slot, so the HTTP submission
	// must be rejected.
	gate := make(chan struct{})
	started := make(chan struct{})
	if _, err := s.sched.Submit("blocker", 0, func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started
	if _, err := s.sched.Submit("filler", 0, func(ctx context.Context) (any, error) {
		return nil, nil
	}); err != nil {
		t.Fatalf("Submit filler: %v", err)
	}

	resp, b := doJSON(t, c, "POST", ts.URL+"/v1/explore", map[string]any{
		"cus": []int{64}, "freqs_mhz": []float64{1000}, "bws_tbps": []float64{1},
		"kernels": []string{"MaxFlops"},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explore with saturated queue = %d, want 503: %s", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("saturated queue response is missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", ra)
	}
	// Operators need liveness and metrics most while a route sheds load.
	for _, path := range []string{"/healthz", "/metrics"} {
		if hr, hb := doJSON(t, c, "GET", ts.URL+path, nil); hr.StatusCode != http.StatusOK {
			t.Errorf("%s while explore sheds = %d: %s", path, hr.StatusCode, hb)
		}
	}
	close(gate)
	drainCtx, dc := context.WithTimeout(context.Background(), 10*time.Second)
	defer dc()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// Clients that give up are the normal case under overload. Each simulate
// whose request context is already cancelled fails, but nothing holds that
// against the route: the next valid request is served, whether its key is
// cached or not.
func TestOverloadCancelledClientsKeepRouteOpen(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	simulate := func(ctx context.Context, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)).WithContext(ctx))
		return rec
	}
	if rec := simulate(context.Background(), `{"kernel":"CoMD"}`); rec.Code != http.StatusOK {
		t.Fatalf("warm-up simulate = %d: %s", rec.Code, rec.Body)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	errs, cancelled := s.reg.Counter("service.http.errors"), s.reg.Counter("service.http.client_cancelled")
	errs0, cancelled0 := errs.Value(), cancelled.Value()
	for i := 0; i < 5; i++ {
		// Distinct uncached keys, so each cancelled request reaches the model.
		body := fmt.Sprintf(`{"kernel":"CoMD","freq_mhz":%d}`, 600+50*i)
		if rec := simulate(gone, body); rec.Code == http.StatusOK {
			t.Fatalf("cancelled simulate %d was served: %s", i, rec.Body)
		}
	}
	// A client that gave up is counted as such, not as a server error.
	if de, dc := errs.Value()-errs0, cancelled.Value()-cancelled0; de != 0 || dc != 5 {
		t.Errorf("cancelled clients added %d to service.http.errors and %d to service.http.client_cancelled, want 0 and 5", de, dc)
	}
	for _, body := range []string{`{"kernel":"CoMD"}`, `{"kernel":"SNAP"}`} {
		if rec := simulate(context.Background(), body); rec.Code != http.StatusOK {
			t.Errorf("simulate %s after cancelled clients = %d (Retry-After %q): %s",
				body, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
	}
}

func TestHashCanonDeterministic(t *testing.T) {
	a := hashCanon(simCanon{V: 1, CUs: 320, Kernel: "CoMD"})
	b := hashCanon(simCanon{V: 1, CUs: 320, Kernel: "CoMD"})
	if a != b {
		t.Errorf("hashes differ: %s vs %s", a, b)
	}
	if c := hashCanon(simCanon{V: 2, CUs: 320, Kernel: "CoMD"}); c == a {
		t.Error("version bump did not change the key")
	}
	if len(a) != 64 {
		t.Errorf("key length = %d, want 64 hex chars", len(a))
	}
}

func TestParseHelpers(t *testing.T) {
	if got := sortedUniqueInts([]int{3, 1, 3, 2, 1}); fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("sortedUniqueInts = %v", got)
	}
	if got := sortedUniqueFloats([]float64{2.5, 1, 2.5}); fmt.Sprint(got) != "[1 2.5]" {
		t.Errorf("sortedUniqueFloats = %v", got)
	}
	tech, err := parseTechniques([]string{"NTC", " compression "})
	if err != nil {
		t.Fatalf("parseTechniques: %v", err)
	}
	names := techNames(tech)
	if fmt.Sprint(names) != "[compression ntc]" {
		t.Errorf("techNames = %v", names)
	}
	if _, err := parsePolicy("hardware"); err != nil {
		t.Errorf("parsePolicy(hardware): %v", err)
	}
}
