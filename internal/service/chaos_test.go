package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ena/internal/faults"
	"ena/internal/obs"
)

// chaosServer builds a test server with the given injector profile.
func chaosServer(t *testing.T, cc faults.ChaosConfig, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	reg := obs.NewRegistry()
	cfg := Config{
		Workers: 2,
		Reg:     reg,
		Chaos:   faults.NewChaos(cc, reg),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(ctx, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		drainCtx, dc := context.WithTimeout(context.Background(), 10*time.Second)
		defer dc()
		s.Drain(drainCtx)
	})
	return s, ts
}

func submitExplore(t *testing.T, c *http.Client, url string, cus int) string {
	t.Helper()
	resp, b := doJSON(t, c, "POST", url+"/v1/explore", map[string]any{
		"cus": []int{cus}, "freqs_mhz": []float64{1000}, "bws_tbps": []float64{1},
		"kernels": []string{"MaxFlops"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explore = %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out.Job.ID
}

// Injected panics quarantine the request; the worker — and the server —
// survive every one of them.
func TestChaosPanicsNeverKillServer(t *testing.T) {
	s, ts := chaosServer(t, faults.ChaosConfig{Seed: 1, PanicProb: 1}, nil)
	c := ts.Client()

	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, submitExplore(t, c, ts.URL, 64+8*i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, id := range ids {
		view, err := s.sched.Wait(ctx, id)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if view.State != JobFailed || !view.Quarantined {
			t.Errorf("job %s: state=%s quarantined=%v, want failed+quarantined", id, view.State, view.Quarantined)
		}
	}
	if got := s.reg.Counter("service.jobs.panicked").Value(); got < int64(len(ids)) {
		t.Errorf("panicked counter = %d, want >= %d", got, len(ids))
	}
	if resp, _ := doJSON(t, c, "GET", ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panics = %d", resp.StatusCode)
	}
}

// The all-sites chaos profile under concurrent traffic: requests may fail,
// jobs may be quarantined or stalled, but the server answers everything and
// stays healthy. This is the `make chaos-short` centerpiece and must pass
// with -race.
func TestChaosServiceSurvivesUnderLoad(t *testing.T) {
	s, ts := chaosServer(t, faults.DefaultChaosConfig(7),
		func(c *Config) { c.Workers = 4; c.QueueCap = 256 })
	c := ts.Client()

	// Enough jobs that the 5% panic and stall sites fire whatever order the
	// concurrent draws land in (each misses all 200 with probability 4e-5).
	var ids []string
	for i := 0; i < 200; i++ {
		ids = append(ids, submitExplore(t, c, ts.URL, 64+8*(i%4)))
	}
	for i := 0; i < 20; i++ {
		resp, b := doJSON(t, c, "POST", ts.URL+"/v1/simulate", map[string]any{
			"kernel":     "CoMD",
			"fault_mask": fmt.Sprintf("gpu:%d", 1+i%3),
			"seed":       i % 5,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d = %d: %s", i, resp.StatusCode, b)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range ids {
		view, err := s.sched.Wait(ctx, id)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if !view.State.Terminal() {
			t.Errorf("job %s stuck in %s", id, view.State)
		}
	}
	if resp, _ := doJSON(t, c, "GET", ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under chaos = %d", resp.StatusCode)
	}
	// The seeded draws must reach every remaining site, or the run proves
	// nothing about surviving it.
	for _, name := range []string{"faults.chaos.panics", "faults.chaos.latencies", "faults.chaos.stalls"} {
		if s.reg.Counter(name).Value() == 0 {
			t.Errorf("%s = 0: the all-sites profile never fired that site", name)
		}
	}
}

// TestChaosLatencyHonoursCancel: an injected request delay ends as soon as
// the client's context does, so a client that went away is not held for
// the rest of the draw.
func TestChaosLatencyHonoursCancel(t *testing.T) {
	cc := faults.ChaosConfig{Seed: 2, LatencyProb: 1, MaxLatency: 10 * time.Second}
	// A twin injector shows what the server's first draw will be.
	if d := faults.NewChaos(cc, nil).Latency(); d < 5*time.Second {
		t.Fatalf("seed %d draws %v first; the test needs several seconds", cc.Seed, d)
	}
	s, _ := chaosServer(t, cc, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/healthz", nil).WithContext(ctx)
	start := time.Now()
	s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	if el := time.Since(start); el > time.Second {
		t.Errorf("cancelled request held for %v by the latency site", el)
	}
	if got := s.reg.Counter("faults.chaos.latencies").Value(); got != 1 {
		t.Errorf("latencies = %d, want 1", got)
	}
}
