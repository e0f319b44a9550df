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
		Workers:   2,
		Reg:       reg,
		Chaos:     faults.NewChaos(cc, reg),
		RetryBase: time.Millisecond,
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
		if view.Retries != 0 {
			t.Errorf("job %s retried a panicking request %d times", id, view.Retries)
		}
	}
	if got := s.reg.Counter("service.jobs.panicked").Value(); got < int64(len(ids)) {
		t.Errorf("panicked counter = %d, want >= %d", got, len(ids))
	}
	if resp, _ := doJSON(t, c, "GET", ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panics = %d", resp.StatusCode)
	}
}

// A permanently-failing transient site exhausts the retry budget; the
// retries are visible on the job and in the counters.
func TestChaosTransientRetriesExhaust(t *testing.T) {
	s, ts := chaosServer(t, faults.ChaosConfig{Seed: 1, FailProb: 1},
		func(c *Config) { c.RetryMax = 2 })
	c := ts.Client()

	id := submitExplore(t, c, ts.URL, 64)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	view, err := s.sched.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != JobFailed || view.Quarantined {
		t.Errorf("state=%s quarantined=%v, want plain failure", view.State, view.Quarantined)
	}
	if view.Retries != 2 {
		t.Errorf("retries = %d, want 2", view.Retries)
	}
	if got := s.reg.Counter("service.jobs.retries").Value(); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
}

// Intermittent transient failures are absorbed by backoff-retry: the job
// completes despite the injections.
func TestChaosTransientEventuallySucceeds(t *testing.T) {
	s, ts := chaosServer(t, faults.ChaosConfig{Seed: 3, FailProb: 0.5},
		func(c *Config) { c.RetryMax = 20 })
	c := ts.Client()

	id := submitExplore(t, c, ts.URL, 64)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	view, err := s.sched.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != JobDone {
		t.Fatalf("state = %s (%s), want done", view.State, view.Error)
	}
}

// Corrupted cache hits are evicted and recomputed — the value stays right,
// only the execution count moves.
func TestChaosCacheCorruptionRecomputes(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(8, reg)
	c.chaos = faults.NewChaos(faults.ChaosConfig{Seed: 1, CacheCorruptProb: 1}, reg)
	execs := 0
	fn := func() (any, error) { execs++; return execs, nil }
	for i := 1; i <= 3; i++ {
		v, _, err := c.DoPersist(context.Background(), "k", nil, fn)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != i {
			t.Errorf("round %d served stale value %v", i, v)
		}
	}
	if execs != 3 {
		t.Errorf("executions = %d, want every hit corrupted and recomputed", execs)
	}
	if got := reg.Counter("faults.chaos.cache_corruptions").Value(); got != 2 {
		t.Errorf("corruption counter = %d, want 2", got)
	}
}

// The all-sites chaos profile under concurrent traffic: requests may fail,
// jobs may be quarantined or retried, but the server answers everything and
// stays healthy. This is the `make chaos-short` centerpiece and must pass
// with -race.
func TestChaosServiceSurvivesUnderLoad(t *testing.T) {
	s, ts := chaosServer(t, faults.DefaultChaosConfig(7),
		func(c *Config) { c.Workers = 4; c.RetryMax = 3 })
	c := ts.Client()

	var ids []string
	for i := 0; i < 8; i++ {
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
}
