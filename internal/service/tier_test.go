package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ena/internal/cluster"
	"ena/internal/obs"
	"ena/internal/store"
)

// Tests for the horizontally scalable tier: the persistent result store
// layered under the cache, sweep sharding across worker peers, admission
// control, and the readiness/drain surfaces.

func newTierServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s := New(ctx, cfg)
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

// newWorkerPeer boots a full worker-mode service — the same handler stack a
// real `enaserve -worker` process serves — so these tests exercise the
// actual route mounting, not a bare cluster.WorkerHandler.
func newWorkerPeer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := newTierServer(t, Config{WorkerOnly: true, Reg: obs.NewRegistry()})
	return ts
}

// A cold-restarted server must serve a previously computed simulate key from
// the persistent store without re-running the model.
func TestStoreServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	body := map[string]any{"kernel": "CoMD", "cus": 256, "freq_mhz": 1200}

	st1, err := store.Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTierServer(t, Config{Store: st1})
	resp, b := doJSON(t, ts1.Client(), "POST", ts1.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first simulate status = %d: %s", resp.StatusCode, b)
	}
	var first SimulateResponse
	if err := json.Unmarshal(b, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution reported cached")
	}
	if got := s1.Registry().Snapshot().Counters["service.sim.executions"]; got != 1 {
		t.Fatalf("executions after first request = %d, want 1", got)
	}
	ts1.Close()

	// "Restart": a fresh server process over the same store directory.
	st2, err := store.Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTierServer(t, Config{Store: st2})
	resp, b = doJSON(t, ts2.Client(), "POST", ts2.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart simulate status = %d: %s", resp.StatusCode, b)
	}
	var second SimulateResponse
	if err := json.Unmarshal(b, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("restarted server did not serve from the store (Cached=false)")
	}
	if got := s2.Registry().Snapshot().Counters["service.sim.executions"]; got != 0 {
		t.Errorf("restarted server executed the model %d times, want 0", got)
	}
	second.Cached = first.Cached
	if !reflect.DeepEqual(first, second) {
		t.Errorf("store round-trip changed the response:\nfirst  %+v\nsecond %+v", first, second)
	}
}

func submitAndWait(t *testing.T, ts *httptest.Server, path string, req map[string]any) JobView {
	t.Helper()
	c := ts.Client()
	resp, b := doJSON(t, c, "POST", ts.URL+path, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s status = %d: %s", path, resp.StatusCode, b)
	}
	var wrap struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(b, &wrap); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, c, ts.URL+"/v1/jobs/"+wrap.Job.ID, 60*time.Second)
	if final.State != JobDone {
		t.Fatalf("%s job state = %s (error %q)", path, final.State, final.Error)
	}
	return final
}

// Sharding an explore sweep across two worker peers must return the
// bit-identical result of the single-process sweep — including the paper's
// golden best-mean design point on the default space with the full suite.
func TestServiceShardedExploreBitIdentical(t *testing.T) {
	req := map[string]any{}

	_, local := newTierServer(t, Config{})
	want := submitAndWait(t, local, "/v1/explore", req)

	w1, w2 := newWorkerPeer(t), newWorkerPeer(t)
	srv, sharded := newTierServer(t, Config{Peers: []string{w1.URL, w2.URL}})
	got := submitAndWait(t, sharded, "/v1/explore", req)

	wb, _ := json.Marshal(want.Result)
	gb, _ := json.Marshal(got.Result)
	if string(wb) != string(gb) {
		t.Errorf("sharded explore differs from local:\nlocal   %s\nsharded %s", wb, gb)
	}
	// The answer must have come from the peers: identical results via silent
	// local fallback would mask a broken worker protocol.
	counters := srv.Registry().Snapshot().Counters
	if counters["cluster.items_streamed"] == 0 {
		t.Error("no items streamed from worker peers (silent local fallback?)")
	}
	if n := counters["cluster.local_fallback_shards"]; n != 0 {
		t.Errorf("local_fallback_shards = %d on the happy path", n)
	}
	if n := counters["cluster.peer_failures"]; n != 0 {
		t.Errorf("peer_failures = %d on the happy path", n)
	}
	var res ExploreResult
	if err := json.Unmarshal(gb, &res); err != nil {
		t.Fatal(err)
	}
	if res.BestMean.CUs != 320 || res.BestMean.FreqMHz != 1000 || res.BestMean.BWTBps != 3 {
		t.Errorf("sharded best-mean = %+v, want the golden 320 CUs / 1000 MHz / 3 TB/s", res.BestMean)
	}
}

// One dead peer must not change the answer: its shards fail over to the
// surviving worker and the merged result stays bit-identical.
func TestServiceShardedExploreSurvivesDeadPeer(t *testing.T) {
	req := map[string]any{
		"cus": []int{192, 256, 320}, "freqs_mhz": []float64{800, 1000},
		"bws_tbps": []float64{1, 3}, "kernels": []string{"CoMD", "SNAP"},
	}

	_, local := newTierServer(t, Config{})
	want := submitAndWait(t, local, "/v1/explore", req)

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(dead.Close)
	healthy := newWorkerPeer(t)
	_, sharded := newTierServer(t, Config{Peers: []string{dead.URL, healthy.URL}})
	got := submitAndWait(t, sharded, "/v1/explore", req)

	wb, _ := json.Marshal(want.Result)
	gb, _ := json.Marshal(got.Result)
	if string(wb) != string(gb) {
		t.Errorf("failover explore differs from local:\nlocal   %s\nsharded %s", wb, gb)
	}
}

// Sharded scale must match the local evaluation, degraded fields included.
func TestServiceShardedScaleBitIdentical(t *testing.T) {
	req := map[string]any{
		"kernel": "HPGMG", "nodes": []int{8, 64, 256, 1000},
		"fault_mask": "node:2", "seed": 7,
	}

	_, local := newTierServer(t, Config{})
	want := submitAndWait(t, local, "/v1/scale", req)

	w1, w2 := newWorkerPeer(t), newWorkerPeer(t)
	_, sharded := newTierServer(t, Config{Peers: []string{w1.URL, w2.URL}})
	got := submitAndWait(t, sharded, "/v1/scale", req)

	wb, _ := json.Marshal(want.Result)
	gb, _ := json.Marshal(got.Result)
	if string(wb) != string(gb) {
		t.Errorf("sharded scale differs from local:\nlocal   %s\nsharded %s", wb, gb)
	}
}

// Graceful drain with an async sharded job in flight whose only worker peer
// disappears mid-drain: the shards fail over to local evaluation and the job
// still completes before Drain returns.
func TestDrainWithInflightJobAndPeerLoss(t *testing.T) {
	// The peer holds its first shard until the test kills it, so the sweep
	// is still in flight when the peer dies (a small sweep could otherwise
	// finish on the healthy peer before the kill).
	worker := cluster.WorkerHandler(obs.NewRegistry())
	started, kill := make(chan struct{}), make(chan struct{})
	var startOnce sync.Once
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/internal/shard/") {
			startOnce.Do(func() { close(started) })
			<-kill
			panic(http.ErrAbortHandler) // drop the connection mid-shard
		}
		worker.ServeHTTP(w, r)
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, Config{Workers: 2, Peers: []string{peer.URL}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, b := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/explore", map[string]any{
		"cus": []int{192, 256, 320}, "freqs_mhz": []float64{800, 1000, 1200},
		"bws_tbps": []float64{1, 3}, "kernels": []string{"CoMD", "HPGMG"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, b)
	}
	var wrap struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(b, &wrap); err != nil {
		t.Fatal(err)
	}

	// Kill the only peer, then drain: the in-flight sweep must finish via
	// shard failover onto the coordinator itself.
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("the sweep never sent a shard to the peer")
	}
	close(kill)
	peer.Close()
	drainCtx, dc := context.WithTimeout(context.Background(), 60*time.Second)
	defer dc()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain with in-flight job: %v", err)
	}
	view, ok := s.sched.Get(wrap.Job.ID)
	if !ok {
		t.Fatal("job vanished during drain")
	}
	if view.State != JobDone {
		t.Fatalf("drained job state = %s (error %q), want done", view.State, view.Error)
	}
	if s.Registry().Snapshot().Counters["cluster.local_fallback_shards"] == 0 {
		t.Error("no shards fell back locally despite total peer loss")
	}
}

// Drain must flip /v1/healthz to 503 draining while /healthz stays alive,
// and new submissions must be shed.
func TestReadinessDuringDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	resp, b := doJSON(t, c, "GET", ts.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"draining": false`) {
		t.Fatalf("pre-drain readiness = %d: %s", resp.StatusCode, b)
	}

	drainCtx, dc := context.WithTimeout(context.Background(), 5*time.Second)
	defer dc()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	resp, b = doJSON(t, c, "GET", ts.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(b), `"draining": true`) {
		t.Errorf("draining readiness = %d: %s", resp.StatusCode, b)
	}
	resp, _ = doJSON(t, c, "GET", ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("liveness during drain = %d, want 200", resp.StatusCode)
	}
	resp, b = doJSON(t, c, "POST", ts.URL+"/v1/explore", map[string]any{"kernels": []string{"CoMD"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission during drain = %d, want 503: %s", resp.StatusCode, b)
	}
}

// Worker mode serves only the internal shard routes plus health/metrics.
func TestWorkerOnlyRoutes(t *testing.T) {
	_, ts := newTierServer(t, Config{WorkerOnly: true})
	c := ts.Client()

	resp, _ := doJSON(t, c, "GET", ts.URL+"/v1/internal/ping", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("worker ping = %d, want 200", resp.StatusCode)
	}
	resp, _ = doJSON(t, c, "GET", ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("worker healthz = %d, want 200", resp.StatusCode)
	}
	resp, _ = doJSON(t, c, "POST", ts.URL+"/v1/simulate", map[string]any{"kernel": "CoMD"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("worker simulate = %d, want 404 (public API not mounted)", resp.StatusCode)
	}
}

// Admission mechanics: budget of 1, queue of 1 — the first caller holds the
// slot, the second waits, the third is shed immediately.
func TestAdmissionQueueAndShed(t *testing.T) {
	reg := obs.NewRegistry()
	a := newAdmission("test", 1, 1, reg)

	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	waiterIn := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(waiterIn)
		rel, err := a.acquire(context.Background())
		if err != nil {
			t.Errorf("queued acquire: %v", err)
			return
		}
		rel()
	}()
	<-waiterIn
	// Wait until the waiter occupies the queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("service.admit.test.queued").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := a.acquire(context.Background()); err == nil {
		t.Fatal("third acquire admitted past a full queue")
	}
	if reg.Counter("service.admit.test.rejected").Value() != 1 {
		t.Errorf("rejected = %d, want 1", reg.Counter("service.admit.test.rejected").Value())
	}

	release() // frees the slot; the waiter takes it and releases too
	wg.Wait()
	if got := reg.Counter("service.admit.test.admitted").Value(); got != 2 {
		t.Errorf("admitted = %d, want 2", got)
	}
}

// A queued caller whose context ends leaves the queue with an error.
func TestAdmissionContextCancel(t *testing.T) {
	a := newAdmission("test", 1, 4, obs.NewRegistry())
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.acquire(ctx); err == nil {
		t.Fatal("cancelled acquire returned nil error")
	}
}

// Simulate requests for an already-cached key bypass admission entirely.
func TestAdmissionCachedKeyBypass(t *testing.T) {
	s, ts := newTierServer(t, Config{AdmitSimulate: 1, AdmitQueue: 1})
	c := ts.Client()
	body := map[string]any{"kernel": "CoMD"}

	for i := 0; i < 3; i++ {
		resp, b := doJSON(t, c, "POST", ts.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d status = %d: %s", i, resp.StatusCode, b)
		}
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["service.admit.simulate.bypassed"]; got != 2 {
		t.Errorf("bypassed = %d, want 2 (second and third hits)", got)
	}
	if got := snap.Counters["service.admit.simulate.admitted"]; got != 1 {
		t.Errorf("admitted = %d, want 1 (only the first execution)", got)
	}
}

// An experiment whose result is resident answers from the cache while the
// experiments admission is saturated; a cold one is shed with Retry-After.
func TestExperimentResidentBypassesAdmission(t *testing.T) {
	s, ts := newTierServer(t, Config{})
	c := ts.Client()
	if resp, b := doJSON(t, c, "GET", ts.URL+"/v1/experiments/table1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first table1 run = %d: %s", resp.StatusCode, b)
	}

	// Hold every slot and every queue place, as running and waiting cold
	// experiment runs would.
	a := s.admitExp
	for len(a.slots) < cap(a.slots) {
		a.slots <- struct{}{}
	}
	for len(a.queue) < cap(a.queue) {
		a.queue <- struct{}{}
	}
	defer func() {
		for len(a.queue) > 0 {
			<-a.queue
		}
		for len(a.slots) > 0 {
			<-a.slots
		}
	}()

	resp, b := doJSON(t, c, "GET", ts.URL+"/v1/experiments/table1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resident table1 with saturated admission = %d, want 200: %s", resp.StatusCode, b)
	}
	var got ExperimentResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Error("resident experiment answered with cached = false")
	}
	resp, b = doJSON(t, c, "GET", ts.URL+"/v1/experiments/fig4", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold fig4 with saturated admission = %d, want 503: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed experiment response is missing Retry-After")
	}
	if n := s.Registry().Counter("service.admit.experiments.run.bypassed").Value(); n != 1 {
		t.Errorf("experiments bypassed = %d, want 1", n)
	}
}

// A shed simulate request gets the adaptive Retry-After, and a served
// uncached request feeds the EWMA it is computed from.
func TestSimulateRetryAfterAdapts(t *testing.T) {
	s, ts := newTierServer(t, Config{AdmitSimulate: 1, AdmitQueue: 1})
	c := ts.Client()
	if got := s.admitSim.ewmaNs.Load(); got != 0 {
		t.Fatalf("ewma before any request = %d", got)
	}
	if resp, b := doJSON(t, c, "POST", ts.URL+"/v1/simulate", map[string]any{"kernel": "CoMD"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status = %d: %s", resp.StatusCode, b)
	}
	if got := s.admitSim.ewmaNs.Load(); got <= 0 {
		t.Fatalf("ewma after a served uncached request = %d, want > 0", got)
	}

	// Seed a slow service time, then hold the one slot and the one queue
	// place as a blocked uncached request and a waiting one would.
	s.admitSim.ewmaNs.Store(0)
	s.admitSim.observe(5 * time.Second)
	s.admitSim.slots <- struct{}{}
	s.admitSim.queue <- struct{}{}
	defer func() { <-s.admitSim.queue; <-s.admitSim.slots }()
	resp, b := doJSON(t, c, "POST", ts.URL+"/v1/simulate", map[string]any{"kernel": "SNAP"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("simulate with saturated admission = %d, want 503: %s", resp.StatusCode, b)
	}
	// (1 queued + 1) × 5 s / 1 slot = 10 s.
	if ra := resp.Header.Get("Retry-After"); ra != "10" {
		t.Errorf("Retry-After = %q, want 10", ra)
	}
}
