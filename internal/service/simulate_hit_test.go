package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ena/internal/core"
	"ena/internal/store"
)

// Tests for the simulate cache's encoded form: a hit, a coalesced follower
// and a store read send stored bytes, and those bytes must be exactly what
// encoding the answer for that reply would give.

// simulateRec posts body to h in process.
func simulateRec(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
	return rec
}

// wireBody is writeJSON's body for resp with the given cached flag.
func wireBody(resp SimulateResponse, cached bool) string {
	resp.Cached = cached
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.String()
}

// modelAnswer is the simulate answer for req, taken from the model directly.
func modelAnswer(t *testing.T, req SimulateRequest) SimulateResponse {
	t.Helper()
	job, err := req.resolve()
	if err == nil {
		err = job.node()
	}
	if err != nil {
		t.Fatal(err)
	}
	res := core.Simulate(job.cfg, job.kernel, job.opt)
	return SimulateResponse{
		Key:      job.key,
		Config:   job.view,
		Kernel:   job.kernel.Name,
		TFLOPs:   res.Perf.TFLOPs,
		Bound:    res.Perf.Bound.String(),
		MissFrac: res.MissFrac,
		NodeW:    res.NodeW,
		PackageW: res.Power.PackageW(),
		GFperW:   res.GFperW,
	}
}

// expectBody fails the test unless rec is a JSON 200 carrying want.
func expectBody(t *testing.T, what string, rec *httptest.ResponseRecorder, want string) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", what, ct)
	}
	if got := rec.Body.String(); got != want {
		t.Errorf("%s body differs from the encoded answer:\ngot  %q\nwant %q", what, got, want)
	}
}

const hitBody = `{"kernel":"CoMD","cus":256,"freq_mhz":1200}`

var hitReq = SimulateRequest{Kernel: "CoMD", CUs: 256, FreqMHz: 1200}

func TestSimulateLeaderAndHitBodies(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	want := modelAnswer(t, hitReq)
	expectBody(t, "leader", simulateRec(h, hitBody), wireBody(want, false))
	for i := 0; i < 2; i++ {
		expectBody(t, "hit", simulateRec(h, hitBody), wireBody(want, true))
	}
	if n := s.Registry().Snapshot().Counters["service.sim.executions"]; n != 1 {
		t.Errorf("model ran %d times, want 1", n)
	}
}

// The followers join a flight the test holds open; the flight's value is
// the encoded answer the handler's own leader cached, taken back out of
// memory so that only the flight can serve the key.
func TestSimulateCoalescedBodies(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	want := modelAnswer(t, hitReq)
	simulateRec(h, hitBody)
	blob, ok := s.cache.Get(want.Key)
	if !ok {
		t.Fatal("the leader's answer is not cached")
	}
	s.cache.mu.Lock()
	s.cache.entries.Remove(want.Key)
	s.cache.mu.Unlock()

	gate, held := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(held)
		s.cache.DoPersist(context.Background(), want.Key, nil, func() (any, error) {
			<-gate
			return blob, nil
		})
	}()
	for !s.cache.Contains(want.Key) {
		runtime.Gosched()
	}
	const followers = 4
	recs := make([]*httptest.ResponseRecorder, followers)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = simulateRec(h, hitBody)
		}()
	}
	waitCoalesced(t, s.cache, followers)
	close(gate)
	wg.Wait()
	<-held
	for _, rec := range recs {
		expectBody(t, "coalesced follower", rec, wireBody(want, true))
	}
	if n := s.Registry().Snapshot().Counters["service.sim.executions"]; n != 1 {
		t.Errorf("model ran %d times, want 1", n)
	}
}

// The store holds the bytes the memory cache holds, and a restarted server
// sends them unchanged.
func TestSimulateStoreReadBodies(t *testing.T) {
	dir := t.TempDir()
	want := modelAnswer(t, hitReq)
	st1, err := store.Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := newTierServer(t, Config{Store: st1})
	expectBody(t, "leader", simulateRec(s1.Handler(), hitBody), wireBody(want, false))
	mem, _ := s1.cache.Get(want.Key)
	disk, ok := st1.Get(want.Key)
	if !ok || !bytes.Equal(mem.([]byte), disk) {
		t.Fatalf("store blob differs from the memory entry:\nstore  %q\nmemory %q", disk, mem)
	}

	st2, err := store.Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newTierServer(t, Config{Store: st2})
	expectBody(t, "store read", simulateRec(s2.Handler(), hitBody), wireBody(want, true))
	expectBody(t, "hit after a store read", simulateRec(s2.Handler(), hitBody), wireBody(want, true))
	if n := s2.Registry().Snapshot().Counters["service.sim.executions"]; n != 0 {
		t.Errorf("restarted server ran the model %d times, want 0", n)
	}
}

// A blob from a build that cached the response struct is compact JSON with
// "cached": false; it must still be served byte-identical to a fresh hit.
func TestSimulateServesOldStoreBlob(t *testing.T) {
	want := modelAnswer(t, hitReq)
	st, err := store.Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(want.Key, old); err != nil {
		t.Fatal(err)
	}
	s, _ := newTierServer(t, Config{Store: st})
	expectBody(t, "old blob", simulateRec(s.Handler(), hitBody), wireBody(want, true))
	if n := s.Registry().Snapshot().Counters["service.sim.executions"]; n != 0 {
		t.Errorf("model ran %d times for a stored key, want 0", n)
	}
}

// A detailed hit decodes the cached analytic answer and merges the detailed
// phase into it, so it must match the leader's answer in all but Cached.
func TestSimulateDetailedHitBody(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	const body = `{"kernel":"SNAP","fault_mask":"gpu:2","seed":7,"detailed":true}`
	leader := simulateRec(h, body)
	var resp SimulateResponse
	if err := json.Unmarshal(leader.Body.Bytes(), &resp); err != nil || leader.Code != http.StatusOK {
		t.Fatalf("leader: status %d, %v: %s", leader.Code, err, leader.Body)
	}
	if resp.Cached || !resp.Detailed {
		t.Fatalf("leader answer cached=%v detailed=%v", resp.Cached, resp.Detailed)
	}
	expectBody(t, "leader", leader, wireBody(resp, false))
	expectBody(t, "detailed hit", simulateRec(h, body), wireBody(resp, true))
}

// The node is built only for a key that is not resident, so an invalid
// node must still get its own 400, whatever the cache holds and whatever
// later check the request also fails.
func TestSimulateInvalidAxesKeepTheirErrors(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	cases := []struct{ body, msg string }{
		{`{"kernel":"CoMD","cus":3}`, "arch: chiplet with 0 CUs"},
		{`{"kernel":"CoMD","cus":1000}`, "arch: CU count exceeds the 384-CU package area budget"},
		{`{"kernel":"CoMD","freq_mhz":-1}`, "arch: GPU frequency must be positive"},
		{`{"kernel":"CoMD","bw_tbps":-1}`, "arch: HBM stack bandwidth must be positive (stack 0)"},
		{`{"kernel":"CoMD","cus":3,"scenario":"bogus"}`, "arch: chiplet with 0 CUs"},
		{`{"kernel":"CoMD","cus":3,"fault_mask":"bogus"}`, "arch: chiplet with 0 CUs"},
		{`{"kernel":"CoMD","cus":3,"qps":5}`, "arch: chiplet with 0 CUs"},
		{`{"kernel":"CoMD","cus":3,"detailed":true}`, "arch: chiplet with 0 CUs"},
	}
	check := func(when string) {
		t.Helper()
		for _, c := range cases {
			rec := simulateRec(h, c.body)
			want := "{\n  \"error\": \"" + c.msg + "\"\n}\n"
			if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
				t.Errorf("%s %s: status %d body %q, want 400 %q", when, c.body, rec.Code, rec.Body, want)
			}
		}
	}
	check("cold")
	for _, b := range []string{
		`{"kernel":"CoMD"}`,
		`{"kernel":"CoMD","cus":8}`,
		`{"kernel":"CoMD","cus":384}`,
		`{"kernel":"CoMD","freq_mhz":1}`,
		`{"kernel":"CoMD","bw_tbps":0.001}`,
	} {
		if rec := simulateRec(h, b); rec.Code != http.StatusOK {
			t.Fatalf("warming %s: status %d: %s", b, rec.Code, rec.Body)
		}
	}
	check("warm")
	if n := s.Registry().Snapshot().Counters["service.sim.executions"]; n != 5 {
		t.Errorf("model ran %d times, want one per valid request (5)", n)
	}
}

// maxHitAllocs pins the allocations of one warmed hit through the handler,
// recorder and request included (70 when a hit rebuilt the node and
// re-encoded the answer).
const maxHitAllocs = 35

// raceEnabled is set by race_test.go in -race builds, whose sync.Pools drop
// items at random and so allocate a varying extra few times per request.
var raceEnabled bool

func TestSimulateHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	s, _ := newTestServer(t)
	h := s.Handler()
	body := []byte(`{"kernel":"CoMD"}`)
	serve := func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
	}
	serve()
	if n := testing.AllocsPerRun(200, serve); n > maxHitAllocs {
		t.Errorf("a warmed hit allocates %.0f times, want at most %d", n, maxHitAllocs)
	}
}
