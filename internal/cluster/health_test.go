package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ena/internal/dse"
	"ena/internal/obs"
)

func TestProberStartsOptimistic(t *testing.T) {
	p := NewProber([]string{"http://a", "http://b"}, time.Second, obs.NewRegistry())
	h := p.Healthy()
	if len(h) != 2 || h[0] != "http://a" || h[1] != "http://b" {
		t.Fatalf("Healthy = %v, want both peers before any probe", h)
	}
}

func TestProberDownAndRejoin(t *testing.T) {
	var fail atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(srv.Close)

	reg := obs.NewRegistry()
	p := NewProber([]string{srv.URL}, 10*time.Millisecond, reg)

	// A reported failure retires the peer immediately.
	p.ReportFailure(srv.URL)
	if len(p.Healthy()) != 0 {
		t.Fatal("peer still healthy after ReportFailure")
	}
	if g := reg.Gauge("cluster.peers_healthy").Value(); g != 0 {
		t.Fatalf("peers_healthy gauge = %v, want 0", g)
	}

	// Probe rounds while the peer answers again: once the backoff expires it
	// rejoins automatically.
	deadline := time.Now().Add(5 * time.Second)
	for len(p.Healthy()) == 0 && time.Now().Before(deadline) {
		p.probeRound(context.Background())
		time.Sleep(5 * time.Millisecond)
	}
	if len(p.Healthy()) != 1 {
		t.Fatal("peer never rejoined after recovering")
	}
	if reg.Counter("cluster.peer_rejoins").Value() == 0 {
		t.Error("rejoin not counted")
	}

	// Now the peer actually fails: probes notice without any coordinator
	// involvement.
	fail.Store(true)
	deadline = time.Now().Add(5 * time.Second)
	for len(p.Healthy()) == 1 && time.Now().Before(deadline) {
		p.probeRound(context.Background())
		time.Sleep(5 * time.Millisecond)
	}
	if len(p.Healthy()) != 0 {
		t.Fatal("probe never detected the failing peer")
	}
	if reg.Counter("cluster.probe_failures").Value() == 0 {
		t.Error("probe failure not counted")
	}
}

func TestProberBackoffGrows(t *testing.T) {
	p := NewProber([]string{"http://gone"}, 100*time.Millisecond, obs.NewRegistry())
	var gaps []time.Duration
	for i := 0; i < 5; i++ {
		p.ReportFailure("http://gone")
		p.mu.Lock()
		gaps = append(gaps, time.Until(p.peers["http://gone"].nextProbe))
		p.mu.Unlock()
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] < gaps[i-1] {
			t.Fatalf("backoff shrank: %v", gaps)
		}
	}
	if gaps[len(gaps)-1] > maxProbeBackoff+time.Second {
		t.Fatalf("backoff exceeded cap: %v", gaps[len(gaps)-1])
	}
	// Many more failures must not overflow the shift.
	for i := 0; i < 100; i++ {
		p.ReportFailure("http://gone")
	}
	p.mu.Lock()
	gap := time.Until(p.peers["http://gone"].nextProbe)
	p.mu.Unlock()
	if gap <= 0 || gap > maxProbeBackoff+time.Second {
		t.Fatalf("backoff after 100 failures = %v", gap)
	}
}

func TestProberNilSafe(t *testing.T) {
	var p *Prober
	p.ReportFailure("x")
	p.ReportSuccess("x")
	if p.Healthy() != nil {
		t.Fatal("nil prober not inert")
	}
	p.Run(context.Background()) // returns immediately
}

func TestProberUnknownPeerIgnored(t *testing.T) {
	p := NewProber([]string{"http://a"}, time.Second, obs.NewRegistry())
	p.ReportFailure("http://stranger")
	p.ReportSuccess("http://stranger")
	if len(p.Healthy()) != 1 {
		t.Fatal("reports about unknown peers changed membership")
	}
}

// gatedWorker wraps a worker handler: pings answer after pingDelay, and the
// first two shard requests wait until both are in flight at once, so a peer
// that pulls only one shard at a time never opens the gate.
type gatedWorker struct {
	inner     http.Handler
	pingDelay time.Duration

	mu       sync.Mutex
	inflight int
	peak     int
	seen     int
	both     chan struct{}
	open     sync.Once
	timedOut atomic.Bool
}

func newGatedWorker(pingDelay time.Duration) *gatedWorker {
	return &gatedWorker{inner: WorkerHandler(obs.NewRegistry()), pingDelay: pingDelay, both: make(chan struct{})}
}

func (g *gatedWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/ping") {
		time.Sleep(g.pingDelay)
		g.inner.ServeHTTP(w, r)
		return
	}
	g.mu.Lock()
	g.seen++
	gated := g.seen <= 2
	g.inflight++
	g.peak = max(g.peak, g.inflight)
	if g.inflight == 2 {
		g.open.Do(func() { close(g.both) })
	}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.inflight--
		g.mu.Unlock()
	}()
	if gated {
		select {
		case <-g.both:
		case <-time.After(10 * time.Second):
			g.timedOut.Store(true) // fail the test, but let the sweep finish
		}
	}
	g.inner.ServeHTTP(w, r)
}

// TestSlowPingingPeerStillPullsTwoShards: probe latency does not throttle a
// peer. After a probe round in which one worker answers pings far slower than
// the other, both still hold two shards in flight at once, and the merged
// sweep is the single-process one.
func TestSlowPingingPeerStillPullsTwoShards(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0
	want := dse.Explore(space, kernels, budget, 0)

	fast, slow := newGatedWorker(0), newGatedWorker(50*time.Millisecond)
	fastSrv, slowSrv := httptest.NewServer(fast), httptest.NewServer(slow)
	t.Cleanup(fastSrv.Close)
	t.Cleanup(slowSrv.Close)

	reg := obs.NewRegistry()
	p := NewProber([]string{fastSrv.URL, slowSrv.URL}, time.Hour, reg)
	p.probeRound(context.Background())
	if len(p.Healthy()) != 2 || reg.Counter("cluster.probe_success").Value() != 2 {
		t.Fatalf("probe round: healthy = %v", p.Healthy())
	}
	c := NewCoordinator([]string{fastSrv.URL, slowSrv.URL}, reg)
	c.SetProber(p)
	got, err := c.Explore(context.Background(), space, kernels, names, budget, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded Outcome differs from the single-process sweep")
	}
	for name, g := range map[string]*gatedWorker{"fast": fast, "slow": slow} {
		g.mu.Lock()
		peak := g.peak
		g.mu.Unlock()
		if g.timedOut.Load() || peak < 2 {
			t.Errorf("%s peer: peak concurrent shards = %d, want 2 (gate timed out: %v)", name, peak, g.timedOut.Load())
		}
	}
}
