package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ena/internal/dse"
	"ena/internal/obs"
)

// manualClock replaces c's clock with one that only moves when the returned
// advance is called.
func manualClock(c *Coordinator) (advance func(time.Duration)) {
	var elapsed atomic.Int64
	t0 := time.Unix(0, 0)
	c.now = func() time.Time { return t0.Add(time.Duration(elapsed.Load())) }
	return func(d time.Duration) { elapsed.Add(int64(d)) }
}

// backoffOf is peer's current backoff, zero when it is not down.
func backoffOf(c *Coordinator, peer string) time.Duration {
	c.downMu.Lock()
	defer c.downMu.Unlock()
	return c.down[peer].wait
}

var failingPeer = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "down", http.StatusInternalServerError)
})

// switchPeer counts the requests it gets and serves them through whichever
// handler was set last.
type switchPeer struct {
	hits atomic.Int64
	mu   sync.Mutex
	h    http.Handler
}

func (p *switchPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.hits.Add(1)
	p.mu.Lock()
	h := p.h
	p.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (p *switchPeer) set(h http.Handler) {
	p.mu.Lock()
	p.h = h
	p.mu.Unlock()
}

// TestCoordinatorSkipsUnhealthyPeers walks one peer through a failure, its
// backoff, a failed retry and a recovery. Every sweep matches the
// single-process one, whoever evaluated it.
func TestCoordinatorSkipsUnhealthyPeers(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0
	want := dse.Explore(space, kernels, budget, 0)

	peer := &switchPeer{h: failingPeer}
	srv := httptest.NewServer(peer)
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry()
	c := NewCoordinator([]string{srv.URL}, reg)
	advance := manualClock(c)
	fallback := reg.Counter("cluster.local_fallback_shards")
	healthy := reg.Gauge("cluster.peers_healthy")
	sweep := func(step string) {
		t.Helper()
		got, err := c.Explore(context.Background(), space, kernels, names, budget, 0, "")
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sweep differs from the single-process sweep", step)
		}
	}

	sweep("first failure")
	hits := peer.hits.Load()
	if hits == 0 || fallback.Value() == 0 {
		t.Fatalf("first sweep: %d peer requests, %d local shards; want both > 0", hits, fallback.Value())
	}
	if b := backoffOf(c, srv.URL); b != minPeerBackoff || healthy.Value() != 0 {
		t.Fatalf("after one failure: backoff %v, peers_healthy %v; want %v, 0", b, healthy.Value(), minPeerBackoff)
	}

	sweep("inside the backoff")
	if n := peer.hits.Load(); n != hits {
		t.Fatalf("down peer received %d requests inside its backoff", n-hits)
	}

	advance(minPeerBackoff)
	c.activePeers()
	if healthy.Value() != 1 {
		t.Fatalf("backoff expired: peers_healthy %v, want 1", healthy.Value())
	}
	sweep("backoff expired")
	if peer.hits.Load() == hits {
		t.Fatal("peer not retried once its backoff expired")
	}
	if b := backoffOf(c, srv.URL); b != 2*minPeerBackoff {
		t.Fatalf("after a failed retry: backoff %v, want %v", b, 2*minPeerBackoff)
	}

	peer.set(WorkerHandler(obs.NewRegistry()))
	advance(2 * minPeerBackoff)
	hits, local := peer.hits.Load(), fallback.Value()
	sweep("recovered")
	if peer.hits.Load() == hits || fallback.Value() != local {
		t.Fatalf("recovered peer: %d requests, %d new local shards; want > 0, 0", peer.hits.Load()-hits, fallback.Value()-local)
	}
	if b := backoffOf(c, srv.URL); b != 0 || healthy.Value() != 1 {
		t.Fatalf("recovered peer: backoff %v, peers_healthy %v; want 0, 1", b, healthy.Value())
	}
}

// TestSilentPeerFailsItsShard: a peer that accepts a shard and then sends
// nothing, before its header (a SIGSTOPped worker) or after it (a worker
// stopped mid-stream), fails the shard at the idle deadline while the job is
// live. The sweep completes by local fallback, and the next sweep leaves the
// peer out for its backoff.
func TestSilentPeerFailsItsShard(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0
	want := dse.Explore(space, kernels, budget, 0)

	for _, tc := range []struct {
		name   string
		header bool
	}{{"before the header", false}, {"mid-stream", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			release := make(chan struct{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				if tc.header {
					w.WriteHeader(http.StatusOK)
					w.(http.Flusher).Flush()
				}
				select {
				case <-r.Context().Done():
				case <-release:
				}
			}))
			t.Cleanup(srv.Close)
			t.Cleanup(func() { close(release) })
			reg := obs.NewRegistry()
			c := NewCoordinator([]string{srv.URL}, reg)
			c.idle = 50 * time.Millisecond
			manualClock(c)
			// Without the idle deadline a sweep waits for this context and
			// fails.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			sweep := func(step string) {
				t.Helper()
				got, err := c.Explore(ctx, space, kernels, names, budget, 0, "")
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: sweep differs from the single-process sweep", step)
				}
			}

			sweep("silent peer")
			n := hits.Load()
			if n == 0 || reg.Counter("cluster.peer_failures").Value() == 0 {
				t.Fatalf("silent peer: %d requests, %d peer failures; want both > 0", n, reg.Counter("cluster.peer_failures").Value())
			}
			if b := backoffOf(c, srv.URL); b != minPeerBackoff {
				t.Fatalf("silent peer: backoff %v, want %v", b, minPeerBackoff)
			}
			sweep("inside the backoff")
			if m := hits.Load(); m != n {
				t.Fatalf("silent peer received %d requests inside its backoff", m-n)
			}
		})
	}
}

// TestKeepaliveOutlastsIdleDeadline: a worker whose items each take longer
// than the coordinator's idle deadline keeps its shards alive with keepalive
// spaces, so every item streams and the peer is never failed.
func TestKeepaliveOutlastsIdleDeadline(t *testing.T) {
	kernels, names := testKernels(t)
	const budget = 160.0
	pts := []dse.Point{{CUs: 320, FreqMHz: 1000, BWTBps: 3}, {CUs: 256, FreqMHz: 800, BWTBps: 1}}
	want := make([]dse.Eval, len(pts))
	for i, p := range pts {
		ev, err := dse.EvaluatePointContext(context.Background(), p, kernels, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ev
	}

	wk := &worker{delay: 300 * time.Millisecond, keepalive: 15 * time.Millisecond}
	srv := httptest.NewServer(serveShard(wk, prepareExplore))
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry()
	c := NewCoordinator([]string{srv.URL}, reg)
	c.idle = 150 * time.Millisecond
	got, err := c.EvaluatePoints(context.Background(), pts, kernels, names, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("evals differ from local evaluation")
	}
	if n := reg.Counter("cluster.items_streamed").Value(); n != int64(len(pts)) {
		t.Errorf("items_streamed = %d, want %d", n, len(pts))
	}
	if n := reg.Counter("cluster.peer_failures").Value(); n != 0 {
		t.Errorf("peer_failures = %d; the keepalive did not hold the idle deadline off", n)
	}
}

func TestPeerBackoffDoublesToCap(t *testing.T) {
	const peer = "http://gone"
	c := NewCoordinator([]string{peer}, obs.NewRegistry())
	advance := manualClock(c)
	for i, want := range []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second, 30 * time.Second, 30 * time.Second} {
		c.recordOutcome(peer, false)
		if b := backoffOf(c, peer); b != want {
			t.Fatalf("failure %d: backoff %v, want %v", i+1, b, want)
		}
	}
	for range 100 {
		c.recordOutcome(peer, false)
	}
	if b := backoffOf(c, peer); b != maxPeerBackoff {
		t.Fatalf("after 106 failures: backoff %v, want %v", b, maxPeerBackoff)
	}
	advance(maxPeerBackoff - time.Nanosecond)
	if p := c.activePeers(); len(p) != 0 {
		t.Fatalf("active before the backoff expired: %v", p)
	}
	advance(time.Nanosecond)
	if p := c.activePeers(); len(p) != 1 {
		t.Fatalf("not active once the backoff expired: %v", p)
	}
}

// TestConcurrentSweepsSharePeerBackoff: two jobs on one coordinator, one
// failing peer and one good one. Both merge to the single-process sweep,
// and the good peer is never marked down.
func TestConcurrentSweepsSharePeerBackoff(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0
	want := dse.Explore(space, kernels, budget, 0)

	bad := httptest.NewServer(failingPeer)
	t.Cleanup(bad.Close)
	good := newWorkerServer(t)
	c := NewCoordinator([]string{bad.URL, good.URL}, obs.NewRegistry())
	var got [2]dse.Outcome
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.Explore(context.Background(), space, kernels, names, budget, 0, "")
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("job %d differs from the single-process sweep", i)
		}
	}
	if b := backoffOf(c, good.URL); b != 0 {
		t.Fatalf("good peer marked down for %v", b)
	}
}

// shardGate fronts several peers and holds the first n shard requests,
// whichever peers they reach, until all n have arrived. None of them
// completes before then, so each comes from a different puller: with n =
// pullersPerPeer per peer, the gate opens only if every peer has two shards
// in flight at once. A gate over one peer alone would race: the other peer
// could drain the queue before this one's second puller is scheduled.
type shardGate struct {
	n        int
	open     chan struct{}
	timedOut atomic.Bool

	mu       sync.Mutex
	seen     int
	inflight map[string]int
	peak     map[string]int
}

func newShardGate(n int) *shardGate {
	return &shardGate{n: n, open: make(chan struct{}), inflight: map[string]int{}, peak: map[string]int{}}
}

// peer is a worker handler behind the gate, tracked under name.
func (g *shardGate) peer(name string) http.Handler {
	inner := WorkerHandler(obs.NewRegistry())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		g.seen++
		gated := g.seen <= g.n
		if g.seen == g.n {
			close(g.open)
		}
		g.inflight[name]++
		g.peak[name] = max(g.peak[name], g.inflight[name])
		g.mu.Unlock()
		defer func() {
			g.mu.Lock()
			g.inflight[name]--
			g.mu.Unlock()
		}()
		if gated {
			select {
			case <-g.open:
			case <-time.After(10 * time.Second):
				g.timedOut.Store(true) // fail the test, but let the sweep finish
			}
		}
		inner.ServeHTTP(w, r)
	})
}

// TestEachPeerPullsTwoShards: every peer holds two shards in flight at once,
// and the merged sweep is the single-process one.
func TestEachPeerPullsTwoShards(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0
	want := dse.Explore(space, kernels, budget, 0)

	gate := newShardGate(2 * pullersPerPeer)
	aSrv, bSrv := httptest.NewServer(gate.peer("a")), httptest.NewServer(gate.peer("b"))
	t.Cleanup(aSrv.Close)
	t.Cleanup(bSrv.Close)

	c := NewCoordinator([]string{aSrv.URL, bSrv.URL}, obs.NewRegistry())
	got, err := c.Explore(context.Background(), space, kernels, names, budget, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded Outcome differs from the single-process sweep")
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	for _, name := range []string{"a", "b"} {
		if gate.timedOut.Load() || gate.peak[name] < 2 {
			t.Errorf("peer %s: peak concurrent shards = %d, want 2 (gate timed out: %v)", name, gate.peak[name], gate.timedOut.Load())
		}
	}
}
