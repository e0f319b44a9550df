package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"ena/internal/obs"
)

// Prober default tuning.
const (
	DefaultProbeInterval = 2 * time.Second
	probeTimeout         = 5 * time.Second
	maxProbeBackoff      = 30 * time.Second
)

// Prober tracks worker-peer health. Peers start healthy (optimistic — the
// first job does not wait for a probe round); a failure reported by the
// coordinator or observed by a probe marks the peer down, and down peers are
// re-probed on an exponential backoff until they answer, at which point they
// rejoin automatically — a retired peer is a peer resting, not a peer gone.
//
// A nil *Prober is inert: Healthy returns nil, reports are no-ops.
type Prober struct {
	interval time.Duration
	client   *http.Client

	mu    sync.Mutex
	order []string
	peers map[string]*peerHealth

	probeOK      *obs.Counter
	probeFail    *obs.Counter
	rejoins      *obs.Counter
	failsCtr     *obs.Counter
	healthyGauge *obs.Gauge
}

type peerHealth struct {
	healthy   bool
	fails     int       // consecutive failures, drives the probe backoff
	nextProbe time.Time // down peers only: when the next probe is due
}

// NewProber builds a prober over the peer base URLs. interval <= 0 uses
// DefaultProbeInterval. Metrics land in reg under cluster.probe_* /
// cluster.peers_healthy / cluster.peer_rejoins.
func NewProber(peers []string, interval time.Duration, reg *obs.Registry) *Prober {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	p := &Prober{
		interval:     interval,
		client:       &http.Client{Timeout: probeTimeout},
		order:        append([]string(nil), peers...),
		peers:        make(map[string]*peerHealth, len(peers)),
		probeOK:      reg.Counter("cluster.probe_success"),
		probeFail:    reg.Counter("cluster.probe_failures"),
		rejoins:      reg.Counter("cluster.peer_rejoins"),
		failsCtr:     reg.Counter("cluster.peer_failures_reported"),
		healthyGauge: reg.Gauge("cluster.peers_healthy"),
	}
	for _, u := range peers {
		p.peers[u] = &peerHealth{healthy: true}
	}
	p.publishLocked()
	return p
}

// Run probes until ctx ends: healthy peers every interval, down peers when
// their backoff expires. Call it once, in its own goroutine.
func (p *Prober) Run(ctx context.Context) {
	if p == nil {
		return
	}
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.probeRound(ctx)
		}
	}
}

func (p *Prober) probeRound(ctx context.Context) {
	now := time.Now()
	var due []string
	p.mu.Lock()
	for _, u := range p.order {
		ph := p.peers[u]
		if ph.healthy || !now.Before(ph.nextProbe) {
			due = append(due, u)
		}
	}
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, u := range due {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			if err := p.probe(ctx, u); err != nil {
				p.probeFail.Inc()
				p.markDown(u)
				return
			}
			p.probeOK.Inc()
			p.ReportSuccess(u)
		}(u)
	}
	wg.Wait()
}

func (p *Prober) probe(ctx context.Context, peer string) error {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/internal/ping", nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	// Drain before closing so the next probe reuses this connection
	// instead of dialing the peer again.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errStatus(resp.Status)
	}
	return nil
}

type errStatus string

func (e errStatus) Error() string { return "cluster: probe: " + string(e) }

// ReportFailure marks a peer down (called by the coordinator when a shard
// stream fails, and by failed probes). The peer's next probe backs off
// exponentially with consecutive failures, capped at maxProbeBackoff.
func (p *Prober) ReportFailure(peer string) {
	if p == nil {
		return
	}
	p.failsCtr.Inc()
	p.markDown(peer)
}

func (p *Prober) markDown(peer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ph, ok := p.peers[peer]
	if !ok {
		return
	}
	ph.healthy = false
	if ph.fails < 30 { // cap the shift, not just the backoff
		ph.fails++
	}
	backoff := p.interval << (ph.fails - 1)
	if backoff > maxProbeBackoff || backoff <= 0 {
		backoff = maxProbeBackoff
	}
	ph.nextProbe = time.Now().Add(backoff)
	p.publishLocked()
}

// ReportSuccess marks a peer healthy (called after a good probe or a
// completed shard). A down peer rejoins.
func (p *Prober) ReportSuccess(peer string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ph, ok := p.peers[peer]
	if !ok {
		return
	}
	if !ph.healthy {
		p.rejoins.Inc()
	}
	ph.healthy = true
	ph.fails = 0
	p.publishLocked()
}

// Healthy returns the currently healthy peers, in configuration order.
func (p *Prober) Healthy() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.order))
	for _, u := range p.order {
		if p.peers[u].healthy {
			out = append(out, u)
		}
	}
	return out
}

// publishLocked refreshes the healthy-peer gauge. Callers hold p.mu (or the
// prober is freshly built and unshared).
func (p *Prober) publishLocked() {
	n := 0
	for _, ph := range p.peers {
		if ph.healthy {
			n++
		}
	}
	p.healthyGauge.Set(float64(n))
}
