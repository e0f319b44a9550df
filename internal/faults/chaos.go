package faults

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"ena/internal/obs"
)

// ChaosConfig tunes the runtime fault injector. Zero probabilities disable
// the corresponding injection site; the zero value injects nothing.
type ChaosConfig struct {
	// Seed drives the injection draws (deterministic per seed).
	Seed int64
	// PanicProb is the probability a job's worker panics at job start.
	PanicProb float64
	// LatencyProb/MaxLatency inject up to MaxLatency of artificial delay
	// into HTTP request handling.
	LatencyProb float64
	MaxLatency  time.Duration
	// StallProb/MaxStall hold a job's context hostage for up to MaxStall
	// before the job runs (exercises deadline handling).
	StallProb float64
	MaxStall  time.Duration
}

// DefaultChaosConfig is a modest all-sites profile for chaos test runs:
// every injection site fires regularly under load without drowning the
// service (used by `make chaos-short` and the -chaos flag of enaserve).
func DefaultChaosConfig(seed int64) ChaosConfig {
	return ChaosConfig{
		Seed:        seed,
		PanicProb:   0.05,
		LatencyProb: 0.20,
		MaxLatency:  5 * time.Millisecond,
		StallProb:   0.05,
		MaxStall:    5 * time.Millisecond,
	}
}

// Chaos injects runtime faults at the service layer's seams. A nil *Chaos is
// the disabled injector: every method is a cheap no-op, so call sites thread
// it unconditionally. All injections are counted in the registry under
// faults.chaos.*.
type Chaos struct {
	cfg ChaosConfig

	mu  sync.Mutex
	rng *rand.Rand

	panics    *obs.Counter
	latencies *obs.Counter
	stalls    *obs.Counter
}

// NewChaos builds an injector. reg may be nil (counters become no-ops).
func NewChaos(cfg ChaosConfig, reg *obs.Registry) *Chaos {
	return &Chaos{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		panics:    reg.Counter("faults.chaos.panics"),
		latencies: reg.Counter("faults.chaos.latencies"),
		stalls:    reg.Counter("faults.chaos.stalls"),
	}
}

// draw returns a uniform [0,1) float under the injector's lock.
func (c *Chaos) draw() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// ShouldPanic reports whether the worker should panic now (counted).
func (c *Chaos) ShouldPanic() bool {
	if c == nil || c.cfg.PanicProb <= 0 {
		return false
	}
	if c.draw() >= c.cfg.PanicProb {
		return false
	}
	c.panics.Inc()
	return true
}

// Latency returns an artificial delay to add to request handling (0 = none).
func (c *Chaos) Latency() time.Duration {
	if c == nil {
		return 0
	}
	return c.delay(c.cfg.LatencyProb, c.cfg.MaxLatency, c.latencies)
}

// Stall blocks for up to MaxStall (or until ctx ends) when the stall site
// fires, simulating a hung dependency in front of job execution.
func (c *Chaos) Stall(ctx context.Context) {
	if c == nil {
		return
	}
	if d := c.delay(c.cfg.StallProb, c.cfg.MaxStall, c.stalls); d > 0 {
		Wait(ctx, d)
	}
}

// delay draws a site firing with probability prob and, when it fires,
// counts it in ctr and returns a delay in (0, max]; otherwise 0.
func (c *Chaos) delay(prob float64, max time.Duration, ctr *obs.Counter) time.Duration {
	if prob <= 0 || max <= 0 || c.draw() >= prob {
		return 0
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(max))) + 1
	c.mu.Unlock()
	ctr.Inc()
	return d
}

// Wait blocks for d or until ctx ends, whichever comes first.
func Wait(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
