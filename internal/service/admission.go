package service

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ena/internal/obs"
)

// Admission control is the service's one load governor, in front of the
// handlers and the scheduler: each governed route has a concurrency budget
// (slots) and a bounded wait queue.
// A request that finds all slots busy waits in the queue; one that finds the
// queue past its high-water mark is shed immediately with 503 + Retry-After.
// Shedding at the door keeps latency bounded under overload — the server
// degrades to a flat ceiling of in-flight work instead of collapsing under
// an unbounded backlog (the saturation curves cmd/enaload records).
//
// Simulate requests whose canonical key is already resident or in flight
// bypass admission entirely and coalesce onto the cache/singleflight — a
// popular key costs one slot no matter how many clients ask for it.

// admission is one route's concurrency budget and wait queue. A nil
// *admission admits everything (the route is ungoverned).
type admission struct {
	route string
	slots chan struct{}
	queue chan struct{}

	// ewmaNs tracks the route's smoothed service time (α = 0.2), feeding the
	// adaptive Retry-After hint on shed responses.
	ewmaNs atomic.Int64

	admitted *obs.Counter
	queued   *obs.Counter
	rejected *obs.Counter
	depth    *obs.Gauge
}

// newAdmission builds a route governor with the given concurrency budget and
// wait-queue bound. slots <= 0 disables governance (returns nil).
func newAdmission(route string, slots, queueCap int, reg *obs.Registry) *admission {
	if slots <= 0 {
		return nil
	}
	if queueCap <= 0 {
		queueCap = 4 * slots
	}
	return &admission{
		route:    route,
		slots:    make(chan struct{}, slots),
		queue:    make(chan struct{}, queueCap),
		admitted: reg.Counter("service.admit." + route + ".admitted"),
		queued:   reg.Counter("service.admit." + route + ".queued"),
		rejected: reg.Counter("service.admit." + route + ".rejected"),
		depth:    reg.Gauge("service.admit." + route + ".queue_depth"),
	}
}

// acquire obtains an execution slot, waiting in the bounded queue when the
// budget is exhausted. It returns a release func the caller must invoke when
// the request finishes, or an error when the queue is full (shed the load)
// or ctx ends first.
func (a *admission) acquire(ctx context.Context) (func(), error) {
	if a == nil {
		return func() {}, nil
	}
	select {
	case a.slots <- struct{}{}:
		a.admitted.Inc()
		return a.release, nil
	default:
	}
	select {
	case a.queue <- struct{}{}:
	default:
		a.rejected.Inc()
		return nil, fmt.Errorf("service: %s admission queue full", a.route)
	}
	a.queued.Inc()
	a.depth.Set(float64(len(a.queue)))
	defer func() {
		<-a.queue
		a.depth.Set(float64(len(a.queue)))
	}()
	select {
	case a.slots <- struct{}{}:
		a.admitted.Inc()
		return a.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (a *admission) release() { <-a.slots }

// observe folds one completed request's service time into the route's EWMA.
func (a *admission) observe(d time.Duration) {
	if a == nil {
		return
	}
	foldEwma(&a.ewmaNs, d)
}

// foldEwma folds a duration into an atomic EWMA accumulator (α = 0.2; the
// first observation seeds it).
func foldEwma(acc *atomic.Int64, d time.Duration) {
	if d <= 0 {
		return
	}
	const alpha = 0.2
	for {
		old := acc.Load()
		next := int64(d)
		if old > 0 {
			next = int64(alpha*float64(d) + (1-alpha)*float64(old))
		}
		if acc.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter is the adaptive Retry-After hint for a shed response on this
// route: how long until the current backlog drains at the observed service
// rate. A nil (ungoverned) admission hints the 1-second floor.
func (a *admission) retryAfter() int {
	if a == nil {
		return 1
	}
	return retryAfterHint(len(a.queue), cap(a.slots), a.ewmaNs.Load())
}

// retryAfterHint estimates seconds until a shed client should retry: the
// queued requests ahead of it, plus its own, served slots-at-a-time at the
// EWMA service time — ceil((depth+1) × ewma / slots) — clamped to [1, 30].
// With no observation yet (ewma 0) the floor applies: better to invite an
// early retry than to park clients on a guess.
func retryAfterHint(depth, slots int, ewmaNs int64) int {
	if slots < 1 {
		slots = 1
	}
	if depth < 0 {
		depth = 0
	}
	if ewmaNs <= 0 {
		return 1
	}
	waitNs := float64(depth+1) * float64(ewmaNs) / float64(slots)
	secs := int((waitNs + float64(time.Second) - 1) / float64(time.Second))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// defaultAdmit resolves an admission budget config value: 0 means the
// default, negative disables.
func defaultAdmit(v, def int) int {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// defaultSimulateSlots is the default simulate concurrency budget: the
// analytic model is CPU-bound, so past the core count extra concurrency only
// buys queueing inside the runtime.
func defaultSimulateSlots() int { return 2 * runtime.GOMAXPROCS(0) }

// defaultSweepSlots is the default budget for the sweep-shaped routes
// (explore/scale submissions and synchronous experiment runs).
func defaultSweepSlots() int { return runtime.GOMAXPROCS(0) }
