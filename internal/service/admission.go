package service

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"ena/internal/obs"
)

// Each kind of work has one load governor, and each sheds with 503 +
// Retry-After. Async jobs (explore, scale) have the scheduler's bounded
// queue alone, which decides before the job journal is written (see
// Scheduler.SubmitWithID). The sync cached routes (simulate,
// experiments.run) pass one in-handler admission step, admit: a concurrency
// budget (slots) and a bounded wait queue. A request that finds all slots
// busy waits in the queue; one that finds the queue full is shed at once. A
// key already resident or in flight bypasses the step and coalesces onto the
// cache/singleflight, so a popular key costs one slot however many clients
// ask for it.
//
// Shedding at the door keeps latency bounded under overload — the server
// degrades to a flat ceiling of in-flight work instead of collapsing under
// an unbounded backlog (the saturation curves cmd/enaload records).

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
	bypassed *obs.Counter
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
		bypassed: reg.Counter("service.admit." + route + ".bypassed"),
		depth:    reg.Gauge("service.admit." + route + ".queue_depth"),
	}
}

// acquire obtains an execution slot, waiting in the bounded queue when the
// budget is exhausted. It returns a release func the caller must invoke when
// the request finishes, or an error when the queue is full (shed the load)
// or ctx ends first.
func (a *admission) acquire(ctx context.Context) (func(), error) {
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

// admit is the one admission step of the sync cached routes. A resident key
// (in memory or in flight) is counted as bypassed and takes no slot; any
// other key acquires a slot, or is shed with 503 + Retry-After and admit
// reports false. The returned func releases the slot and folds its hold
// time into the EWMA that later Retry-After hints use.
func (a *admission) admit(ctx context.Context, w http.ResponseWriter, resident bool) (func(), bool) {
	if a == nil {
		return func() {}, true
	}
	if resident {
		a.bypassed.Inc()
		return func() {}, true
	}
	release, err := a.acquire(ctx)
	if err != nil {
		writeBackpressure(w, a.retryAfter(), err)
		return nil, false
	}
	t0 := time.Now()
	return func() {
		a.observe(time.Since(t0))
		release()
	}, true
}

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

// simulateSlots resolves Config.AdmitSimulate: 0 means 2×GOMAXPROCS (the
// analytic model is CPU-bound, so past the core count extra concurrency only
// buys queueing inside the runtime); a negative budget leaves the route
// ungoverned, as newAdmission does for any budget below one.
func simulateSlots(v int) int {
	if v == 0 {
		return 2 * runtime.GOMAXPROCS(0)
	}
	return v
}
