// Package serving simulates an inference-serving queue on one node: an
// open-loop Poisson request stream feeding a single batched FIFO server
// whose per-batch service time the caller derives from the roofline model
// (e.g. a transformer block's execution time at that batch size on the
// configured EHP). It reuses the discrete-event kernel that backs the
// memory-system and NoC models, so batching dynamics — requests coalescing
// while the server is busy, batch-size-dependent service times, tail growth
// as offered load approaches capacity — come out of event ordering rather
// than closed-form queueing approximations.
//
// The simulator is deliberately deterministic: arrivals come from a seeded
// generator and the event kernel breaks ties by sequence number, so a given
// Options value always produces bit-identical Results. The experiment layer
// leans on that for golden snapshots and worker-count determinism tests.
package serving

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ena/internal/event"
	"ena/internal/stats"
)

// maxBatchLimit bounds the coalescing window. Service-time callbacks are
// probed for every reachable batch size during validation, so the cap keeps
// that probe (and any caller-side per-batch table) small.
const maxBatchLimit = 4096

// maxRequests bounds one run; each request is O(1) events, so this caps a
// simulation at a few million events.
const maxRequests = 1 << 22

// Options configures one serving simulation.
type Options struct {
	// QPS is the offered request rate (requests per second). Arrivals are
	// Poisson: exponential inter-arrival gaps drawn from Seed.
	QPS float64
	// MaxBatch is the largest number of queued requests the server coalesces
	// into one service batch (the canonical dynamic-batching knob).
	MaxBatch int
	// Requests is the number of requests to simulate.
	Requests int
	// Seed feeds the arrival-process generator.
	Seed int64
	// ServiceNs returns the service time, in nanoseconds, of one batch of n
	// requests (1 <= n <= MaxBatch). It must be positive and finite for
	// every reachable n; Validate probes the full range.
	ServiceNs func(batch int) float64
}

// Validate rejects unusable options with a descriptive error.
func (o Options) Validate() error {
	switch {
	case math.IsNaN(o.QPS) || math.IsInf(o.QPS, 0) || o.QPS <= 0:
		return fmt.Errorf("serving: QPS must be positive and finite (got %v)", o.QPS)
	case o.MaxBatch < 1:
		return fmt.Errorf("serving: MaxBatch must be at least 1 (got %d)", o.MaxBatch)
	case o.MaxBatch > maxBatchLimit:
		return fmt.Errorf("serving: MaxBatch %d too large (max %d)", o.MaxBatch, maxBatchLimit)
	case o.Requests < 1:
		return fmt.Errorf("serving: Requests must be at least 1 (got %d)", o.Requests)
	case o.Requests > maxRequests:
		return fmt.Errorf("serving: Requests %d too large (max %d)", o.Requests, maxRequests)
	case o.ServiceNs == nil:
		return fmt.Errorf("serving: ServiceNs callback is required")
	case float64(o.Requests)*1e9/o.QPS > math.MaxFloat64/4:
		// Arrival timestamps sum Requests exponential gaps of mean 1e9/QPS
		// ns; a horizon this close to overflow would reach +Inf.
		return fmt.Errorf("serving: QPS %v too low for %d requests: the arrival times overflow", o.QPS, o.Requests)
	}
	for b := 1; b <= o.MaxBatch; b++ {
		if s := o.ServiceNs(b); math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
			return fmt.Errorf("serving: ServiceNs(%d) must be positive and finite (got %v)", b, s)
		}
	}
	return nil
}

// Result summarizes one serving simulation.
type Result struct {
	Requests int // requests completed (== Options.Requests)
	Batches  int // service batches executed

	AchievedRPS float64 // completed requests over the makespan
	MeanBatch   float64 // mean requests per service batch
	Utilization float64 // server busy fraction over the makespan

	MeanNs float64 // mean request latency (arrival to batch completion)
	P50Ns  float64
	P95Ns  float64
	P99Ns  float64
	MaxNs  float64

	MakespanNs float64 // completion time of the last batch
}

// Simulate runs the batched-FIFO serving model and returns its latency and
// throughput summary.
func Simulate(opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}

	sim := event.AcquireSim()
	defer event.ReleaseSim(sim)

	var (
		queue   []float64 // arrival times of waiting requests
		qhead   int
		busy    bool
		lat     = make([]float64, 0, opt.Requests)
		busyNs  float64
		lastOut float64
		batches int
	)

	// startBatch drains up to MaxBatch waiting requests into one service
	// batch. Requests that arrive while the server is busy coalesce in the
	// queue — that accumulation is where dynamic batching comes from.
	var startBatch func()
	startBatch = func() {
		if busy || qhead == len(queue) {
			return
		}
		b := len(queue) - qhead
		if b > opt.MaxBatch {
			b = opt.MaxBatch
		}
		arrivals := make([]float64, b)
		copy(arrivals, queue[qhead:qhead+b])
		qhead += b
		if qhead == len(queue) {
			// Everything drained: reuse the backing array.
			queue = queue[:0]
			qhead = 0
		}
		busy = true
		svc := opt.ServiceNs(b)
		busyNs += svc
		batches++
		sim.After(svc, func() {
			done := sim.Now()
			for _, t := range arrivals {
				lat = append(lat, done-t)
			}
			if done > lastOut {
				lastOut = done
			}
			busy = false
			startBatch()
		})
	}

	// Arrivals form a self-scheduling chain (one pending closure at a time,
	// like the memsys trace replay): each firing enqueues its request and
	// schedules the next gap. Drawing the gap inside the handler is safe —
	// the kernel is single-threaded, so the draw order is deterministic.
	rng := rand.New(rand.NewSource(opt.Seed))
	meanGapNs := 1e9 / opt.QPS
	n := 0
	var arrive event.Handler
	arrive = func() {
		queue = append(queue, sim.Now())
		startBatch()
		n++
		if n < opt.Requests {
			sim.After(rng.ExpFloat64()*meanGapNs, arrive)
		}
	}
	if _, err := sim.At(rng.ExpFloat64()*meanGapNs, arrive); err != nil {
		// First arrival is at a non-negative finite time; unreachable.
		panic(err)
	}
	sim.Run(0)

	res := Result{
		Requests:   len(lat),
		Batches:    batches,
		MeanBatch:  float64(len(lat)) / float64(batches),
		MakespanNs: lastOut,
	}
	if lastOut > 0 {
		res.AchievedRPS = float64(len(lat)) / (lastOut * 1e-9)
		res.Utilization = busyNs / lastOut
	}
	// The mean sums in arrival order, before the sort; lat holds one entry
	// per request, so it is never empty.
	res.MeanNs = stats.Mean(lat)
	sort.Float64s(lat)
	res.P50Ns = stats.PercentileSorted(lat, 50)
	res.P95Ns = stats.PercentileSorted(lat, 95)
	res.P99Ns = stats.PercentileSorted(lat, 99)
	res.MaxNs = lat[len(lat)-1]
	return res, nil
}
