package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ena/internal/dse"
	"ena/internal/exp"
	"ena/internal/fabric"
	"ena/internal/obs"
	"ena/internal/powopt"
	"ena/internal/workload"
)

// WorkerHandler serves the internal shard-evaluation routes an enaserve
// worker peer (enaserve -worker) mounts:
//
//	POST /v1/internal/shard/explore   evaluate listed design points, NDJSON stream
//	POST /v1/internal/shard/scale     evaluate listed node counts, NDJSON stream
//	GET  /v1/internal/ping            worker liveness
//
// Responses stream one line per completed item and flush eagerly, so the
// coordinator sees partial progress the moment it exists; a worker killed
// mid-shard leaves a truncated stream the coordinator detects by the missing
// "done" trailer. Evaluation parallelism inside the worker is GOMAXPROCS;
// lines may arrive out of index order (each carries its index).
func WorkerHandler(reg *obs.Registry) http.Handler { return WorkerHandlerDelay(reg, 0) }

// WorkerHandlerDelay is WorkerHandler with the eval-delay chaos knob: every
// evaluated item sleeps evalDelay first, stretching sweeps so kill-mid-sweep
// tests have a window to hit (see Coordinator.SetEvalDelay).
func WorkerHandlerDelay(reg *obs.Registry, evalDelay time.Duration) http.Handler {
	w := &worker{
		delay:     evalDelay,
		shardsCtr: reg.Counter("cluster.worker.shards"),
		itemsCtr:  reg.Counter("cluster.worker.items"),
		errsCtr:   reg.Counter("cluster.worker.errors"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/internal/shard/explore", serveShard(w, prepareExplore))
	mux.HandleFunc("POST /v1/internal/shard/scale", serveShard(w, prepareScale))
	mux.HandleFunc("GET /v1/internal/ping", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte(`{"status":"ok"}` + "\n"))
	})
	return mux
}

type worker struct {
	delay     time.Duration
	shardsCtr *obs.Counter
	itemsCtr  *obs.Counter
	errsCtr   *obs.Counter
}

// maxShardBody bounds shard request bodies. A listed design point encodes
// in well under 256 bytes, so the coordinator's maxShardItems cap keeps
// every shard it sends inside this bound.
const maxShardBody = 1 << 20

// streamer serializes NDJSON lines onto a response writer, flushing each so
// the coordinator observes per-item progress.
type streamer struct {
	mu    sync.Mutex
	w     http.ResponseWriter
	fl    http.Flusher
	wrErr error
}

func newStreamer(w http.ResponseWriter) *streamer {
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	return &streamer{w: w, fl: fl}
}

// send encodes one line and writes it. An item that does not encode (a
// non-finite float) fails the shard like any evaluation error.
func (s *streamer) send(line any) error {
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("cluster: line marshal: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wrErr != nil {
		return s.wrErr
	}
	if _, err := s.w.Write(append(b, '\n')); err != nil {
		s.wrErr = err
		return err
	}
	if s.fl != nil {
		s.fl.Flush()
	}
	return nil
}

// serveShard is the one shard handler. It decodes a shard request of the
// kind's shape and lets the kind's prepare function check the job and the
// items and build the per-item evaluator; any fault so far is a 400. It
// then streams every item's result and the "done" trailer.
func serveShard[J, I, R any](wk *worker, prepare func(J, []I) (func(context.Context, I) (R, error), error)) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		var req shardRequest[J, I]
		dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxShardBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(rw, "invalid shard request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.V != protoVersion {
			http.Error(rw, fmt.Sprintf("shard protocol v%d, want v%d", req.V, protoVersion), http.StatusBadRequest)
			return
		}
		n := len(req.Items)
		if req.Start < 0 || n == 0 || req.Start > math.MaxInt-n {
			http.Error(rw, fmt.Sprintf("bad shard range: start %d with %d items", req.Start, n), http.StatusBadRequest)
			return
		}
		eval, err := prepare(req.Job, req.Items)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		wk.shardsCtr.Inc()
		st := newStreamer(rw)
		err = ParallelRange(r.Context(), n, func(ctx context.Context, i int) error {
			chaosSleep(ctx, wk.delay)
			res, err := eval(ctx, req.Items[i])
			if err != nil {
				return err
			}
			wk.itemsCtr.Inc()
			return st.send(shardLine[R]{Type: "item", Index: req.Start + i, Item: &res})
		})
		if err != nil {
			// The status line is already out; the truncated stream (no
			// "done") is the failure signal. Send a best-effort error line
			// for logs.
			wk.errsCtr.Inc()
			st.send(shardLine[R]{Type: "error", Error: err.Error()})
			return
		}
		st.send(shardLine[R]{Type: "done", Count: n})
	}
}

// prepareExplore checks an explore shard's kernels and every listed point.
func prepareExplore(j exploreJob, pts []dse.Point) (func(context.Context, dse.Point) (dse.Eval, error), error) {
	kernels, err := resolveKernels(j.Kernels)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
	}
	opts := powopt.Technique(j.Opts)
	return func(ctx context.Context, p dse.Point) (dse.Eval, error) {
		return dse.EvaluatePointContext(ctx, p, kernels, j.BudgetW, opts)
	}, nil
}

// prepareScale checks a scale shard's job and node counts against the same
// limits /v1/scale applies.
func prepareScale(j scaleJob, sizes []int) (func(context.Context, int) (ScaleEval, error), error) {
	k, err := workload.ByName(j.Kernel)
	if err != nil {
		return nil, err
	}
	kind, err := ParseTopology(j.Topology)
	if err != nil {
		return nil, err
	}
	mode, err := ParseMode(j.Mode)
	if err != nil {
		return nil, err
	}
	mask, err := ParseScaleMask(j.Mask)
	if err != nil {
		return nil, err
	}
	if j.LinkGBps < 0 || j.LatencyNs < 0 {
		return nil, fmt.Errorf("negative link parameters (%v GB/s, %v ns)", j.LinkGBps, j.LatencyNs)
	}
	if err := CheckScaleSizes(sizes, !mask.Empty()); err != nil {
		return nil, err
	}
	spec := fabric.LinkSpec{BandwidthGBps: j.LinkGBps, LatencyNs: j.LatencyNs, Ideal: j.Ideal}
	// The node rate is derived locally: it is a deterministic function of the
	// kernel (sustained TFLOP/s on the best-mean EHP), identical on every
	// replica of the same build.
	rate := exp.NodeRateFor(k)
	return func(_ context.Context, size int) (ScaleEval, error) {
		return EvalScale(kind, spec, k, rate, size, mode, mask, j.Seed)
	}, nil
}

// ParallelRange runs fn(ctx, i) for i in [0, n) on a GOMAXPROCS-bounded
// pool, stopping at the first error or context cancellation. It is the one
// pool every sweep item runs on: worker shards, the coordinator's local
// fallback, and the service's local scale path.
func ParallelRange(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	work := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if cctx.Err() != nil {
					continue // drain
				}
				if err := fn(cctx, i); err != nil {
					select {
					case errs <- err:
					default:
					}
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-cctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}
