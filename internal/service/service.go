// Package service is the simulation service layer: a long-running server
// that accepts simulation and design-space-exploration jobs over an
// HTTP/JSON API, executes them on a bounded worker pool with per-job
// cancellation and deadlines, and deduplicates work through a
// content-addressed result cache (canonical-JSON hash of config + workload,
// with singleflight so concurrent identical requests share one execution).
//
// The paper's evaluation workflow — thousands of Simulate calls swept by the
// DSE engine — is exactly the shape of a request-serving workload, and this
// package turns the analytic model into one:
//
//	POST /v1/simulate            one (config, kernel) node simulation, cached
//	POST /v1/explore             async DSE sweep job (202 + job id)
//	POST /v1/scale               async machine-scale fabric projection (202 + job id)
//	GET  /v1/jobs/{id}           job status/result polling
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET  /v1/experiments         list paper artifacts
//	GET  /v1/experiments/{id}    run one table/figure harness, cached
//	GET  /v1/kernels             the Table I workload suite
//	GET  /metrics                obs registry snapshot (JSON)
//	GET  /healthz                liveness
//	GET  /v1/healthz             readiness: 503 while draining
//	/v1/internal/...             peer shard evaluation, ping and job summary
//
// Peer health comes from shard outcomes alone: nothing pings the peers. The
// worker's ping route stays for coordinators of earlier builds, which probe
// it during a rolling upgrade.
//
// Each kind of work has one load governor, and both shed with 503 +
// Retry-After: simulate and experiment runs pass one in-handler admission
// step that resident keys bypass, and explore and scale jobs pass only the
// scheduler's bounded queue, checked before the job is journalled.
//
// cmd/enaserve wires this into a binary with graceful SIGTERM drain.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ena/internal/cluster"
	"ena/internal/core"
	"ena/internal/dse"
	"ena/internal/exp"
	"ena/internal/faults"
	"ena/internal/noc"
	"ena/internal/obs"
	"ena/internal/perf"
	"ena/internal/store"
	"ena/internal/surrogate"
	"ena/internal/workload"
)

// Config tunes a Server. The zero value gives sane defaults: GOMAXPROCS job
// workers, a 64-deep job queue, a 4096-entry result cache, and a fresh
// metrics registry.
type Config struct {
	// Workers is the job worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueCap bounds pending jobs; submissions beyond it are rejected
	// with 503 + Retry-After (default 64). It is the async routes' only
	// load governor.
	QueueCap int
	// CacheSize bounds the content-addressed result cache (default 4096).
	CacheSize int
	// JobTimeout is the default per-job deadline when a request does not
	// set one (0 = no deadline).
	JobTimeout time.Duration
	// Reg receives service and simulator metrics (default: new registry).
	Reg *obs.Registry
	// Tracer, when set, receives per-design-point sweep spans.
	Tracer *obs.Tracer

	// Chaos, when set, injects runtime faults across the stack: worker
	// panics in the scheduler (quarantined), artificial latency in request
	// handling, and context stalls before job execution. Nil disables every
	// site.
	Chaos *faults.Chaos
	// DetailedBudget bounds the event-driven NoC phase of a detailed
	// simulate request (default 2s); past it the response falls back to
	// the analytic result, flagged degraded.
	DetailedBudget time.Duration
	// DetailedRequests bounds the event-driven simulation's request count
	// (0 = the NoC simulator's default).
	DetailedRequests int

	// Store, when set, layers a persistent result store under the memory
	// cache: simulate/explore/scale/experiment results survive restarts and
	// are shared across replicas pointed at the same directory. The caller
	// owns opening it (store.Open) so configuration errors surface at
	// startup, not on first request. It also backs sweep checkpoints: with a
	// store, explore/scale shards are persisted as they complete, so a
	// restarted or adopting replica resumes instead of recomputing.
	Store *store.Store
	// Journal, when set, makes async jobs durable: submissions and every
	// state transition are journalled write-ahead (store.OpenJournal on the
	// same directory as Store), restarted replicas recover journalled jobs,
	// and replicas sharing the directory adopt jobs whose lease expired.
	// Requires Store for result recovery; ignored in WorkerOnly mode.
	Journal *store.Journal
	// OwnerID identifies this replica in job leases (default: a random id).
	OwnerID string
	// LeaseTTL is how long a job lease lives between heartbeats (default
	// 10s): a replica dead for one TTL loses its jobs to adoption.
	LeaseTTL time.Duration
	// AdoptEvery is the journal scan interval for adoptable jobs (default:
	// LeaseTTL).
	AdoptEvery time.Duration
	// CheckpointItems is the checkpointed sweep shard size (default
	// cluster.DefaultCheckpointItems); only meaningful with Store set.
	CheckpointItems int
	// EvalDelay is a chaos knob: every sweep item evaluated by this process
	// (coordinator-local or worker shard) sleeps this long first, stretching
	// sweeps so crash/kill tests have a window to hit. Zero in production.
	EvalDelay time.Duration
	// Peers lists worker base URLs ("http://host:port"). When non-empty,
	// explore and scale sweeps are sharded across them instead of evaluated
	// in-process. A failed shard is requeued for the surviving peers, its
	// peer sits out later sweeps for a backoff, and shards with no peer left
	// run locally.
	Peers []string
	// WorkerOnly restricts the route table to the internal shard-evaluation
	// routes plus health and metrics — the enaserve -worker mode. The
	// public API, scheduler-backed jobs included, is not mounted.
	WorkerOnly bool

	// AdmitSimulate is the simulate route's concurrency budget (default
	// 2*GOMAXPROCS; negative disables admission control on the route).
	// Requests whose key is already cached or in flight bypass admission.
	AdmitSimulate int
	// AdmitQueue bounds how many requests may wait per governed route
	// (simulate, experiments.run) for an admission slot before load is shed
	// with 503 + Retry-After (default 4x the route's budget).
	AdmitQueue int
}

// Server executes simulation traffic. Create with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	tracer   *obs.Tracer
	cache    *Cache
	sched    *Scheduler
	mux      *http.ServeMux
	start    time.Time
	chaos    *faults.Chaos
	coord    *cluster.Coordinator
	durable  *durableManager
	draining atomic.Bool

	// admitSim and admitExp govern the sync cached routes (simulate,
	// experiments.run), consulted in-handler so resident keys bypass them.
	admitSim *admission
	admitExp *admission

	// perfCache memoizes the optimization-independent perf phase across
	// explore jobs: sweeps over the same (space, kernels) under different
	// budgets or optimization settings — distinct result-cache keys —
	// recompute only the power phase.
	perfCache *dse.PerfCache

	// simExecs counts actual model executions (not cache/singleflight
	// serves) — the counter tests assert dedup against.
	simExecs  *obs.Counter
	fallbacks *obs.Counter
	reqCtr    *obs.Counter
	errCtr    *obs.Counter
	cancelCtr *obs.Counter
	inflight  *obs.Gauge
	latHist   *obs.Histogram
}

// New builds a Server. ctx is the base context of all job execution:
// cancelling it aborts every running job (the server's drain path).
func New(ctx context.Context, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.DetailedBudget <= 0 {
		cfg.DetailedBudget = 2 * time.Second
	}
	var durable *durableManager
	schedOpts := []SchedOption{WithChaos(cfg.Chaos)}
	if cfg.Journal != nil && !cfg.WorkerOnly {
		if cfg.OwnerID == "" {
			cfg.OwnerID = "replica-" + newJobID()
		}
		durable = newDurable(cfg.Journal, cfg.OwnerID, cfg.LeaseTTL, reg)
		schedOpts = append(schedOpts, WithRecorder(durable))
	}
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		tracer:    cfg.Tracer,
		cache:     NewCache(cfg.CacheSize, reg),
		sched:     NewScheduler(ctx, cfg.Workers, cfg.QueueCap, DefaultJobRetain, reg, schedOpts...),
		durable:   durable,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		chaos:     cfg.Chaos,
		simExecs:  reg.Counter("service.sim.executions"),
		fallbacks: reg.Counter("service.sim.fallbacks"),
		reqCtr:    reg.Counter("service.http.requests"),
		errCtr:    reg.Counter("service.http.errors"),
		cancelCtr: reg.Counter("service.http.client_cancelled"),
		inflight:  reg.Gauge("service.http.inflight"),
		latHist:   reg.Histogram("service.http.latency_ns", durationBounds),
		perfCache: dse.NewPerfCache(),
		admitSim:  newAdmission("simulate", simulateSlots(cfg.AdmitSimulate), cfg.AdmitQueue, reg),
		admitExp:  newAdmission("experiments.run", runtime.GOMAXPROCS(0), cfg.AdmitQueue, reg),
	}
	s.cache.SetStore(cfg.Store)
	if len(cfg.Peers) > 0 || (cfg.Store != nil && !cfg.WorkerOnly) {
		s.coord = cluster.NewCoordinator(cfg.Peers, reg)
		if cfg.Store != nil {
			s.coord.EnableCheckpoints(cfg.Store, cfg.CheckpointItems)
		}
		s.coord.SetEvalDelay(cfg.EvalDelay)
	}
	s.routes()
	if s.durable != nil {
		s.durable.srv = s
		// Recovery runs before the server takes traffic: journalled terminal
		// jobs become queryable again (results straight from the store),
		// recoverable ones re-enqueue under their original ids.
		s.durable.recover(time.Now())
		go s.durable.heartbeatLoop(ctx)
		go s.durable.adoptLoop(ctx, cfg.AdoptEvery)
	}
	return s
}

// Registry exposes the server's metrics registry (for reports and tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting jobs and waits for in-flight work as Scheduler.Drain
// does. It first marks the server draining, so /v1/healthz flips to 503 and
// load balancers stop routing here while in-flight jobs finish. The HTTP
// listener itself is the caller's to close (http.Server Shutdown), so the
// order in cmd/enaserve is: stop the listener, then drain the job pool.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.sched.Drain(ctx)
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats is the point-in-time service summary logged on drain: how well the
// result tiers worked over the process's lifetime.
type Stats struct {
	CacheEntries   int          `json:"cache_entries"`
	CacheHits      int64        `json:"cache_hits"`
	CacheMisses    int64        `json:"cache_misses"`
	CacheHitRatio  float64      `json:"cache_hit_ratio"`
	CacheCoalesced int64        `json:"cache_coalesced"`
	Store          *store.Stats `json:"store,omitempty"`
}

// Stats summarizes the cache and store tiers (store nil when not configured).
func (s *Server) Stats() Stats {
	st := Stats{
		CacheEntries:   s.cache.Len(),
		CacheHits:      s.reg.Counter("service.cache.hits").Value(),
		CacheMisses:    s.reg.Counter("service.cache.misses").Value(),
		CacheHitRatio:  s.cache.HitRatio(),
		CacheCoalesced: s.reg.Counter("service.cache.coalesced").Value(),
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		st.Store = &ss
	}
	return st
}

func (s *Server) routes() {
	// Health and metrics are always mounted — operators need them in every
	// mode — as are the internal shard routes: every replica can evaluate
	// shards for a coordinating peer, worker-only or not.
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.Handle("/v1/internal/", cluster.WorkerHandlerDelay(s.reg, s.cfg.EvalDelay))
	// The jobs summary is more specific than the shard subtree, so it wins
	// the mux match; every replica answers it (empty without a journal), so
	// peers can poll any member of a mixed fleet.
	s.mux.HandleFunc("GET /v1/internal/jobs", s.instrument("jobs.internal", s.handleInternalJobs))
	if s.cfg.WorkerOnly {
		return
	}
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.HandleFunc("POST /v1/explore", s.instrument("explore", s.handleExplore))
	s.mux.HandleFunc("POST /v1/scale", s.instrument("scale", s.handleScale))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs.get", s.handleJobGet))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("jobs.cancel", s.handleJobCancel))
	s.mux.HandleFunc("GET /v1/experiments", s.instrument("experiments.list", s.handleExperimentList))
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.instrument("experiments.run", s.handleExperimentRun))
	s.mux.HandleFunc("GET /v1/kernels", s.instrument("kernels", s.handleKernels))
}

// statusWriter captures the response code for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route and aggregate metrics and the
// chaos latency site. Load governors live inside the handlers (admit for the
// sync cached routes, the scheduler queue for async jobs), so health and
// metrics stay reachable while every other route sheds load.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	routeCtr := s.reg.Counter("service.http." + route + ".requests")
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if d := s.chaos.Latency(); d > 0 {
			faults.Wait(r.Context(), d)
		}
		h(sw, r)
		s.inflight.Add(-1)
		s.reqCtr.Inc()
		routeCtr.Inc()
		if sw.status >= 400 {
			// A client that gave up is not a server fault.
			if errors.Is(r.Context().Err(), context.Canceled) {
				s.cancelCtr.Inc()
			} else {
				s.errCtr.Inc()
			}
		}
		s.latHist.Observe(float64(time.Since(t0)))
	}
}

// maxBodyBytes bounds request bodies; simulation requests are tiny.
const maxBodyBytes = 1 << 20

// jsonBufs recycles writeJSON's encode buffers across responses.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v before anything goes on the wire, so a value that
// cannot be encoded (a non-finite float, say) becomes a 500 with an error
// body — counted like any other — instead of a status line with no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := encodeJSON(buf, v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		encodeJSON(buf, map[string]string{"error": encodeErr(err).Error()})
	}
	writeBody(w, code, buf.Bytes())
}

// encodeJSON appends v in the wire format of every JSON reply: two-space
// indent and a trailing newline.
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// encodeErr is the error of a reply that does not encode.
func encodeErr(err error) error {
	return fmt.Errorf("service: encoding the response: %w", err)
}

// writeBody sends an already encoded JSON reply.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeBackpressure sheds load: 503 with a Retry-After hint.
func writeBackpressure(w http.ResponseWriter, retryAfterSecs int, err error) {
	if retryAfterSecs < 1 {
		retryAfterSecs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":       err.Error(),
		"retry_after": retryAfterSecs,
	})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	// Only whitespace may follow the document: a second document, or a stray
	// byte such as an unmatched ']' or '}', is a malformed request.
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil:
		return errors.New("invalid request body: multiple JSON documents")
	default:
		return fmt.Errorf("invalid request body: data after the JSON document: %w", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is GET /v1/healthz: readiness, not liveness. A draining
// replica answers 503 so load balancers route around it while /healthz stays
// 200 (the process is alive and finishing its jobs).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"draining":       s.draining.Load(),
		"worker_only":    s.cfg.WorkerOnly,
		"peers":          len(s.cfg.Peers),
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	if s.draining.Load() {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// refreshGauges recomputes the scrape-time derived gauges (the event-driven
// ones only move on their own traffic).
func (s *Server) refreshGauges() {
	s.reg.Gauge("service.jobs.queue_depth").Set(float64(s.sched.QueueDepth()))
	s.reg.Gauge("service.jobs.queue_cap").Set(float64(s.sched.QueueCap()))
	s.reg.Gauge("service.cache.hit_ratio").Set(s.cache.HitRatio())
	s.reg.Gauge("dse.perf_cache_entries").Set(float64(s.perfCache.Len()))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshGauges()
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.Snapshot().WriteJSON(w); err != nil {
		// Headers are gone; nothing useful to send.
		return
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	job, err := req.resolve()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	resident := s.cache.Contains(job.key)
	// A resident key has executed, so its node is valid and a hit never
	// builds it. A request that may execute builds it before admission, so
	// an invalid node is still a 400; the detailed phase always needs it.
	if !resident || job.detailed {
		if err := job.node(); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	// A key already resident or in flight coalesces onto the cache or
	// singleflight without occupying a slot — N clients asking for the same
	// popular result cost one execution and zero queueing.
	release, ok := s.admitSim.admit(ctx, w, resident)
	if !ok {
		return
	}
	defer release()
	// The cache holds the encoded hit body (see encodeHit); fresh is the
	// answer of the caller that executes, which is not a hit.
	var fresh SimulateResponse
	val, shared, err := s.cache.DoPersist(ctx, job.key, decodeHit, func() (any, error) {
		// The key may have been evicted since Contains said resident.
		if err := job.node(); err != nil {
			return nil, err
		}
		s.simExecs.Inc()
		res, err := core.SimulateContext(ctx, job.cfg, job.kernel, job.opt)
		if err != nil {
			return nil, err
		}
		resp := SimulateResponse{
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
		if job.inj != nil {
			resp.FaultMask = job.inj.Resolved.String()
			resp.Disabled = job.inj.Disabled
		}
		if job.serving {
			views, err := runServing(ctx, job)
			if err != nil {
				return nil, err
			}
			resp.Serving = views
		}
		fresh = resp
		return encodeHit(resp)
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeErr(w, http.StatusServiceUnavailable, err)
		} else {
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	if !job.detailed {
		if shared {
			writeBody(w, http.StatusOK, val.([]byte))
		} else {
			writeJSON(w, http.StatusOK, fresh)
		}
		return
	}
	resp := fresh
	if shared {
		if err := json.Unmarshal(val.([]byte), &resp); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	s.runDetailed(ctx, &resp, job)
	writeJSON(w, http.StatusOK, resp)
}

// encodeHit is a simulate answer in its cached form: the body a hit sends,
// with "cached": true. The memory cache and the store hold these bytes, so
// a hit, a coalesced follower and a store read send them without encoding.
func encodeHit(resp SimulateResponse) ([]byte, error) {
	resp.Cached = true
	var buf bytes.Buffer
	if err := encodeJSON(&buf, resp); err != nil {
		return nil, encodeErr(err)
	}
	return buf.Bytes(), nil
}

// decodeHit normalises a stored simulate blob to encodeHit's bytes. A blob
// written before the cache held encoded bodies is compact JSON with
// "cached": false; re-encoding it sends the same bytes as a fresh hit.
func decodeHit(b []byte) (any, error) {
	var resp SimulateResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, err
	}
	return encodeHit(resp)
}

// detailedResult is the cached payload of a detailed-NoC simulate phase.
type detailedResult struct {
	Partitioned   bool
	MeanLatencyNs float64
	SustainedGBps float64
	TFLOPs        float64
}

// runDetailed runs the event-driven NoC phase of a detailed simulate request
// and merges the measurements into resp. The phase is deadline-aware: it gets
// at most DetailedBudget (less if the request deadline is closer), and on
// running out, the response keeps the already-computed analytic numbers and
// is flagged degraded instead of failing — the fallback the exascale service
// contract prefers over a late answer.
func (s *Server) runDetailed(ctx context.Context, resp *SimulateResponse, job simJob) {
	budget := s.cfg.DetailedBudget
	if dl, ok := ctx.Deadline(); ok {
		if left := time.Until(dl) - 50*time.Millisecond; left < budget {
			budget = left
		}
	}
	if budget <= 0 {
		s.fallbacks.Inc()
		resp.Degraded = true
		resp.DegradedReason = "request deadline too tight for the detailed simulation; analytic fallback"
		return
	}
	dctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	val, _, err := s.cache.DoPersist(dctx, job.detailedKey, decodeAs[detailedResult], func() (any, error) {
		var down []noc.LinkFault
		if job.inj != nil {
			down = job.inj.DownLinks
		}
		nr, err := noc.SimulateContext(dctx, job.cfg, job.kernel, noc.Options{
			Seed:      job.seed,
			Requests:  s.cfg.DetailedRequests,
			DownLinks: down,
		})
		if errors.Is(err, noc.ErrPartitioned) {
			return detailedResult{Partitioned: true}, nil
		}
		if err != nil {
			return nil, err
		}
		// Refine throughput with the measured memory environment.
		pr := perf.Estimate(job.cfg, job.kernel, nr.Env(job.cfg))
		return detailedResult{
			MeanLatencyNs: nr.MeanLatencyNs,
			SustainedGBps: nr.SustainedGBps,
			TFLOPs:        pr.TFLOPs,
		}, nil
	})
	if err != nil {
		// The detailed phase did not make it; the analytic answer stands.
		// Errors are never cached, so a later retry gets a fresh budget.
		s.fallbacks.Inc()
		resp.Degraded = true
		resp.DegradedReason = "detailed simulation exceeded its budget; analytic fallback: " + err.Error()
		return
	}
	d := val.(detailedResult)
	resp.Detailed = true
	if d.Partitioned {
		resp.Partitioned = true
		resp.Degraded = true
		resp.DegradedReason = "link faults partition the interposer network"
		resp.TFLOPs = 0
		resp.GFperW = 0
		return
	}
	resp.MeanLatencyNs = d.MeanLatencyNs
	resp.SustainedGBps = d.SustainedGBps
	resp.TFLOPs = d.TFLOPs
	if resp.NodeW > 0 {
		resp.GFperW = d.TFLOPs * 1000 / resp.NodeW
	}
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ej, err := req.resolve()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.acceptJob(w, "explore", ej.key, req, s.jobTimeout(ej.timeout), jobRunner(s.cache, ej.key, ej, s.explore))
}

// acceptJob submits an async job and answers its request: 202 with the job,
// or 503 + Retry-After when the scheduler sheds it.
func (s *Server) acceptJob(w http.ResponseWriter, kind, key string, spec any, timeout time.Duration, run func(context.Context) (any, error)) {
	view, err := s.submitJob(kind, key, spec, timeout, run)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Saturation is load-shedding, not failure: tell the client when
		// to come back rather than making it guess.
		writeBackpressure(w, s.sched.RetryAfterSecs(), err)
	case errors.Is(err, ErrDraining):
		writeBackpressure(w, 1, err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{"job": view})
	}
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.sched.Get(id)
	if ok {
		if s.durable != nil && !view.State.Terminal() {
			view.Owner = s.durable.owner
		}
		writeJSON(w, http.StatusOK, map[string]any{"job": view})
		return
	}
	// Not in the local table: the job may live in the shared journal — a
	// peer's submission, or one pruned here — so any replica can answer for
	// any job in the fleet.
	if s.durable != nil {
		if view, ok := s.durable.view(id); ok {
			writeJSON(w, http.StatusOK, map[string]any{"job": view})
			return
		}
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.sched.Cancel(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": view})
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	type expView struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []expView
	for _, e := range exp.Experiments() {
		out = append(out, expView{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// ExperimentResponse is the body of GET /v1/experiments/{id}: the rendered
// paper-style text of one table/figure harness.
type ExperimentResponse struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Cached bool   `json:"cached"`
	Output string `json:"output"`
}

func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, err := exp.ByID(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	// Experiments are deterministic, so their rendered text is content-
	// addressed by ID alone; the heavy ones (full DSE sweeps, thermal
	// solves) run once and every later scrape is a cache hit, which takes
	// no admission slot.
	key := "exp:v1:" + id
	release, ok := s.admitExp.admit(r.Context(), w, s.cache.Contains(key))
	if !ok {
		return
	}
	defer release()
	val, shared, err := s.cache.DoPersist(r.Context(), key, decodeAs[string], func() (any, error) {
		return e.Run().Render(), nil
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, ExperimentResponse{
		ID:     id,
		Title:  e.Title,
		Cached: shared,
		Output: val.(string),
	})
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	type kernelView struct {
		Name        string `json:"name"`
		Category    string `json:"category"`
		Description string `json:"description"`
	}
	var out []kernelView
	for _, k := range workload.Suite() {
		out = append(out, kernelView{Name: k.Name, Category: k.Category.String(), Description: k.Description})
	}
	writeJSON(w, http.StatusOK, map[string]any{"kernels": out})
}

// jobRunner is the execution closure of one async job — what the scheduler
// runs now, and what a recovering or adopting replica rebuilds from the
// journalled request spec: run(job), shared and persisted through the result
// cache under key.
func jobRunner[J, T any](c *Cache, key string, job J, run func(context.Context, J) (T, error)) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		val, _, err := c.DoPersist(ctx, key, decodeAs[T], func() (any, error) {
			return run(ctx, job)
		})
		if err != nil {
			return nil, err
		}
		return val, nil
	}
}

// explore runs one cancellable sweep with the server's observability sinks.
// With worker peers or a checkpoint store configured, the design space is
// sharded through the coordinator (which merges to the bit-identical
// single-process Outcome, with per-shard failover, checkpointed resume, and
// local fallback); otherwise the sweep runs in process through the
// perf-phase memo. The surrogate explorer uses the same two paths for its
// acquisition batches — coordinator point-list shards or the local
// perf-cached evaluator — and either way its result is a pure function of
// (space, kernels, budget, optimizations, eval budget, seed).
func (s *Server) explore(ctx context.Context, ej exploreJob) (ExploreResult, error) {
	if ej.explorer == "surrogate" {
		var ev surrogate.Evaluator
		if s.coord.Active() {
			ev = func(ctx context.Context, pts []dse.Point) ([]dse.Eval, error) {
				return s.coord.EvaluatePoints(ctx, pts, ej.kernels, ej.names, ej.budgetW, ej.tech)
			}
		} else {
			ev = surrogate.LocalEvaluator(ej.kernels, ej.budgetW, ej.tech, s.perfCache)
		}
		res, err := surrogate.Explore(ctx, ej.space, ej.kernels, ej.budgetW, ej.tech,
			surrogate.Options{Budget: ej.evalBudget, Seed: ej.seed},
			dse.Instr{Reg: s.reg, Tracer: s.tracer}, ev)
		if err != nil {
			return ExploreResult{}, err
		}
		return ej.summarize(res.Outcome), nil
	}
	if s.coord.Active() {
		out, err := s.coord.Explore(ctx, ej.space, ej.kernels, ej.names, ej.budgetW, ej.tech, ej.key)
		if err != nil {
			return ExploreResult{}, err
		}
		return ej.summarize(out), nil
	}
	out, err := dse.ExploreCachedContext(ctx, ej.space, ej.kernels, ej.budgetW, ej.tech,
		dse.Instr{Reg: s.reg, Tracer: s.tracer}, s.perfCache)
	if err != nil {
		return ExploreResult{}, err
	}
	return ej.summarize(out), nil
}
