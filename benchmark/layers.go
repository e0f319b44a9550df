package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ena/internal/arch"
	"ena/internal/cluster"
	"ena/internal/core"
	"ena/internal/dse"
	"ena/internal/exp"
	"ena/internal/obs"
	"ena/internal/service"
	"ena/internal/store"
	"ena/internal/surrogate"
	"ena/internal/workload"
)

// perLayer lists the traced run's metrics. Every traced run reports all of
// them: probes time each layer's public functions in process on inputs from
// the seed, and the rest are read from the workload's own servers or enasim
// processes, so a layer the workload does not use reads 0. README.md says
// which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{"http.transport_us", "us"},
	{"service.handler_us", "us"},
	{"service.front_us", "us"},
	{"service.resp_bytes", "bytes"},
	{"service.allocs_per_req", "count"},
	{"server.latency_p50_us", "us"},
	{"server.latency_p99_us", "us"},
	{"service.cache_hit_us", "us"},
	{"service.cache.hit_ratio", "ratio"},
	{"service.cache.evictions", "count"},
	{"service.admit.simulate.bypass_ratio", "ratio"},
	{"service.admit.simulate.queued", "count"},
	{"service.admit.simulate.rejected", "count"},
	{"core.perf_us", "us"},
	{"core.from_perf_us", "us"},
	{"service.sim.executions", "count"},
	{"store.get_us.p50", "us"},
	{"store.get_us.p99", "us"},
	{"store.put_us.p50", "us"},
	{"store.put_us.p99", "us"},
	{"store.open_s", "s"},
	{"store.hit_ratio", "ratio"},
	{"store.writes", "count"},
	{"store.gc_evictions", "count"},
	{"service.jobs.queue_wait_ms.p50", "ms"},
	{"service.jobs.queue_wait_ms.p90", "ms"},
	{"service.jobs.run_ms.p50", "ms"},
	{"service.jobs.run_ms.p90", "ms"},
	{"client.poll_lag_ms.p50", "ms"},
	{"dse.point_eval_us", "us"},
	{"dse.explore_ms.budget", "ms"},
	{"dse.explore_ms.space", "ms"},
	{"dse.finalize_ms", "ms"},
	{"dse.perf_cache.hit_ratio", "ratio"},
	{"surrogate.explore_ms", "ms"},
	{"surrogate.eval_ms", "ms"},
	{"surrogate.model_ms", "ms"},
	{"cluster.explore_ms", "ms"},
	{"cluster.wire_ms", "ms"},
	{"cluster.round_ms", "ms"},
	{"cluster.shards_per_job", "count"},
	{"cluster.items_per_job", "count"},
	{"cluster.shard_retries", "count"},
	{"cluster.local_fallback_shards", "count"},
	{"exp.ablation-noc_ms", "ms"},
	{"exp.ablation-noc.mallocs", "count"},
	{"exp.scaling_ms", "ms"},
	{"exp.scaling.mallocs", "count"},
	{"exp.ablation-thermal_ms", "ms"},
	{"exp.ablation-thermal.mallocs", "count"},
	{"exp.fig7_ms", "ms"},
	{"exp.fig7.mallocs", "count"},
	{"exp.fig10_ms", "ms"},
	{"exp.fig10.mallocs", "count"},
	{"exp.inference_ms", "ms"},
	{"exp.inference.mallocs", "count"},
	{"exp.migration_ms", "ms"},
	{"exp.migration.mallocs", "count"},
	{"exp.ablation-dram_ms", "ms"},
	{"exp.ablation-dram.mallocs", "count"},
	{"exp.dse-efficiency_ms", "ms"},
	{"exp.dse-efficiency.mallocs", "count"},
	{"noc.requests", "count"},
	{"noc.ns_per_request", "ns"},
	{"thermal.solves", "count"},
	{"thermal.iterations_mean", "count"},
	{"dse.points_evaluated", "count"},
	{"trace.overhead_pct", "%"},
}

// expProbes are the experiments timed in process, the ones with the most
// host time in enasim -all.
var expProbes = []string{
	"ablation-noc", "scaling", "ablation-thermal", "fig7", "fig10",
	"inference", "migration", "ablation-dram", "dse-efficiency",
}

// layers fills one traced run's per-layer metrics.
type layers struct {
	e        *env
	r        *result
	storeDir string // the workload's populated store, if it has one
	// Figures the simulate latency budget adds up.
	transportUs, handlerUs, cacheUs, coreUs, missShare float64
}

func (e *env) newLayers(r *result) *layers {
	for _, d := range perLayer {
		r.layer(d.name, 0)
	}
	return &layers{e: e, r: r}
}

// overhead compares the median latency of the traced (odd-numbered)
// operations of the measured phase with that of the untraced ones. Medians,
// because a mean would weigh how many slow jobs each side happened to get.
func (l *layers) overhead(lr loopResult) {
	var sides [2][]float64
	for i, v := range lr.lat {
		sides[lr.seq[i]%2] = append(sides[lr.seq[i]%2], v)
	}
	if u := median(sides[0]); u > 0 {
		l.r.layer("trace.overhead_pct", 100*(median(sides[1])/u-1))
	}
}

// scrape reads GET /metrics from every server.
func scrape(ctx context.Context, client *http.Client, ss []*server) ([]obs.Snapshot, error) {
	out := make([]obs.Snapshot, len(ss))
	var buf bytes.Buffer
	for i, s := range ss {
		status, err := do(ctx, client, http.MethodGet, s.url+"/metrics", nil, &buf)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", s.name, err)
		}
		if status != http.StatusOK {
			return nil, statusErr("scrape "+s.name, status, buf.Bytes())
		}
		if err := json.Unmarshal(buf.Bytes(), &out[i]); err != nil {
			return nil, fmt.Errorf("scrape %s: %w", s.name, err)
		}
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// server sets the counters the workload's servers moved over the measured
// phase, summed over the servers; jobs is how many jobs the phase ran.
func (l *layers) server(before, after []obs.Snapshot, jobs int) {
	d := func(name string) float64 {
		var s int64
		for i := range after {
			s += after[i].Counters[name] - before[i].Counters[name]
		}
		return float64(s)
	}
	hits, misses, storeHits := d("service.cache.hits"), d("service.cache.misses"), d("store.hits")
	simReqs := d("service.http.simulate.requests")
	l.r.layer("service.cache.hit_ratio", ratio(hits, hits+misses+storeHits))
	l.r.layer("service.cache.evictions", d("service.cache.evictions"))
	l.r.layer("service.admit.simulate.bypass_ratio", ratio(d("service.admit.simulate.bypassed"), simReqs))
	l.r.layer("service.admit.simulate.queued", d("service.admit.simulate.queued"))
	l.r.layer("service.admit.simulate.rejected", d("service.admit.simulate.rejected"))
	l.r.layer("service.sim.executions", d("service.sim.executions"))
	l.r.layer("store.hit_ratio", ratio(storeHits, storeHits+d("store.misses")))
	l.r.layer("store.writes", d("store.writes"))
	l.r.layer("store.gc_evictions", d("store.gc_evictions"))
	l.r.layer("dse.perf_cache.hit_ratio", ratio(d("dse.perf_cache_hits"), d("dse.perf_cache_hits")+d("dse.perf_cache_misses")))
	if jobs > 0 {
		l.r.layer("cluster.shards_per_job", d("cluster.shards_dispatched")/float64(jobs))
		l.r.layer("cluster.items_per_job", d("cluster.items_streamed")/float64(jobs))
	}
	l.r.layer("cluster.shard_retries", d("cluster.shard_retries"))
	l.r.layer("cluster.local_fallback_shards", d("cluster.local_fallback_shards"))
	l.missShare = ratio(d("service.sim.executions"), simReqs)

	// The server-side request latency histogram, differenced bin by bin.
	var h obs.HistSnapshot
	for i := range after {
		a, ok := after[i].Histograms["service.http.latency_ns"]
		if !ok {
			continue
		}
		b := before[i].Histograms["service.http.latency_ns"]
		if h.Counts == nil {
			h.Bounds, h.Counts = a.Bounds, make([]uint64, len(a.Counts))
		}
		for j := range a.Counts {
			var prev uint64
			if j < len(b.Counts) {
				prev = b.Counts[j]
			}
			h.Counts[j] += a.Counts[j] - prev
		}
		h.Count += a.Count - b.Count
		h.Max = math.Max(h.Max, a.Max)
	}
	l.r.layer("server.latency_p50_us", h.Quantile(0.5)/1e3)
	l.r.layer("server.latency_p99_us", h.Quantile(0.99)/1e3)
}

// jobs sets the scheduler's per-job phases from the job views' timestamps:
// queue wait is started minus created, run is finished minus started, and
// poll lag is when the client saw the terminal state minus finished.
func (l *layers) jobs(recs []jobRecord) {
	var queue, run, lag []float64
	for _, rec := range recs {
		if !rec.done || rec.view.Started == nil || rec.view.Finished == nil {
			continue
		}
		queue = append(queue, ms(rec.view.Started.Sub(rec.view.Created)))
		run = append(run, ms(rec.view.Finished.Sub(*rec.view.Started)))
		lag = append(lag, ms(rec.observed.Sub(*rec.view.Finished)))
	}
	for name, xs := range map[string][]float64{"service.jobs.queue_wait_ms": queue, "service.jobs.run_ms": run} {
		l.r.layer(name+".p50", median(xs))
		if v, ok := percentile(sortedCopy(xs), 0.9); ok {
			l.r.layer(name+".p90", v)
		}
	}
	l.r.layer("client.poll_lag_ms.p50", median(lag))
}

// enasim sets the model counters from an enasim -metrics report.
func (l *layers) enasim(report []byte) {
	vals := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(report))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		switch f[0] {
		case "counter", "gauge":
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				vals[f[1]] = v
			}
		case "hist":
			for _, kv := range f[2:] {
				if v, ok := strings.CutPrefix(kv, "mean="); ok {
					if x, err := strconv.ParseFloat(v, 64); err == nil {
						vals[f[1]+".mean"] = x
					}
				}
			}
		}
	}
	l.r.layer("noc.requests", vals["noc.requests"])
	l.r.layer("noc.ns_per_request", ratio(1e9, vals["noc.sim.events_per_sec"]))
	l.r.layer("thermal.solves", vals["thermal.solves"])
	l.r.layer("thermal.iterations_mean", vals["thermal.iterations.mean"])
	l.r.layer("dse.points_evaluated", vals["dse.points_evaluated"])
}

// probeSink keeps probed results alive so the compiler cannot drop the
// calls that produce them.
var probeSink any

// perOp runs fn reps times in each of batches batches and returns the
// median batch's microseconds per call.
func perOp(batches, reps int, fn func(i int)) float64 {
	xs := make([]float64, batches)
	for b := range xs {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn(i)
		}
		xs[b] = us(time.Since(t0)) / float64(reps)
	}
	return median(xs)
}

// medianMs times fn n times and returns the median in milliseconds.
func medianMs(n int, fn func(i int) error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		xs[i] = ms(time.Since(t0))
	}
	return median(xs), nil
}

// probe times each layer's public functions in process. The servers are
// stopped by now, so the probes have the CPUs to themselves.
func (l *layers) probe(ctx context.Context) error {
	steps := []struct {
		name string
		fn   func(context.Context) error
	}{
		{"service", l.probeService},
		{"transport", l.probeTransport},
		{"store", l.probeStore},
		{"dse", l.probeDSE},
		{"surrogate", l.probeSurrogate},
		{"cluster", l.probeCluster},
		{"exp", l.probeExp},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.fn(ctx); err != nil {
			return fmt.Errorf("%s probe: %w", s.name, err)
		}
		l.e.span(s.name, "probe", 0, t0, time.Now(), nil)
	}
	return nil
}

// probeService replays the hot pool through an in-process, warmed
// service.New handler, then times a resident cache hit and the two model
// phases on the same configurations.
func (l *layers) probeService(ctx context.Context) error {
	items := hotPool(l.e.seed)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	srv := service.New(sctx, service.Config{})
	// Drain stops the scheduler's workers; no job ever runs here, so it
	// cannot time out.
	defer func() { _ = srv.Drain(ctx) }()
	h := srv.Handler()
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		return rec
	}
	for _, it := range items {
		if rec := serve(it.body); rec.Code != http.StatusOK {
			return statusErr("handler warm-up", rec.Code, rec.Body.Bytes())
		}
	}
	const n = 4096
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(items[i%len(items)].body))
		recs[i] = httptest.NewRecorder()
	}
	durs := make([]float64, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		t0 := time.Now()
		h.ServeHTTP(recs[i], reqs[i])
		durs[i] = us(time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	sizes := make([]float64, n)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			return statusErr("handler", rec.Code, rec.Body.Bytes())
		}
		sizes[i] = float64(rec.Body.Len())
	}
	l.handlerUs = median(durs)
	l.r.layer("service.handler_us", l.handlerUs)
	l.r.layer("service.resp_bytes", median(sizes))
	l.r.layer("service.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/n)

	cache := service.NewCache(1024, nil)
	decode := func(b []byte) (any, error) { return b, nil }
	fill := func() (any, error) { return items[0].want, nil }
	if _, _, err := cache.DoPersist(ctx, "probe", decode, fill); err != nil {
		return err
	}
	l.cacheUs = perOp(20, 5000, func(int) { probeSink, _, _ = cache.DoPersist(ctx, "probe", decode, fill) })
	l.r.layer("service.cache_hit_us", l.cacheUs)
	l.r.layer("service.front_us", l.handlerUs-l.cacheUs)

	cfgs := make([]*arch.NodeConfig, len(items))
	ks := make([]workload.Kernel, len(items))
	pps := make([]core.PerfPhase, len(items))
	for i, it := range items {
		c := it.want.Config
		cfgs[i] = arch.EHP(c.CUs, c.FreqMHz, c.BWTBps)
		k, err := workload.ByName(it.want.Kernel)
		if err != nil {
			return err
		}
		ks[i] = k
	}
	perf := perOp(20, 20*len(items), func(i int) {
		i %= len(items)
		pps[i] = core.SimulatePerf(cfgs[i], ks[i], core.Options{})
	})
	from := perOp(20, 20*len(items), func(i int) {
		i %= len(items)
		probeSink = core.SimulateFromPerf(cfgs[i], ks[i], core.Options{}, pps[i])
	})
	l.coreUs = perf + from
	l.r.layer("core.perf_us", perf)
	l.r.layer("core.from_perf_us", from)
	return nil
}

// probeTransport times loopback round trips to a trivial net/http server
// that answers with a body as large as a simulate response. The server is a
// process of its own, as enaserve is, so the round trip includes waking
// another process on each side.
func (l *layers) probeTransport(ctx context.Context) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	size := strconv.Itoa(int(l.r.Layers["service.resp_bytes"].Value))
	echo, err := startServer(self, "echo", "echo", "-bytes", size)
	if err != nil {
		return err
	}
	defer echo.stop()
	client := newClient(1)
	defer client.CloseIdleConnections()
	if err := echo.waitReady(ctx, client); err != nil {
		return err
	}
	body := hotPool(l.e.seed)[0].body
	url := echo.url + "/"
	var buf bytes.Buffer
	xs := make([]float64, 0, 2000)
	for i := 0; i < 2200; i++ {
		t0 := time.Now()
		status, err := do(ctx, client, http.MethodPost, url, body, &buf)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return statusErr("echo", status, buf.Bytes())
		}
		if i >= 200 {
			xs = append(xs, us(time.Since(t0)))
		}
	}
	l.transportUs = median(xs)
	l.r.layer("http.transport_us", l.transportUs)
	return nil
}

// probeStore times store.Put and store.Get on a scratch store with real
// simulate payloads, and store.Open on the workload's populated directory
// (or on the scratch store when the workload has none).
func (l *layers) probeStore(ctx context.Context) error {
	dir := filepath.Join(l.e.tmp, "probe-store")
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return err
	}
	items := storePool(l.e.seed)[:1200]
	keys := make([]string, len(items))
	var puts, gets []float64
	for i, it := range items {
		sum := sha256.Sum256(it.body)
		keys[i] = hex.EncodeToString(sum[:])
		resp := it.want
		resp.Key = keys[i]
		payload, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := st.Put(keys[i], payload); err != nil {
			return err
		}
		puts = append(puts, us(time.Since(t0)))
	}
	rng := newRand(l.e.seed, "probe-store")
	for i := 0; i < 2000; i++ {
		k := keys[rng.Intn(len(keys))]
		t0 := time.Now()
		if _, ok := st.Get(k); !ok {
			return fmt.Errorf("store probe: key %s missing", k)
		}
		gets = append(gets, us(time.Since(t0)))
	}
	for name, xs := range map[string][]float64{"store.put_us": puts, "store.get_us": gets} {
		sorted := sortedCopy(xs)
		p50, _ := percentile(sorted, 0.5)
		p99, ok := percentile(sorted, 0.99)
		if !ok {
			return fmt.Errorf("%d samples cannot support a p99", len(xs))
		}
		l.r.layer(name+".p50", p50)
		l.r.layer(name+".p99", p99)
	}
	if l.storeDir != "" {
		dir = l.storeDir
	}
	t0 := time.Now()
	if _, err := store.Open(dir, 0, nil); err != nil {
		return err
	}
	l.r.layer("store.open_s", time.Since(t0).Seconds())
	return nil
}

// probeDSE times one point evaluation, a sweep of the default space that
// reuses a warm PerfCache (the budget class), a sweep of fresh perturbed
// grids that miss it (the grid class), and the sequential Finalize tail.
func (l *layers) probeDSE(ctx context.Context) error {
	ks := workload.Suite()
	def := dse.DefaultSpace()
	pts := def.Points()
	l.r.layer("dse.point_eval_us", perOp(5, len(pts), func(i int) {
		probeSink, _ = dse.EvaluatePointContext(ctx, pts[i%len(pts)], ks, arch.NodePowerBudgetW, 0)
	}))
	pc := dse.NewPerfCache()
	if _, err := dse.ExploreCachedContext(ctx, def, ks, arch.NodePowerBudgetW, 0, dse.Instr{}, pc); err != nil {
		return err
	}
	budget, err := medianMs(10, func(i int) error {
		_, err := dse.ExploreCachedContext(ctx, def, ks, 120+float64(i)*7.77, 0, dse.Instr{}, pc)
		return err
	})
	if err != nil {
		return err
	}
	rng := newRand(l.e.seed, "probe-grids")
	space, err := medianMs(7, func(int) error {
		var req service.ExploreRequest
		perturbGrid(rng, &req)
		s := exploreJob{req: req}.space()
		_, err := dse.ExploreCachedContext(ctx, s, ks, arch.NodePowerBudgetW, 0, dse.Instr{}, pc)
		return err
	})
	if err != nil {
		return err
	}
	out := dse.Explore(def, ks, arch.NodePowerBudgetW, 0)
	evals := make([]dse.Eval, len(out.Evals))
	finalize, err := medianMs(20, func(int) error {
		copy(evals, out.Evals)
		probeSink = dse.Finalize(evals, ks, arch.NodePowerBudgetW, 0)
		return nil
	})
	if err != nil {
		return err
	}
	l.r.layer("dse.explore_ms.budget", budget)
	l.r.layer("dse.explore_ms.space", space)
	l.r.layer("dse.finalize_ms", finalize)
	return nil
}

// probeSurrogate runs the surrogate explorer as the service does, through a
// LocalEvaluator over a shared PerfCache wrapped to time the evaluations;
// model time is the rest: forest fits and acquisition.
func (l *layers) probeSurrogate(ctx context.Context) error {
	ks := workload.Suite()
	space := packagingSpace()
	pc := dse.NewPerfCache()
	var total, evals, model []float64
	for i := 0; i < 4; i++ {
		var evalDur time.Duration
		local := surrogate.LocalEvaluator(ks, arch.NodePowerBudgetW, 0, pc)
		timed := func(ctx context.Context, pts []dse.Point) ([]dse.Eval, error) {
			t0 := time.Now()
			out, err := local(ctx, pts)
			evalDur += time.Since(t0)
			return out, err
		}
		t0 := time.Now()
		if _, err := surrogate.Explore(ctx, space, ks, arch.NodePowerBudgetW, 0,
			surrogate.Options{Budget: surrogateEvalBudget, Seed: l.e.seed + int64(i)}, dse.Instr{}, timed); err != nil {
			return err
		}
		if i == 0 {
			continue // the first run fills the PerfCache, as a server's first jobs do
		}
		d := time.Since(t0)
		total = append(total, ms(d))
		evals = append(evals, ms(evalDur))
		model = append(model, ms(d-evalDur))
	}
	l.r.layer("surrogate.explore_ms", median(total))
	l.r.layer("surrogate.eval_ms", median(evals))
	l.r.layer("surrogate.model_ms", median(model))
	return nil
}

// probeCluster runs Coordinator.Explore over two in-process worker
// handlers; its wire cost is the difference from the same sweep run locally
// without a PerfCache. round_ms is one 16-point EvaluatePoints batch, the
// surrogate's acquisition round.
func (l *layers) probeCluster(ctx context.Context) error {
	w1 := httptest.NewServer(cluster.WorkerHandler(nil))
	defer w1.Close()
	w2 := httptest.NewServer(cluster.WorkerHandler(nil))
	defer w2.Close()
	coord := cluster.NewCoordinator([]string{w1.URL, w2.URL}, nil)
	ks := workload.Suite()
	names := workload.Names()
	def := dse.DefaultSpace()
	sharded, err := medianMs(7, func(i int) error {
		_, err := coord.Explore(ctx, def, ks, names, 120+float64(i)*9.13, 0, "")
		return err
	})
	if err != nil {
		return err
	}
	local, err := medianMs(7, func(i int) error {
		_, err := dse.ExploreContext(ctx, def, ks, 120+float64(i)*9.13, 0, dse.Instr{})
		return err
	})
	if err != nil {
		return err
	}
	all := packagingSpace().Points()
	rng := newRand(l.e.seed, "probe-round")
	round, err := medianMs(20, func(int) error {
		pts := make([]dse.Point, 16)
		for j := range pts {
			pts[j] = all[rng.Intn(len(all))]
		}
		_, err := coord.EvaluatePoints(ctx, pts, ks, names, arch.NodePowerBudgetW, 0)
		return err
	})
	if err != nil {
		return err
	}
	l.r.layer("cluster.explore_ms", sharded)
	l.r.layer("cluster.wire_ms", sharded-local)
	l.r.layer("cluster.round_ms", round)
	return nil
}

// probeExp runs the heaviest experiments in process, with their wall time
// and heap allocation count.
func (l *layers) probeExp(ctx context.Context) error {
	for _, id := range expProbes {
		if err := ctx.Err(); err != nil {
			return err
		}
		x, err := exp.ByID(id)
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		probeSink = x.Run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		l.e.span(id, "experiment", 0, t0, t0.Add(d), nil)
		l.r.layer("exp."+id+"_ms", ms(d))
		l.r.layer("exp."+id+".mallocs", float64(m1.Mallocs-m0.Mallocs))
	}
	return nil
}

// budgetTable is a latency budget: rows that should add up to an
// end-to-end figure.
type budgetTable struct {
	Title    string      `json:"title"`
	Rows     []budgetRow `json:"rows"`
	Against  string      `json:"against"`
	TotalMs  float64     `json:"total_ms"`
	SumMs    float64     `json:"sum_ms"`
	SumRatio float64     `json:"sum_ratio"`
}

type budgetRow struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// budgetTolerance is how far a budget's rows may sum from its total.
const budgetTolerance = 0.15

func newBudget(title, against string, totalMs float64, rows ...budgetRow) *budgetTable {
	b := &budgetTable{Title: title, Rows: rows, Against: against, TotalMs: totalMs}
	for _, r := range rows {
		b.SumMs += r.Ms
	}
	b.SumRatio = ratio(b.SumMs, totalMs)
	return b
}

func (b *budgetTable) print(w io.Writer) {
	fmt.Fprintf(w, "   latency budget: %s\n", b.Title)
	for _, r := range b.Rows {
		fmt.Fprintf(w, "     %-12s %10.4f ms  %5.1f%%\n", r.Name, r.Ms, 100*ratio(r.Ms, b.TotalMs))
	}
	verdict := "within"
	if math.Abs(b.SumRatio-1) > budgetTolerance {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(w, "     %-12s %10.4f ms  against %s %.4f ms: ratio %.3f, %s %.0f%%\n",
		"sum", b.SumMs, b.Against, b.TotalMs, b.SumRatio, verdict, 100*budgetTolerance)
}

// simulateBudget splits one client's simulate latency into the loopback
// transport, the service front, the cache hit and the model (weighted by
// the share of requests that ran it).
func (l *layers) simulateBudget(single loopResult) error {
	s, err := summarize(single.lat, 0.5)
	if err != nil {
		return fmt.Errorf("single-client latency: %w", err)
	}
	l.r.Budget = newBudget("simulate-hot, one client", "single-client p50", s.P50Ms,
		budgetRow{"transport", l.transportUs / 1e3},
		budgetRow{"front", (l.handlerUs - l.cacheUs) / 1e3},
		budgetRow{"cache", l.cacheUs / 1e3},
		budgetRow{"core", l.coreUs * l.missShare / 1e3},
	)
	return nil
}

// exploreBudget breaks down the median job. Per job, submit (POST sent to
// job created), queue wait, run and poll lag add up exactly to its latency;
// the rows average them over the jobs within five percentiles of the median,
// so they sum to about the p50 of the phase. Medians of each row over all
// jobs would not: the job mix is bimodal.
func (l *layers) exploreBudget(recs []jobRecord, lr loopResult) {
	type parts struct{ total, submit, queue, run, lag float64 }
	var ps []parts
	for _, rec := range recs {
		if !rec.done || rec.view.Started == nil || rec.view.Finished == nil {
			continue
		}
		ps = append(ps, parts{
			total:  ms(rec.observed.Sub(rec.submitted)),
			submit: ms(rec.view.Created.Sub(rec.submitted)),
			queue:  ms(rec.view.Started.Sub(rec.view.Created)),
			run:    ms(rec.view.Finished.Sub(*rec.view.Started)),
			lag:    ms(rec.observed.Sub(*rec.view.Finished)),
		})
	}
	if len(ps) == 0 {
		return
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].total < ps[j].total })
	band := ps[len(ps)*45/100 : max(len(ps)*55/100, len(ps)*45/100+1)]
	var mean parts
	for _, p := range band {
		mean.submit += p.submit / float64(len(band))
		mean.queue += p.queue / float64(len(band))
		mean.run += p.run / float64(len(band))
		mean.lag += p.lag / float64(len(band))
	}
	l.r.Budget = newBudget(l.r.Workload+", jobs around the median", "job p50", median(append([]float64(nil), lr.lat...)),
		budgetRow{"submit", mean.submit},
		budgetRow{"queue_wait", mean.queue},
		budgetRow{"run", mean.run},
		budgetRow{"poll_lag", mean.lag},
	)
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
