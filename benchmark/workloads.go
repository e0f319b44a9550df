package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"ena/internal/obs"
	"ena/internal/service"
)

// Warm-up sizes. Each is a fixed operation count, so setup_s measures the
// same work on every run; each takes about a second on a 2-vCPU host.
const (
	hotWarmup     = 20000 // simulate-hot requests after every key once
	storeWarmup   = 2000  // simulate-store requests
	exploreWarmup = 100   // explore jobs, the first of the stream
)

// Open-loop stages of simulate-store. The rates are fixed so that every run
// offers the same load; high sits below the knee, which lies between 4,000
// and 5,000 req/s on a 2-vCPU host.
var storeStages = []struct {
	name string
	rate float64
}{{"low", 1000}, {"mid", 2000}, {"high", 3000}}

// Open-loop limits: a stage meets them when its p99 is within 10 ms, at
// most 0.1% of its requests failed, and the generator's lateness p99 stayed
// within 5 ms, so no backlog grew.
const (
	limitP99Ms      = 10
	limitErrorRatio = 0.001
	limitLatenessMs = 5
)

// setUp starts the workload's servers setupRepeats times and keeps the last
// set. Each set-up is timed from the exec of the first server to the end of
// the fixed-count warm-up; setup_s is their median.
func (e *env) setUp(ctx context.Context, r *result, start func() ([]*server, error), warm func(context.Context, []*server) error) ([]*server, error) {
	for i := 0; ; i++ {
		t0 := time.Now()
		ss, err := start()
		for _, s := range ss {
			if err == nil {
				err = s.waitReady(ctx, e.client)
			}
		}
		if err == nil {
			err = warm(ctx, ss)
		}
		if err != nil {
			stopAll(ss)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.SetupsS = append(r.SetupsS, time.Since(t0).Seconds())
		e.span("setup", "setup", 0, t0, time.Now(), nil)
		if i == setupRepeats-1 {
			r.set("setup_s", median(append([]float64(nil), r.SetupsS...)))
			return ss, nil
		}
		stopAll(ss)
	}
}

// oneServer starts a single enaserve with args.
func (e *env) oneServer(args ...string) func() ([]*server, error) {
	return func() ([]*server, error) {
		s, err := startServer(e.enaserve(), "enaserve", args...)
		if err != nil {
			return nil, err
		}
		return []*server{s}, nil
	}
}

// warmLoop runs a fixed-count warm-up and fails on any failed operation.
func (e *env) warmLoop(ctx context.Context, workers, n int, fn op) error {
	l := closedLoop(ctx, workers, time.Hour, n, fn)
	if l.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d failed: %w", l.failed, l.attempted, l.firstErr)
	}
	return nil
}

// phase is a measured phase against running servers. With tracing on, every
// odd-numbered operation records a span, so traced and untraced operations
// interleave under the same conditions and their latencies give the tracing
// overhead; the servers' counters are scraped before and after.
type phase struct {
	e        *env
	ss       []*server
	spanName string
	rss      *rssSampler
	before   []obs.Snapshot
	after    []obs.Snapshot
	rssMiB   float64 // median resident set size over the phase
}

func (e *env) startPhase(ctx context.Context, ss []*server, spanName string) (*phase, error) {
	p := &phase{e: e, ss: ss, spanName: spanName}
	var err error
	if e.trace {
		if p.before, err = scrape(ctx, e.client, ss); err != nil {
			return nil, err
		}
	}
	// Flush what building and set-up wrote, so that its write-back does not
	// land in the measured phase.
	syscall.Sync()
	p.rss = sampleRSS(ss)
	return p, nil
}

// wrap records a span for each odd-numbered operation when tracing.
func (p *phase) wrap(fn op) op {
	if !p.e.trace {
		return fn
	}
	return func(ctx context.Context, w, seq int) (time.Time, error) {
		if seq%2 == 0 {
			return fn(ctx, w, seq)
		}
		t0 := time.Now()
		arrived, err := fn(ctx, w, seq)
		p.e.span(p.spanName, "op", w+1, t0, arrived, nil)
		return arrived, err
	}
}

// end reads the servers' resident memory over the phase, and their
// counters when tracing.
func (p *phase) end(ctx context.Context) error {
	var err error
	if p.rssMiB, err = p.rss.median(); err != nil {
		return err
	}
	if p.e.trace {
		p.after, err = scrape(ctx, p.e.client, p.ss)
	}
	return err
}

// measureClosed runs fn in a closed loop for the measured phase and sets the
// end-to-end metrics from it.
func (e *env) measureClosed(ctx context.Context, r *result, ss []*server, spanName string, fn op) (loopResult, *phase, error) {
	p, err := e.startPhase(ctx, ss, spanName)
	if err != nil {
		return loopResult{}, nil, err
	}
	t0 := time.Now()
	l := closedLoop(ctx, e.workers, e.measure(), 0, p.wrap(fn))
	e.span("measure", "phase", 0, t0, time.Now(), nil)
	if err := p.end(ctx); err != nil {
		return l, nil, err
	}
	r.add(l)
	r.set("rss_mb", p.rssMiB)
	return l, p, r.endToEnd(l)
}

// simTarget issues /v1/simulate requests for a pool and verifies them.
type simTarget struct {
	e     *env
	items []simItem
	ver   *simVerifier
	bufs  []bytes.Buffer // one per worker
}

func newSimTarget(e *env, items []simItem) *simTarget {
	return &simTarget{e: e, items: items, ver: newSimVerifier(items), bufs: make([]bytes.Buffer, e.workers)}
}

// op posts pool item pick(seq) to the server at url.
func (t *simTarget) op(url string, pick func(seq int) int) op {
	return func(ctx context.Context, w, seq int) (time.Time, error) {
		i := pick(seq)
		buf := &t.bufs[w]
		status, err := do(ctx, t.e.client, http.MethodPost, url+"/v1/simulate", t.items[i].body, buf)
		arrived := time.Now()
		if err != nil {
			return arrived, err
		}
		if status != http.StatusOK {
			return arrived, statusErr("simulate", status, buf.Bytes())
		}
		return arrived, t.ver.check(i, buf.Bytes())
	}
}

func cycle(ranks []int) func(int) int {
	return func(seq int) int { return ranks[seq%len(ranks)] }
}

// runSimulateHot: a default enaserve, 64 bodies drawn Zipf s=1.2, two
// closed-loop clients.
func runSimulateHot(ctx context.Context, e *env, r *result) error {
	items := hotPool(e.seed)
	t := newSimTarget(e, items)
	warm := zipfRanks(newRand(e.seed, "hot-warmup"), 1.2, len(items), e.count(hotWarmup))
	ranks := zipfRanks(newRand(e.seed, "hot-ranks"), 1.2, len(items), 1<<20)
	ss, err := e.setUp(ctx, r, e.oneServer(), func(ctx context.Context, ss []*server) error {
		if err := e.warmLoop(ctx, 1, len(items), t.op(ss[0].url, func(seq int) int { return seq })); err != nil {
			return err
		}
		return e.warmLoop(ctx, e.workers, len(warm), t.op(ss[0].url, cycle(warm)))
	})
	if err != nil {
		return err
	}
	defer stopAll(ss)
	l, p, err := e.measureClosed(ctx, r, ss, "simulate", t.op(ss[0].url, cycle(ranks)))
	if err != nil || !e.trace {
		return err
	}
	// One client alone: the figure the latency budget is held against.
	single := closedLoop(ctx, 1, time.Duration(e.scale*1.5*float64(time.Second)), 0, t.op(ss[0].url, cycle(ranks)))
	r.add(single)
	stopAll(ss)
	lay := e.newLayers(r)
	lay.overhead(l)
	lay.server(p.before, p.after, 0)
	if err := lay.probe(ctx); err != nil {
		return err
	}
	return lay.simulateBudget(single)
}

// runSimulateStore: half of a 16,384-body pool is written into a fresh store
// by a populate server; the measured server restarts on it with a 1,024-entry
// memory cache and takes three open-loop stages of fixed rate.
func runSimulateStore(ctx context.Context, e *env, r *result) error {
	items := storePool(e.seed)
	t := newSimTarget(e, items)
	dir := filepath.Join(e.tmp, "store")
	start := e.oneServer("-store-dir", dir, "-cache", "1024")

	// Preparation, not timed: the odd Zipf ranks go into the store.
	pop, err := start()
	if err != nil {
		return err
	}
	err = pop[0].waitReady(ctx, e.client)
	if err == nil {
		err = e.warmLoop(ctx, e.workers, len(items)/2, t.op(pop[0].url, func(seq int) int { return 2*seq + 1 }))
	}
	stopAll(pop)
	if err != nil {
		return fmt.Errorf("populate: %w", err)
	}

	warm := zipfRanks(newRand(e.seed, "store-warmup"), 1.1, len(items), e.count(storeWarmup))
	ss, err := e.setUp(ctx, r, start, func(ctx context.Context, ss []*server) error {
		return e.warmLoop(ctx, e.workers, len(warm), t.op(ss[0].url, cycle(warm)))
	})
	if err != nil {
		return err
	}
	defer stopAll(ss)
	p, err := e.startPhase(ctx, ss, "simulate")
	if err != nil {
		return err
	}
	rng := newRand(e.seed, "store-stages")
	var ls []loopResult
	for _, st := range storeStages {
		due := poissonSchedule(rng, st.rate, e.measure()/time.Duration(len(storeStages)))
		ranks := zipfRanks(rng, 1.1, len(items), len(due))
		t0 := time.Now()
		l := openLoop(ctx, e.workers, due, p.wrap(t.op(ss[0].url, func(i int) int { return ranks[i] })))
		e.span("stage "+st.name, "phase", 0, t0, time.Now(), map[string]any{"rate": st.rate})
		if err := r.addStage(st.name, st.rate, l); err != nil {
			return err
		}
		ls = append(ls, l)
	}
	if err := p.end(ctx); err != nil {
		return err
	}
	// Throughput over all three stages, p50 at mid, p99 at high.
	all := join(ls...)
	if err := r.endToEnd(all); err != nil {
		return err
	}
	mid, high := r.Stages[1].Latency, r.Stages[2].Latency
	r.Latency = high
	r.set("latency_p50_ms", mid.P50Ms)
	r.set("latency_tail_ms", high.TailMs)
	r.set("rss_mb", p.rssMiB)
	r.extra("error_ratio", float64(all.failed)/float64(all.attempted))
	if !e.trace {
		return nil
	}
	stopAll(ss)
	lay := e.newLayers(r)
	lay.storeDir = dir
	lay.overhead(all)
	lay.server(p.before, p.after, 0)
	return lay.probe(ctx)
}

// addStage records one open-loop stage: its latency, timed from each
// request's due time, the generator's lateness, and whether it met the
// open-loop limits; max_rate_rps is the highest rate that did.
func (r *result) addStage(name string, rate float64, l loopResult) error {
	r.add(l)
	s, err := summarize(l.lat, 0.99)
	if err != nil {
		return fmt.Errorf("stage %s: %w", name, err)
	}
	late, ok := percentile(sortedCopy(l.lateness), 0.99)
	if !ok {
		return fmt.Errorf("stage %s: %d requests cannot support a lateness p99", name, len(l.lateness))
	}
	meets := s.TailMs <= limitP99Ms && float64(l.failed) <= limitErrorRatio*float64(l.attempted) && late <= limitLatenessMs
	r.Stages = append(r.Stages, stageReport{
		Name: name, RateRPS: rate, Seconds: l.elapsed.Seconds(),
		Attempted: l.attempted, Failed: l.failed, Latency: s, LatenessP99Ms: late, MeetsLimit: meets,
	})
	if meets && rate > r.Extra["max_rate_rps"] {
		r.extra("max_rate_rps", rate)
	}
	return nil
}

// exploreTarget runs explore jobs from a stream: submit, then poll every
// 2 ms until the job is terminal.
type exploreTarget struct {
	e    *env
	jobs []exploreJob
	bufs []bytes.Buffer
	recs []jobRecord // by job index; each written by the one worker that ran it
}

// jobRecord is one finished job as the client saw it.
type jobRecord struct {
	done      bool
	submitted time.Time // POST sent
	observed  time.Time // terminal state seen
	view      jobView   // with Result compacted
	result    service.ExploreResult
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	ID       string           `json:"id"`
	State    service.JobState `json:"state"`
	Created  time.Time        `json:"created"`
	Started  *time.Time       `json:"started"`
	Finished *time.Time       `json:"finished"`
	Error    string           `json:"error"`
	Result   json.RawMessage  `json:"result"`
}

const pollEvery = 2 * time.Millisecond

// op runs job first+seq against url.
func (x *exploreTarget) op(url string, first int) op {
	return func(ctx context.Context, w, seq int) (time.Time, error) {
		i := first + seq
		if i >= len(x.jobs) {
			return time.Time{}, errExhausted
		}
		buf := &x.bufs[w]
		rec := jobRecord{submitted: time.Now()}
		status, err := do(ctx, x.e.client, http.MethodPost, url+"/v1/explore", x.jobs[i].body, buf)
		for {
			rec.observed = time.Now()
			if err != nil {
				return rec.observed, err
			}
			if status != http.StatusOK && status != http.StatusAccepted {
				return rec.observed, statusErr("explore", status, buf.Bytes())
			}
			var got struct{ Job jobView }
			if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
				return rec.observed, fmt.Errorf("explore job: %w", err)
			}
			if rec.view = got.Job; rec.view.State.Terminal() {
				break
			}
			time.Sleep(pollEvery)
			status, err = do(ctx, x.e.client, http.MethodGet, url+"/v1/jobs/"+rec.view.ID, nil, buf)
		}
		if rec.view.State != service.JobDone {
			return rec.observed, fmt.Errorf("job %s %s: %s", rec.view.ID, rec.view.State, rec.view.Error)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, rec.view.Result); err != nil {
			return rec.observed, fmt.Errorf("job %s result: %w", rec.view.ID, err)
		}
		rec.view.Result = compact.Bytes()
		if rec.result, err = checkExploreResult(x.jobs[i], rec.view.Result); err != nil {
			return rec.observed, err
		}
		rec.done = true
		x.recs[i] = rec
		return rec.observed, nil
	}
}

func runExploreLocal(ctx context.Context, e *env, r *result) error {
	return runExplore(ctx, e, r, e.oneServer())
}

// runExploreSharded sends the explore-local stream to a coordinator that
// shards every sweep across two worker processes.
func runExploreSharded(ctx context.Context, e *env, r *result) error {
	return runExplore(ctx, e, r, func() ([]*server, error) {
		var ss []*server
		for _, name := range []string{"worker-1", "worker-2"} {
			s, err := startServer(e.enaserve(), name, "-worker")
			if err != nil {
				return ss, err
			}
			ss = append(ss, s)
		}
		c, err := startServer(e.enaserve(), "coordinator", "-peers", ss[0].url+","+ss[1].url)
		if err != nil {
			return ss, err
		}
		return append(ss, c), nil
	})
}

// runExplore drives the seeded job stream at the last server start returns
// (the coordinator when sharded). The first exploreWarmup jobs warm each
// set-up; the measured phase continues the stream, so no cache key repeats.
func runExplore(ctx context.Context, e *env, r *result, start func() ([]*server, error)) error {
	warm := e.count(exploreWarmup)
	// Sized for four times the ~100 jobs/s two clients complete on a 2-vCPU
	// host; a server fast enough to exhaust it ends the phase early.
	jobs := exploreStream(e.seed, min(8000, warm+int(400*e.seconds)))
	x := &exploreTarget{e: e, jobs: jobs, bufs: make([]bytes.Buffer, e.workers), recs: make([]jobRecord, len(jobs))}

	// References first, in process, before any server competes for the CPUs.
	sample := referenceSample(e.seed, jobs, warm)
	refs := map[int]service.ExploreResult{}
	t0 := time.Now()
	for i := range sample {
		ref, err := exploreReference(ctx, jobs[i])
		if err != nil {
			return fmt.Errorf("reference for job %d: %w", i, err)
		}
		refs[i] = ref
	}
	e.span("references", "check", 0, t0, time.Now(), nil)

	ss, err := e.setUp(ctx, r, start, func(ctx context.Context, ss []*server) error {
		return e.warmLoop(ctx, e.workers, warm, x.op(ss[len(ss)-1].url, 0))
	})
	if err != nil {
		return err
	}
	defer stopAll(ss)
	l, p, err := e.measureClosed(ctx, r, ss, "explore", x.op(ss[len(ss)-1].url, warm))
	if err != nil {
		return err
	}
	measured := x.recs[warm:]
	if e.trace {
		stopAll(ss)
		lay := e.newLayers(r)
		lay.overhead(l)
		lay.server(p.before, p.after, len(l.lat))
		lay.jobs(measured)
		if err := lay.probe(ctx); err != nil {
			return err
		}
		lay.exploreBudget(measured, l)
	}

	// Each job's result passed checkExploreResult as it arrived. It must
	// also carry a key of its own, and the sample must equal the in-process
	// reference.
	keys := map[string]int{}
	r.jobs = map[int]json.RawMessage{}
	checked := 0
	for i := warm; i < len(x.recs); i++ {
		rec := x.recs[i]
		if !rec.done {
			continue
		}
		r.jobs[i] = rec.view.Result
		if j, dup := keys[rec.result.Key]; dup {
			r.fail("jobs %d and %d share key %s", j, i, rec.result.Key)
		}
		keys[rec.result.Key] = i
		if ref, ok := refs[i]; ok {
			checked++
			if !sameResult(rec.result, ref) {
				r.fail("job %d (%s): served result differs from the in-process reference", i, jobs[i].class)
			}
		}
	}
	r.extra("reference_jobs_checked", float64(checked))
	return nil
}

// crossCheckExplore compares explore-local and explore-sharded job by job:
// the same job must produce byte-identical results.
func crossCheckExplore(results []*result) {
	var local, sharded *result
	for _, r := range results {
		switch r.Workload {
		case "explore-local":
			local = r
		case "explore-sharded":
			sharded = r
		}
	}
	if local == nil || sharded == nil {
		return
	}
	n := 0
	for i, a := range local.jobs {
		if b, ok := sharded.jobs[i]; ok {
			n++
			if !bytes.Equal(a, b) {
				sharded.fail("job %d: sharded result differs from the local one", i)
			}
		}
	}
	sharded.extra("jobs_compared_with_local", float64(n))
}

// runPaperAll: sequential enasim -all passes, each a fresh process, each
// checked against the recorded output hash. A traced run adds -metrics to
// every odd-numbered pass.
func runPaperAll(ctx context.Context, e *env, r *result) error {
	// Set-up: exec to exit of a one-experiment run (fig7), three times.
	for i := 0; i < setupRepeats; i++ {
		p, err := e.enasimPass(ctx, "-run", "fig7")
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.SetupsS = append(r.SetupsS, p.wall.Seconds())
	}
	r.set("setup_s", median(append([]float64(nil), r.SetupsS...)))
	syscall.Sync() // as startPhase does

	var l loopResult
	var rss []float64 // each pass's peak
	var report []byte
	for i := 0; i < 2 || l.elapsed+l.elapsed/time.Duration(i) <= e.measure(); i++ {
		args := []string{"-all"}
		if e.trace && i%2 == 1 {
			args = append(args, "-metrics")
		}
		p, err := e.enasimPass(ctx, args...)
		if err != nil {
			return err
		}
		if p.sha != paperAllSHA256 {
			r.fail("enasim -all output sha256 %s, want %s", p.sha, paperAllSHA256)
		}
		l.lat = append(l.lat, ms(p.wall))
		l.seq = append(l.seq, i)
		l.elapsed += p.wall
		rss = append(rss, p.maxRSSMiB)
		if p.report != nil {
			report = p.report
		}
	}
	l.tally()
	r.add(l)
	if err := r.endToEnd(l); err != nil {
		return err
	}
	r.set("rss_mb", median(rss))
	if !e.trace {
		return nil
	}
	lay := e.newLayers(r)
	lay.overhead(l)
	lay.enasim(report)
	return lay.probe(ctx)
}

// enasimPass is one finished enasim process.
type enasimPass struct {
	wall      time.Duration
	maxRSSMiB float64
	sha       string // of stdout, up to any metrics report
	report    []byte // the -metrics report, if asked for
}

// enasimPass runs enasim with args, timing exec to exit.
func (e *env) enasimPass(ctx context.Context, args ...string) (enasimPass, error) {
	var out bytes.Buffer
	errLog := &tailBuffer{max: 8 << 10}
	cmd := exec.CommandContext(ctx, e.enasim(), args...)
	cmd.Stdout, cmd.Stderr = &out, errLog
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return enasimPass{}, fmt.Errorf("enasim %v: %w\n%s", args, err, errLog)
	}
	p := enasimPass{wall: time.Since(t0)}
	e.span("enasim", "op", 1, t0, time.Now(), map[string]any{"args": fmt.Sprint(args)})
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.maxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	text := out.Bytes()
	// -metrics appends a blank line and the report to the -all output.
	if i := bytes.Index(text, []byte("\n== metrics report")); i >= 0 {
		text, p.report = text[:i], text[i+1:]
	}
	sum := sha256.Sum256(text)
	p.sha = hex.EncodeToString(sum[:])
	return p, nil
}
