// Package load generates simulate traffic against a running enaserve and
// records latency/throughput curves — the measurement half of the admission
// control story. A run walks a ramp of stages; each stage drives the
// /v1/simulate route either closed-loop (a fixed number of clients, each
// issuing its next request the moment the last one answers — throughput
// finds its own level) or open-loop (arrivals at a fixed target QPS
// regardless of completions — the regime where an ungoverned server
// collapses, because work arrives whether or not it drains).
//
// Request keys are drawn from a seeded Zipf popularity distribution over a
// finite pool of distinct simulate configurations, the shape of real
// sweep-service traffic: a few hot design points, a long cold tail. Hot keys
// exercise the cache/coalescing path; the tail exercises admission and
// execution.
//
// A stage's outcome separates shed load (503 + Retry-After — the server
// protecting itself) from errors (everything else). The saturation signature
// of working admission control: past the knee, goodput plateaus and shed
// counts grow, while latency of the admitted requests stays bounded.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Mode selects how a stage offers load.
type Mode string

const (
	// Closed runs N clients in lock-step with the server: each waits for
	// its response before sending the next request.
	Closed Mode = "closed"
	// Open fires requests at the target QPS whether or not earlier ones
	// have answered.
	Open Mode = "open"
)

// Stage is one step of a load ramp.
type Stage struct {
	// Name labels the stage in the report (default: derived from the knobs).
	Name string `json:"name"`
	// Concurrency is the client count (closed loop) or the in-flight cap
	// (open loop; 0 = unlimited).
	Concurrency int `json:"concurrency"`
	// QPS is the open-loop arrival rate; ignored closed-loop.
	QPS float64 `json:"qps,omitempty"`
	// Duration is how long the stage offers load.
	Duration time.Duration `json:"-"`
}

// Config tunes a load run.
type Config struct {
	// BaseURL is the enaserve root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Mode is the loop discipline for every stage.
	Mode Mode
	// Stages is the ramp, walked in order.
	Stages []Stage
	// Keys is the distinct-configuration pool size (default 64).
	Keys int
	// ZipfS is the popularity skew exponent, > 1 (default 1.2; larger =
	// hotter head).
	ZipfS float64
	// Seed makes the key sequence reproducible (default 1).
	Seed int64
	// Detailed marks every pool body "detailed": true, turning each cache
	// miss into an event-driven NoC simulation — the heavyweight traffic
	// that actually saturates a node and exercises admission shedding.
	Detailed bool
	// Client is the HTTP client (default: http.DefaultClient with a 30s
	// timeout).
	Client *http.Client
}

// StageResult is one stage's measured outcome.
type StageResult struct {
	Name        string  `json:"name"`
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	TargetQPS   float64 `json:"target_qps,omitempty"`
	DurationSec float64 `json:"duration_sec"`

	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`
	Cached   int64 `json:"cached"`
	Shed     int64 `json:"shed"`
	Errors   int64 `json:"errors"`

	// Goodput is completed-OK per second; OfferedQPS is requests issued per
	// second (for open loop, how close the generator got to its target).
	Goodput    float64 `json:"goodput"`
	OfferedQPS float64 `json:"offered_qps"`

	LatencyMsMean float64 `json:"latency_ms_mean"`
	LatencyMsP50  float64 `json:"latency_ms_p50"`
	LatencyMsP90  float64 `json:"latency_ms_p90"`
	LatencyMsP99  float64 `json:"latency_ms_p99"`
	LatencyMsMax  float64 `json:"latency_ms_max"`
}

// Report is a full run's recorded curve.
type Report struct {
	BaseURL  string        `json:"base_url"`
	Mode     string        `json:"mode"`
	Keys     int           `json:"keys"`
	ZipfS    float64       `json:"zipf_s"`
	Seed     int64         `json:"seed"`
	Detailed bool          `json:"detailed,omitempty"`
	Stages   []StageResult `json:"stages"`
}

// keyPool is the seeded set of distinct simulate request bodies, with a Zipf
// popularity order: index 0 is the hottest configuration.
type keyPool struct {
	bodies [][]byte
	zipf   *rand.Zipf
	mu     sync.Mutex
}

var poolKernels = []string{"CoMD", "HPGMG", "SNAP", "LULESH", "MiniAMR", "XSBench"}

func newKeyPool(n int, s float64, seed int64, detailed bool) *keyPool {
	if n <= 0 {
		n = 64
	}
	if s <= 1 {
		s = 1.2
	}
	rng := rand.New(rand.NewSource(seed))
	p := &keyPool{
		bodies: make([][]byte, n),
		zipf:   rand.NewZipf(rng, s, 1, uint64(n-1)),
	}
	// Distinct configurations spread over the design space; deterministic
	// given n.
	cus := []int{64, 128, 192, 256, 320, 384}
	freqs := []float64{800, 1000, 1200, 1400}
	bws := []float64{1, 2, 3, 4}
	for i := 0; i < n; i++ {
		body := map[string]any{
			"kernel":   poolKernels[i%len(poolKernels)],
			"cus":      cus[(i/len(poolKernels))%len(cus)],
			"freq_mhz": freqs[(i/(len(poolKernels)*len(cus)))%len(freqs)],
			"bw_tbps":  bws[i%len(bws)],
		}
		if detailed {
			body["detailed"] = true
		}
		b, err := json.Marshal(body)
		if err != nil {
			panic("load: pool body marshal: " + err.Error())
		}
		p.bodies[i] = b
	}
	return p
}

// next draws a body by Zipf popularity. rand.Zipf is not concurrency-safe,
// so the draw is locked; the request itself runs unlocked.
func (p *keyPool) next() []byte {
	p.mu.Lock()
	i := int(p.zipf.Uint64())
	p.mu.Unlock()
	return p.bodies[i]
}

// recorder accumulates one stage's samples.
type recorder struct {
	mu        sync.Mutex
	latencies []float64 // ms, successful requests only
	requests  int64
	ok        int64
	cached    int64
	shed      int64
	errors    int64
}

func (r *recorder) record(latMs float64, status int, cached bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests++
	switch {
	case status == http.StatusOK:
		r.ok++
		if cached {
			r.cached++
		}
		r.latencies = append(r.latencies, latMs)
	case status == http.StatusServiceUnavailable:
		r.shed++
	default:
		r.errors++
	}
}

// Run walks the ramp and returns the recorded curve. A stage that cannot
// reach the server at all fails the run; shed responses (503) are data, not
// errors.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.BaseURL == "" {
		return Report{}, fmt.Errorf("load: BaseURL is required")
	}
	if cfg.Mode == "" {
		cfg.Mode = Closed
	}
	if cfg.Mode != Closed && cfg.Mode != Open {
		return Report{}, fmt.Errorf("load: unknown mode %q (want closed or open)", cfg.Mode)
	}
	if len(cfg.Stages) == 0 {
		return Report{}, fmt.Errorf("load: no stages")
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	pool := newKeyPool(cfg.Keys, cfg.ZipfS, cfg.Seed, cfg.Detailed)
	rep := Report{
		BaseURL:  strings.TrimRight(cfg.BaseURL, "/"),
		Mode:     string(cfg.Mode),
		Keys:     cfg.Keys,
		ZipfS:    cfg.ZipfS,
		Seed:     cfg.Seed,
		Detailed: cfg.Detailed,
	}
	url := rep.BaseURL + "/v1/simulate"
	for _, st := range cfg.Stages {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		res, err := runStage(ctx, client, url, pool, cfg.Mode, st)
		if err != nil {
			return rep, fmt.Errorf("load: stage %q: %w", st.Name, err)
		}
		rep.Stages = append(rep.Stages, res)
	}
	return rep, nil
}

func runStage(ctx context.Context, client *http.Client, url string, pool *keyPool, mode Mode, st Stage) (StageResult, error) {
	if st.Duration <= 0 {
		st.Duration = time.Second
	}
	if st.Concurrency <= 0 && mode == Closed {
		st.Concurrency = 1
	}
	name := st.Name
	if name == "" {
		if mode == Open {
			name = fmt.Sprintf("open-qps%g", st.QPS)
		} else {
			name = fmt.Sprintf("closed-c%d", st.Concurrency)
		}
	}
	rec := &recorder{}
	sctx, cancel := context.WithTimeout(ctx, st.Duration)
	defer cancel()
	t0 := time.Now()
	var err error
	if mode == Open {
		err = runOpen(sctx, client, url, pool, st, rec)
	} else {
		err = runClosed(sctx, client, url, pool, st.Concurrency, rec)
	}
	elapsed := time.Since(t0).Seconds()
	if err != nil {
		return StageResult{}, err
	}
	res := StageResult{
		Name:        name,
		Mode:        string(mode),
		Concurrency: st.Concurrency,
		TargetQPS:   st.QPS,
		DurationSec: elapsed,
		Requests:    rec.requests,
		OK:          rec.ok,
		Cached:      rec.cached,
		Shed:        rec.shed,
		Errors:      rec.errors,
	}
	if elapsed > 0 {
		res.Goodput = float64(rec.ok) / elapsed
		res.OfferedQPS = float64(rec.requests) / elapsed
	}
	fillLatencies(&res, rec.latencies)
	return res, nil
}

// oneRequest issues a single simulate call and records it. Transport errors
// after the stage context ends are the shutdown race, not data.
func oneRequest(ctx context.Context, client *http.Client, url string, body []byte, rec *recorder) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	var sr struct {
		Cached bool `json:"cached"`
	}
	rd := io.LimitReader(resp.Body, 1<<20)
	_ = json.NewDecoder(rd).Decode(&sr)
	// The decoder stops at the end of the value, which may leave the
	// encoder's trailing newline unread; a body closed before EOF costs the
	// client its keep-alive connection.
	io.Copy(io.Discard, rd)
	resp.Body.Close()
	rec.record(float64(time.Since(t0).Nanoseconds())/1e6, resp.StatusCode, sr.Cached)
	return nil
}

func runClosed(ctx context.Context, client *http.Client, url string, pool *keyPool, clients int, rec *recorder) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if err := oneRequest(ctx, client, url, pool.next(), rec); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func runOpen(ctx context.Context, client *http.Client, url string, pool *keyPool, st Stage, rec *recorder) error {
	if st.QPS <= 0 {
		return fmt.Errorf("open loop needs a positive qps (got %g)", st.QPS)
	}
	interval := time.Duration(float64(time.Second) / st.QPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	// The in-flight cap keeps the generator itself from hoarding sockets
	// when the server stops answering; a full cap counts as shed at the
	// client (the request would have queued unboundedly).
	var slots chan struct{}
	if st.Concurrency > 0 {
		slots = make(chan struct{}, st.Concurrency)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return firstErr
		case <-tick.C:
			if slots != nil {
				select {
				case slots <- struct{}{}:
				default:
					rec.record(0, http.StatusServiceUnavailable, false)
					continue
				}
			}
			wg.Add(1)
			go func(body []byte) {
				defer wg.Done()
				if slots != nil {
					defer func() { <-slots }()
				}
				// Detach from the stage context so in-flight requests
				// finish measuring after the stage window closes.
				rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer rcancel()
				if err := oneRequest(rctx, client, url, body, rec); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(pool.next())
		}
	}
}

func fillLatencies(res *StageResult, ms []float64) {
	if len(ms) == 0 {
		return
	}
	sort.Float64s(ms)
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(ms)-1))
		return ms[i]
	}
	res.LatencyMsMean = sum / float64(len(ms))
	res.LatencyMsP50 = q(0.50)
	res.LatencyMsP90 = q(0.90)
	res.LatencyMsP99 = q(0.99)
	res.LatencyMsMax = ms[len(ms)-1]
}

// WriteJSON writes the report as indented JSON — the LOAD_*.json artifact
// format next to the BENCH_*.json files.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render formats the curve as an aligned text table, one stage per row.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load curve: %s mode=%s keys=%d zipf=%.2f seed=%d\n",
		r.BaseURL, r.Mode, r.Keys, r.ZipfS, r.Seed)
	fmt.Fprintf(&b, "%-14s %6s %9s %9s %8s %7s %6s %6s %9s %9s %9s\n",
		"stage", "conc", "offered/s", "goodput/s", "requests", "cached", "shed", "errors", "p50 ms", "p99 ms", "max ms")
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "%-14s %6d %9.1f %9.1f %8d %7d %6d %6d %9.2f %9.2f %9.2f\n",
			s.Name, s.Concurrency, s.OfferedQPS, s.Goodput, s.Requests, s.Cached, s.Shed, s.Errors,
			s.LatencyMsP50, s.LatencyMsP99, s.LatencyMsMax)
	}
	return b.String()
}
