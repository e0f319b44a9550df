// Command enabench is the repository's benchmark. It builds cmd/enaserve and
// cmd/enasim from the checkout in the working directory, runs one or all of
// five workloads against them, checks every output for correctness, and
// prints each end-to-end metric with its unit. With -trace 1 it also times
// the layers the workload passes through, from outside the program, and
// prints the per-layer metrics instead.
//
// Run it from the repository root through benchmark/run.sh:
//
//	bash benchmark/run.sh --workload simulate-hot --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1 --out result.json
//	bash benchmark/run.sh --seed 1 --trace 1 --trace-out trace.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when every
// correctness check passed. See benchmark/README.md for the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ena/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "echo" {
		os.Exit(runEcho(os.Args[2:]))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// workloadDef is one of the benchmark's traffic shapes.
type workloadDef struct {
	name string
	loop string // the load shape, as recorded in the result
	why  string
	// tailQ is the fixed percentile latency_tail_ms reports (1 = the
	// maximum, for a workload with too few operations for a percentile).
	tailQ float64
	run   func(ctx context.Context, e *env, r *result) error
}

var workloads = []workloadDef{
	{
		name: "simulate-hot", tailQ: 0.99, run: runSimulateHot,
		loop: "closed loop, 2 clients, 64-key pool, Zipf s=1.2",
		why:  "nearly every request is a memory-cache hit, so time goes to the request front: HTTP, decode, key, admission bypass, cache lookup, encode",
	},
	{
		name: "simulate-store", tailQ: 0.99, run: runSimulateStore,
		loop: "open loop, 2 sender connections, 1,000, 2,000 and 3,000 req/s stages, 16,384-key pool, Zipf s=1.1",
		why:  "a working set 16x the memory cache over a restarted store: store reads, write-backs, eviction and admission are on the path",
	},
	{
		name: "explore-local", tailQ: 0.95, run: runExploreLocal,
		loop: "closed loop, 2 clients, submit then poll every 2 ms",
		why:  "scheduler, DSE sweep, PerfCache and surrogate fit, with no repeated cache keys",
	},
	{
		name: "explore-sharded", tailQ: 0.95, run: runExploreSharded,
		loop: "closed loop, 2 clients, coordinator plus two workers",
		why:  "the explore-local job stream through shard dispatch, the NDJSON wire, worker evaluation and merge",
	},
	{
		name: "paper-all", tailQ: 1, run: runPaperAll,
		loop: "sequential enasim -all passes, one process each",
		why:  "the paper reproduction: NoC, fabric, thermal and memsys models no service workload touches",
	},
}

// setupRepeats is how many times a workload sets up; setup_s is the median.
const setupRepeats = 3

// env is what every workload shares within one benchmark run.
type env struct {
	root    string
	bins    string // directory holding the built enaserve and enasim
	tmp     string // scratch directory, removed at exit
	seed    int64
	seconds float64
	trace   bool
	tracer  *obs.Tracer // nil unless tracing
	workers int         // client goroutines and connections
	client  *http.Client
	pid     int     // trace track of the running workload
	scale   float64 // shrinks warm-ups for smoke tests; 1 in every real run
}

// count scales a warm-up size.
func (e *env) count(n int) int { return max(1, int(float64(n)*e.scale)) }

func (e *env) enaserve() string { return filepath.Join(e.bins, "enaserve") }
func (e *env) enasim() string   { return filepath.Join(e.bins, "enasim") }

// measure is the length of the measured phase.
func (e *env) measure() time.Duration {
	return time.Duration(e.seconds * float64(time.Second))
}

// span records a wall-clock span [start, end) on the workload's trace
// track.
func (e *env) span(name, cat string, tid int, start, end time.Time, args map[string]any) {
	if e.tracer == nil {
		return
	}
	ts := e.tracer.WallUS() - us(time.Since(start))
	e.tracer.Complete(name, cat, ts, us(end.Sub(start)), e.pid, tid, args)
}

// metricDef declares a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"rss_mb", "MiB"},
}

// unitOf returns a declared metric's unit. An undeclared name is a bug in
// the benchmark.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("enabench: undeclared metric " + name)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stageReport is one open-loop stage.
type stageReport struct {
	Name          string  `json:"name"`
	RateRPS       float64 `json:"rate_rps"`
	Seconds       float64 `json:"seconds"`
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
	Latency       summary `json:"latency"`
	LatenessP99Ms float64 `json:"lateness_p99_ms"`
	MeetsLimit    bool    `json:"meets_limit"`
}

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Loop      string             `json:"loop"`
	Why       string             `json:"why"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []string           `json:"failed_checks,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Layers    map[string]metric  `json:"layers,omitempty"`
	SetupsS   []float64          `json:"setups_s,omitempty"`
	Latency   summary            `json:"latency"`
	Stages    []stageReport      `json:"stages,omitempty"`
	Extra     map[string]float64 `json:"extra,omitempty"`
	Budget    *budgetTable       `json:"budget,omitempty"`

	tailQ float64                 // the workload's latency_tail_ms percentile
	jobs  map[int]json.RawMessage // explore results by stream index
}

func (r *result) set(name string, v float64) { r.Metrics[name] = metric{v, unitOf(endToEnd, name)} }

func (r *result) layer(name string, v float64) {
	if r.Layers == nil {
		r.Layers = map[string]metric{}
	}
	r.Layers[name] = metric{v, unitOf(perLayer, name)}
}

// extra records a figure that is reported but not gated.
func (r *result) extra(name string, v float64) {
	if r.Extra == nil {
		r.Extra = map[string]float64{}
	}
	r.Extra[name] = v
}

// fail records a failed correctness check; the run then exits non-zero.
func (r *result) fail(format string, args ...any) {
	if len(r.Checks) < 20 {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
	r.Failed++
}

// add folds a measured loop into the operation counts and its first error
// into the failed checks.
func (r *result) add(l loopResult) {
	r.Attempted += l.attempted
	r.Failed += l.failed
	if l.firstErr != nil && len(r.Checks) < 20 {
		r.Checks = append(r.Checks, fmt.Sprintf("%d of %d operations failed; first: %v", l.failed, l.attempted, l.firstErr))
	}
}

// endToEnd sets the latency metrics and throughput from the measured
// phase's loop.
func (r *result) endToEnd(l loopResult) error {
	s, err := summarize(l.lat, r.tailQ)
	if err != nil {
		return fmt.Errorf("latency: %w", err)
	}
	r.Latency = s
	r.set("ops_per_s", float64(l.attempted-l.failed)/l.elapsed.Seconds())
	r.set("latency_p50_ms", s.P50Ms)
	r.set("latency_tail_ms", s.TailMs)
	return nil
}

// host records where and on what a result was measured.
type host struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func hostInfo(root string, seed int64, seconds float64, trace bool) host {
	h := host{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: "unknown", Seed: seed, Seconds: seconds, Trace: trace,
	}
	// The commit, read from .git without running git; a checkout that is not
	// a repository, or a ref git has packed, reads as unknown.
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		h.Commit = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h.Commit, "ref: "); ok {
			h.Commit = "unknown"
			if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
				h.Commit = strings.TrimSpace(string(id))
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// line is the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("enabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "length of each workload's measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := fs.String("out", "", "write the full result, with host details, as JSON to this file")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the Chrome trace to this file (default .bench_build/trace.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 3 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "enabench: want -trace 0 or 1, -seconds >= 3 and no positional arguments")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "enabench: unknown workload %q\n", *name)
		return 2
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "enabench:", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "enaserve")); err != nil {
		fmt.Fprintln(stderr, "enabench: run from the repository root:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "enabench-")
	if err != nil {
		fmt.Fprintln(stderr, "enabench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if err := buildBinaries(ctx, root, tmp); err != nil {
		fmt.Fprintln(stderr, "enabench:", err)
		return 1
	}
	e := &env{
		root: root, bins: tmp, tmp: tmp, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workers: min(2, runtime.NumCPU()), scale: 1,
	}
	e.client = newClient(e.workers)
	defer e.client.CloseIdleConnections()
	if e.trace {
		e.tracer = obs.NewTracer()
	}

	var results []*result
	for i, w := range selected {
		e.pid = i + 1
		r := &result{Workload: w.name, Loop: w.loop, Why: w.why, Metrics: map[string]metric{}, tailQ: w.tailQ}
		start := time.Now()
		err := w.run(ctx, e, r)
		e.span(w.name, "workload", 0, start, time.Now(), nil)
		if err != nil {
			fmt.Fprintf(stderr, "enabench: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, r)
	}
	crossCheckExplore(results)
	for _, r := range results {
		printResult(stdout, r, e.trace)
	}

	if e.trace {
		path := *traceOut
		if path == "" {
			path = filepath.Join(root, ".bench_build", "trace.json")
		}
		if err := writeTrace(e.tracer, path); err != nil {
			fmt.Fprintln(stderr, "enabench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", e.tracer.Len(), path)
	}
	if *out != "" {
		doc := struct {
			Host    host      `json:"host"`
			Results []*result `json:"results"`
		}{hostInfo(root, *seed, *seconds, e.trace), results}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "enabench:", err)
			return 1
		}
	}

	last := line{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		last.Attempted += r.Attempted
		last.Failed += r.Failed
		last.Correct = last.Correct && r.Failed == 0 && len(r.Checks) == 0
		ms := r.Metrics
		if e.trace {
			ms = r.Layers
		}
		for k, v := range ms {
			if len(results) > 1 {
				k = r.Workload + "/" + k
			}
			last.Metrics[k] = v
		}
	}
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "enabench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !last.Correct {
		return 1
	}
	return 0
}

// writeTrace writes the benchmark's spans as a Chrome trace.
func writeTrace(tr *obs.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult writes a workload's metrics as a table.
func printResult(w io.Writer, r *result, traced bool) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.Workload, r.Loop)
	printMetrics(w, r.Metrics)
	l := r.Latency
	fmt.Fprintf(w, "   latency n=%d failed=%d mean=%.4g ms p50=%.4g ms %s=%.4g ms", l.N, l.Failed, l.MeanMs, l.P50Ms, l.TailQ, l.TailMs)
	if l.HighestQ != "" {
		fmt.Fprintf(w, " (highest supported: %s=%.4g ms)", l.HighestQ, l.HighestV)
	}
	fmt.Fprintln(w)
	for _, s := range r.Stages {
		fmt.Fprintf(w, "   stage %-4s %6.0f req/s  n=%-6d failed=%-4d p50=%.4g ms %s=%.4g ms lateness_p99=%.4g ms meets_limit=%v\n",
			s.Name, s.RateRPS, s.Latency.N, s.Failed, s.Latency.P50Ms, s.Latency.TailQ, s.Latency.TailMs, s.LatenessP99Ms, s.MeetsLimit)
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "   %s = %.6g\n", k, r.Extra[k])
	}
	if traced {
		fmt.Fprintln(w, "   per-layer (traced):")
		printMetrics(w, r.Layers)
		if r.Budget != nil {
			r.Budget.print(w)
		}
	}
	status := "ok"
	if len(r.Checks) > 0 || r.Failed > 0 {
		status = "FAILED"
	}
	fmt.Fprintf(w, "   checks %s: %d attempted, %d failed\n", status, r.Attempted, r.Failed)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "     - %s\n", c)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(w, "   %-40s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
