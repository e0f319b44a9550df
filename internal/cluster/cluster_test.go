package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ena/internal/dse"
	"ena/internal/exp"
	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/obs"
	"ena/internal/workload"
)

func TestPartitionCoversExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {1, 8}, {7, 3}, {490, 6}, {490, 1}, {5, 5}, {100, 7}, {3, 16},
	} {
		shards := partition(tc.n, tc.k)
		covered := make([]int, tc.n)
		for _, sh := range shards {
			if sh.start >= sh.end {
				t.Fatalf("partition(%d,%d): empty shard %+v", tc.n, tc.k, sh)
			}
			for i := sh.start; i < sh.end; i++ {
				covered[i]++
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("partition(%d,%d): index %d covered %d times", tc.n, tc.k, i, c)
			}
		}
		if len(shards) > tc.k || (tc.n >= tc.k && len(shards) != tc.k) {
			t.Fatalf("partition(%d,%d) = %d shards", tc.n, tc.k, len(shards))
		}
	}
	if partition(0, 4) != nil {
		t.Fatal("partition(0, k) should be empty")
	}
}

// testSpace is a small but non-trivial sweep: 3 x 3 x 2 = 18 points.
func testSpace() dse.Space {
	return dse.Space{
		CUs:      []int{192, 256, 320},
		FreqsMHz: []float64{800, 1000, 1200},
		BWsTBps:  []float64{1, 3},
	}
}

func testKernels(t *testing.T) ([]workload.Kernel, []string) {
	t.Helper()
	names := []string{"CoMD", "HPGMG", "SNAP"}
	ks := make([]workload.Kernel, len(names))
	for i, n := range names {
		k, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = k
	}
	return ks, names
}

func newWorkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(WorkerHandler(obs.NewRegistry()))
	t.Cleanup(srv.Close)
	return srv
}

func TestExploreShardedBitIdentical(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0

	want := dse.Explore(space, kernels, budget, 0)

	w1, w2 := newWorkerServer(t), newWorkerServer(t)
	reg := obs.NewRegistry()
	c := NewCoordinator([]string{w1.URL, w2.URL}, reg)
	got, err := c.Explore(context.Background(), space, kernels, names, budget, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Evals, want.Evals) {
		t.Fatal("sharded Evals differ from the single-process sweep")
	}
	if !reflect.DeepEqual(got.BestMean, want.BestMean) {
		t.Fatalf("sharded BestMean = %+v, want %+v", got.BestMean, want.BestMean)
	}
	if !reflect.DeepEqual(got.BestPerKernel, want.BestPerKernel) {
		t.Fatal("sharded BestPerKernel differs from the single-process sweep")
	}
	// Bit-identity must come from the workers, not from a silent local
	// fallback: every point streamed over the wire, no peer was retired.
	// (This is the assertion that catches a worker handler rejecting every
	// shard — local fallback would still produce identical results.)
	if n, want := reg.Counter("cluster.items_streamed").Value(), len(space.Points()); n != int64(want) {
		t.Errorf("items_streamed = %d, want %d (did shards fall back locally?)", n, want)
	}
	if n := reg.Counter("cluster.peer_failures").Value(); n != 0 {
		t.Errorf("peer_failures = %d on the happy path", n)
	}
	if n := reg.Counter("cluster.local_fallback_shards").Value(); n != 0 {
		t.Errorf("local_fallback_shards = %d on the happy path", n)
	}
}

// flakyWorker proxies to a real worker handler but kills the response stream
// after a few lines of the first shard it serves — simulating a worker
// process dying mid-stream.
type flakyWorker struct {
	inner    http.Handler
	tripped  atomic.Bool
	maxLines int
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.tripped.Swap(true) {
		// Subsequent shards: refuse outright (the process is "gone").
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	lw := &lineLimitWriter{ResponseWriter: w, max: f.maxLines}
	f.inner.ServeHTTP(lw, r)
}

type lineLimitWriter struct {
	http.ResponseWriter
	lines int
	max   int
}

func (l *lineLimitWriter) Write(b []byte) (int, error) {
	if l.lines >= l.max {
		// Drop the bytes: the stream just stops, no done line ever arrives.
		return 0, http.ErrAbortHandler
	}
	l.lines++
	return l.ResponseWriter.Write(b)
}

func (l *lineLimitWriter) Flush() {
	if fl, ok := l.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func TestExploreFailoverBitIdentical(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0

	want := dse.Explore(space, kernels, budget, 0)

	healthy := newWorkerServer(t)
	flaky := httptest.NewServer(&flakyWorker{inner: WorkerHandler(obs.NewRegistry()), maxLines: 2})
	t.Cleanup(flaky.Close)

	reg := obs.NewRegistry()
	c := NewCoordinator([]string{flaky.URL, healthy.URL}, reg)
	got, err := c.Explore(context.Background(), space, kernels, names, budget, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Evals, want.Evals) {
		t.Fatal("failover Evals differ from the single-process sweep")
	}
	if !reflect.DeepEqual(got.BestMean, want.BestMean) {
		t.Fatalf("failover BestMean = %+v, want %+v", got.BestMean, want.BestMean)
	}
	if reg.Counter("cluster.peer_failures").Value() == 0 {
		t.Error("peer failure not counted")
	}
	if reg.Counter("cluster.shard_retries").Value() == 0 {
		t.Error("shard retry not counted")
	}
}

func TestExploreAllPeersDeadFallsBackLocally(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0

	want := dse.Explore(space, kernels, budget, 0)

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(dead.Close)

	reg := obs.NewRegistry()
	c := NewCoordinator([]string{dead.URL}, reg)
	got, err := c.Explore(context.Background(), space, kernels, names, budget, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Evals, want.Evals) {
		t.Fatal("local-fallback Evals differ from the single-process sweep")
	}
	if reg.Counter("cluster.local_fallback_shards").Value() == 0 {
		t.Error("local fallback not counted")
	}
}

func TestExploreCancellation(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := newWorkerServer(t)
	c := NewCoordinator([]string{w.URL}, obs.NewRegistry())
	if _, err := c.Explore(ctx, space, kernels, names, 160, 0, ""); err == nil {
		t.Fatal("cancelled explore returned nil error")
	}
}

func TestScaleShardedMatchesLocal(t *testing.T) {
	k, err := workload.ByName("CoMD")
	if err != nil {
		t.Fatal(err)
	}
	rate := exp.NodeRateFor(k)
	spec := fabric.DefaultLinkSpec()
	sizes := []int{1, 8, 50, 256, 1000}

	var want []ScaleEval
	for _, sz := range sizes {
		se, err := EvalScale("torus", spec, k, rate, sz, fabric.Weak, faults.Mask{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, se)
	}

	w1, w2 := newWorkerServer(t), newWorkerServer(t)
	reg := obs.NewRegistry()
	c := NewCoordinator([]string{w1.URL, w2.URL}, reg)
	got, err := c.Scale(context.Background(), "torus", spec, k, rate, sizes, fabric.Weak, faults.Mask{}, "", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded scale = %+v, want %+v", got, want)
	}
	// All sizes must have come over the wire, not via local fallback.
	if n := reg.Counter("cluster.items_streamed").Value(); n != int64(len(sizes)) {
		t.Errorf("items_streamed = %d, want %d (did shards fall back locally?)", n, len(sizes))
	}
	if n := reg.Counter("cluster.local_fallback_shards").Value(); n != 0 {
		t.Errorf("local_fallback_shards = %d on the happy path", n)
	}
}

func TestScaleShardedDegradedMatchesLocal(t *testing.T) {
	k, err := workload.ByName("HPGMG")
	if err != nil {
		t.Fatal(err)
	}
	rate := exp.NodeRateFor(k)
	spec := fabric.DefaultLinkSpec()
	sizes := []int{8, 50, 256}
	mask, err := faults.ParseMask("node:2")
	if err != nil {
		t.Fatal(err)
	}

	var want []ScaleEval
	for _, sz := range sizes {
		se, err := EvalScale("torus", spec, k, rate, sz, fabric.Weak, mask, 7)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, se)
	}

	w := newWorkerServer(t)
	c := NewCoordinator([]string{w.URL}, obs.NewRegistry())
	got, err := c.Scale(context.Background(), "torus", spec, k, rate, sizes, fabric.Weak, mask, mask.String(), 7, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded degraded scale = %+v, want %+v", got, want)
	}
	for _, se := range got {
		if se.FailedNodes != 2 {
			t.Fatalf("FailedNodes = %d, want 2", se.FailedNodes)
		}
	}
}

// Shard bodies at the current protocol version, shared by the rejection
// table and the fuzz seeds.
const (
	exploreJobJSON = `"job":{"kernels":["CoMD"],"budget_w":160,"opts":0}`
	scaleJobJSON   = `"job":{"kernel":"CoMD","topology":"torus","mode":"weak","link_gbps":50,"latency_ns":500,"ideal":false,"mask":"","seed":0}`
	validExplore   = `{"v":3,` + exploreJobJSON + `,"start":0,"items":[{"cus":320,"freq_mhz":1000,"bw_tbps":3}]}`
	validScale     = `{"v":3,` + scaleJobJSON + `,"start":0,"items":[8]}`
	// The crash bodies: a 2^50-module external chain once panicked inside
	// arch.ExternalNetwork's make, and a 2^40-node scale shard ran the
	// process out of memory.
	crashExplore = `{"v":3,` + exploreJobJSON + `,"start":0,"items":[{"cus":320,"freq_mhz":1000,"bw_tbps":3,"ext_modules":1125899906842624}]}`
	crashScale   = `{"v":3,` + scaleJobJSON + `,"start":0,"items":[1099511627776]}`
)

func TestWorkerRejectsBadRequests(t *testing.T) {
	srv := newWorkerServer(t)
	const ex, sc = "/v1/internal/shard/explore", "/v1/internal/shard/scale"
	for _, tc := range []struct {
		name, path, body, want string
	}{
		{"bad json", ex, `{`, "invalid shard request"},
		{"v2 grid shape", ex, `{"v":3,"cus":[192],"freqs_mhz":[1000],"bws_tbps":[3],"kernels":["CoMD"],"budget_w":160,"start":0,"end":1}`, "unknown field"},
		{"bad version", ex, strings.Replace(validExplore, `"v":3`, `"v":2`, 1), "shard protocol v2, want v3"},
		{"unknown kernel", ex, strings.Replace(validExplore, `"CoMD"`, `"nope"`, 1), `unknown kernel "nope"`},
		{"no kernels", ex, strings.Replace(validExplore, `["CoMD"]`, `[]`, 1), "no kernels"},
		{"negative start", ex, strings.Replace(validExplore, `"start":0`, `"start":-1`, 1), "bad shard range"},
		{"no items", ex, `{"v":3,` + exploreJobJSON + `,"start":0,"items":[]}`, "bad shard range"},
		{"bad point", ex, strings.Replace(validExplore, `"cus":320`, `"cus":0`, 1), `"cus" has non-positive value 0`},
		{"crash ext modules", ex, crashExplore, `"extmod" value 1125899906842624 exceeds the limit of 16`},
		{"crash chiplets", ex, strings.Replace(crashExplore, `"ext_modules"`, `"gpu_chiplets"`, 1), `"chiplets" value 1125899906842624 exceeds the limit of 384`},
		{"bad scale mode", sc, strings.Replace(validScale, `"weak"`, `"sideways"`, 1), `unknown mode "sideways"`},
		{"unknown topology", sc, strings.Replace(validScale, `"torus"`, `"hypercube"`, 1), `unknown topology "hypercube"`},
		{"negative link", sc, strings.Replace(validScale, `"link_gbps":50`, `"link_gbps":-1`, 1), "negative link parameters"},
		{"non-node mask", sc, strings.Replace(validScale, `"mask":""`, `"mask":"gpu:1"`, 1), "non-node terms"},
		{"bad scale range", sc, strings.Replace(validScale, `"start":0`, `"start":-3`, 1), "bad shard range"},
		{"zero nodes", sc, strings.Replace(validScale, `[8]`, `[0]`, 1), "non-positive node count 0"},
		{"too many sizes", sc, strings.Replace(validScale, `[8]`, `[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]`, 1), "per-request limit of 16"},
		{"degraded too large", sc, strings.Replace(strings.Replace(validScale, `"mask":""`, `"mask":"node:1"`, 1), `[8]`, `[8192]`, 1), "limited to 4096 nodes"},
		{"crash scale size", sc, crashScale, "node count 1099511627776 exceeds the limit of 1048576"},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, resp.StatusCode, msg)
			continue
		}
		if !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: body %q does not name %q", tc.name, msg, tc.want)
		}
	}
	// The valid bodies the cases were cut from are accepted.
	for _, tc := range []struct{ path, body string }{{ex, validExplore}, {sc, validScale}} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(msg), `"type":"done","count":1`) {
			t.Errorf("%s: status %d, body %q; want a 200 stream ending in done", tc.path, resp.StatusCode, msg)
		}
	}
}
