package cluster

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"ena/internal/dse"
	"ena/internal/obs"
	"ena/internal/surrogate"
)

// newFlakyWorkerServer wraps a real worker in the mid-stream-death proxy of
// TestExploreFailoverBitIdentical.
func newFlakyWorkerServer(t *testing.T, maxLines int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(&flakyWorker{inner: WorkerHandler(obs.NewRegistry()), maxLines: maxLines})
	t.Cleanup(srv.Close)
	return srv
}

// TestEvaluatePointsShardedBitIdentical: an explicit point list — the shape
// of a surrogate acquisition batch, mixing classic and expanded-packaging
// points — fans out across workers and merges bit-identically to local
// evaluation, with every point streamed over the wire.
func TestEvaluatePointsShardedBitIdentical(t *testing.T) {
	kernels, names := testKernels(t)
	const budget = 160.0
	pts := []dse.Point{
		{CUs: 320, FreqMHz: 1000, BWTBps: 3},
		{CUs: 256, FreqMHz: 800, BWTBps: 1, GPUChiplets: 4},
		{CUs: 192, FreqMHz: 1200, BWTBps: 3, HBMStackGB: 16, ExtModules: 2},
		{CUs: 384, FreqMHz: 1000, BWTBps: 7, GPUChiplets: 8, HBMStackGB: 32, ExtModules: 4},
		{CUs: 320, FreqMHz: 800, BWTBps: 2},
	}
	want := make([]dse.Eval, len(pts))
	for i, p := range pts {
		ev, err := dse.EvaluatePointContext(context.Background(), p, kernels, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ev
	}

	w1, w2 := newWorkerServer(t), newWorkerServer(t)
	reg := obs.NewRegistry()
	c := NewCoordinator([]string{w1.URL, w2.URL}, reg)
	got, err := c.EvaluatePoints(context.Background(), pts, kernels, names, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded point-list evals differ from local evaluation")
	}
	if n := reg.Counter("cluster.items_streamed").Value(); n != int64(len(pts)) {
		t.Errorf("items_streamed = %d, want %d (did shards fall back locally?)", n, len(pts))
	}
	if n := reg.Counter("cluster.local_fallback_shards").Value(); n != 0 {
		t.Errorf("local_fallback_shards = %d on the happy path", n)
	}
}

// TestSurrogateShardedBitIdentical is the acquisition-round sharding
// contract: a surrogate exploration whose batches fan out through the
// coordinator produces the bit-identical Result of a single-process run —
// same trajectory, same rounds, every float of the Outcome equal.
func TestSurrogateShardedBitIdentical(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0
	opts := surrogate.Options{Budget: 12, Seed: 17, BatchSize: 4, InitEvals: 4}

	local, err := surrogate.Explore(context.Background(), space, kernels, budget, 0, opts, dse.Instr{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := newWorkerServer(t), newWorkerServer(t)
	c := NewCoordinator([]string{w1.URL, w2.URL}, obs.NewRegistry())
	sharded, err := surrogate.Explore(context.Background(), space, kernels, budget, 0, opts, dse.Instr{},
		func(ctx context.Context, pts []dse.Point) ([]dse.Eval, error) {
			return c.EvaluatePoints(ctx, pts, kernels, names, budget, 0)
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, sharded) {
		t.Fatalf("sharded surrogate run diverged from single-process run\n local traj %v\nsharded traj %v",
			local.Trajectory, sharded.Trajectory)
	}
}

// TestSurrogateShardedSurvivesPeerDeath: batches still merge bit-identically
// when a peer dies mid-stream and its shards retry on the survivor.
func TestSurrogateShardedSurvivesPeerDeath(t *testing.T) {
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0
	opts := surrogate.Options{Budget: 14, Seed: 23, BatchSize: 5, InitEvals: 4}

	local, err := surrogate.Explore(context.Background(), space, kernels, budget, 0, opts, dse.Instr{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	healthy := newWorkerServer(t)
	flaky := newFlakyWorkerServer(t, 2)
	c := NewCoordinator([]string{flaky.URL, healthy.URL}, obs.NewRegistry())
	sharded, err := surrogate.Explore(context.Background(), space, kernels, budget, 0, opts, dse.Instr{},
		func(ctx context.Context, pts []dse.Point) ([]dse.Eval, error) {
			return c.EvaluatePoints(ctx, pts, kernels, names, budget, 0)
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, sharded) {
		t.Fatal("surrogate run with mid-stream peer death diverged from single-process run")
	}
}

// TestExploreExpandedSpaceSharded: grid-form shards carrying the packaging
// axes reproduce the single-process expanded sweep bit-identically.
func TestExploreExpandedSpaceSharded(t *testing.T) {
	space := testSpace()
	space.GPUChiplets = []int{4, 8}
	space.ExtModules = []int{2, 4}
	kernels, names := testKernels(t)
	const budget = 160.0

	want := dse.Explore(space, kernels, budget, 0)

	w1, w2 := newWorkerServer(t), newWorkerServer(t)
	c := NewCoordinator([]string{w1.URL, w2.URL}, obs.NewRegistry())
	got, err := c.Explore(context.Background(), space, kernels, names, budget, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded expanded-space sweep differs from the single-process sweep")
	}
}

// TestExploreLargeSpaceShardsFitTheWire: one peer taking the whole
// 13,230-point packaging space would need a ~1.2 MB request, over the
// worker's body limit. The coordinator splits it into shards of at most
// maxShardItems, so every point still streams from the worker.
func TestExploreLargeSpaceShardsFitTheWire(t *testing.T) {
	space := dse.DefaultSpace()
	space.GPUChiplets, space.HBMStackGBs, space.ExtModules = []int{2, 4, 8}, []float64{8, 16, 32}, []int{2, 3, 4}
	kernels, names := testKernels(t)
	kernels, names = kernels[:1], names[:1]
	const budget = 160.0

	want := dse.Explore(space, kernels, budget, 0)

	reg := obs.NewRegistry()
	c := NewCoordinator([]string{newWorkerServer(t).URL}, reg)
	c.shardsPer = 1
	got, err := c.Explore(context.Background(), space, kernels, names, budget, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded packaging-space sweep differs from the single-process sweep")
	}
	n := space.Size()
	if got, want := reg.Counter("cluster.shards_dispatched").Value(), int64((n+maxShardItems-1)/maxShardItems); got != want {
		t.Errorf("shards_dispatched = %d, want %d", got, want)
	}
	if got := reg.Counter("cluster.items_streamed").Value(); got != int64(n) {
		t.Errorf("items_streamed = %d, want %d (did a shard fall back locally?)", got, n)
	}
}
