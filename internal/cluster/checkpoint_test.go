package cluster

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"ena/internal/dse"
	"ena/internal/exp"
	"ena/internal/fabric"
	"ena/internal/faults"
	"ena/internal/obs"
)

func TestChunkedCoversExactlyOnceAndPeerIndependent(t *testing.T) {
	for _, tc := range []struct{ n, chunk int }{
		{1, 1}, {1, 64}, {7, 3}, {490, 64}, {490, 1}, {64, 64}, {65, 64}, {100, 0},
	} {
		shards := chunked(tc.n, tc.chunk)
		covered := make([]int, tc.n)
		for _, sh := range shards {
			if sh.start >= sh.end {
				t.Fatalf("chunked(%d,%d): empty shard %+v", tc.n, tc.chunk, sh)
			}
			for i := sh.start; i < sh.end; i++ {
				covered[i]++
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("chunked(%d,%d): index %d covered %d times", tc.n, tc.chunk, i, c)
			}
		}
		// Every shard but the last has exactly chunk items — the boundary
		// invariant cross-replica resume rests on.
		want := tc.chunk
		if want < 1 {
			want = 1
		}
		for i, sh := range shards {
			if i < len(shards)-1 && sh.end-sh.start != want {
				t.Fatalf("chunked(%d,%d): shard %d has %d items", tc.n, tc.chunk, i, sh.end-sh.start)
			}
		}
	}
	if chunked(0, 4) != nil {
		t.Fatal("chunked(0, k) should be empty")
	}
}

// memCkpt is an in-memory CkptStore for tests.
type memCkpt struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemCkpt() *memCkpt { return &memCkpt{m: make(map[string][]byte)} }

func (s *memCkpt) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	return b, ok
}

func (s *memCkpt) Put(key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), payload...)
	return nil
}

func (s *memCkpt) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func TestExploreCheckpointsAndResumes(t *testing.T) {
	space := testSpace() // 18 points
	kernels, names := testKernels(t)
	const budget = 160.0
	want := dse.Explore(space, kernels, budget, 0)

	cs := newMemCkpt()
	reg1 := obs.NewRegistry()
	c1 := NewCoordinator(nil, reg1) // no peers: checkpointing alone activates it
	c1.EnableCheckpoints(cs, 4)
	if !c1.Active() {
		t.Fatal("a peer-less coordinator with a checkpoint store is not Active")
	}
	if NewCoordinator(nil, obs.NewRegistry()).Active() {
		t.Fatal("a coordinator with neither peers nor a checkpoint store is Active")
	}
	got, err := c1.Explore(context.Background(), space, kernels, names, budget, 0, "jobkey")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("checkpointed local sweep differs from plain local sweep")
	}
	wantShards := (18 + 3) / 4
	if n := reg1.Counter("jobs.checkpoints").Value(); n != int64(wantShards) {
		t.Fatalf("jobs.checkpoints = %d, want %d", n, wantShards)
	}
	if cs.len() != wantShards {
		t.Fatalf("store holds %d checkpoints, want %d", cs.len(), wantShards)
	}

	// A second coordinator over the same store — a restarted replica, or the
	// adopter of a dead coordinator's job — resumes every shard without
	// recomputing a single point.
	reg2 := obs.NewRegistry()
	c2 := NewCoordinator(nil, reg2)
	c2.EnableCheckpoints(cs, 4)
	got2, err := c2.Explore(context.Background(), space, kernels, names, budget, 0, "jobkey")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("resumed sweep differs from plain local sweep")
	}
	if n := reg2.Counter("jobs.resumed_shards").Value(); n != int64(wantShards) {
		t.Fatalf("jobs.resumed_shards = %d, want %d", n, wantShards)
	}
	if n := reg2.Counter("cluster.local_fallback_shards").Value(); n != 0 {
		t.Fatalf("resumed run evaluated %d shards locally, want 0", n)
	}

	// A different job key shares nothing.
	reg3 := obs.NewRegistry()
	c3 := NewCoordinator(nil, reg3)
	c3.EnableCheckpoints(cs, 4)
	if _, err := c3.Explore(context.Background(), space, kernels, names, budget, 0, "otherjob"); err != nil {
		t.Fatal(err)
	}
	if n := reg3.Counter("jobs.resumed_shards").Value(); n != 0 {
		t.Fatalf("foreign job resumed %d shards", n)
	}
}

func TestExploreCheckpointsSurvivePeerSetChange(t *testing.T) {
	// A coordinator with two peers writes checkpoints; a peer-less restart
	// resumes them — fixed chunk boundaries must not depend on the peer set.
	space := testSpace()
	kernels, names := testKernels(t)
	const budget = 160.0
	want := dse.Explore(space, kernels, budget, 0)

	cs := newMemCkpt()
	w1, w2 := newWorkerServer(t), newWorkerServer(t)
	c1 := NewCoordinator([]string{w1.URL, w2.URL}, obs.NewRegistry())
	c1.EnableCheckpoints(cs, 5)
	if _, err := c1.Explore(context.Background(), space, kernels, names, budget, 0, "job"); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	c2 := NewCoordinator(nil, reg)
	c2.EnableCheckpoints(cs, 5)
	got, err := c2.Explore(context.Background(), space, kernels, names, budget, 0, "job")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cross-peer-set resume differs from the single-process sweep")
	}
	if n, wantN := reg.Counter("jobs.resumed_shards").Value(), int64((18+4)/5); n != wantN {
		t.Fatalf("jobs.resumed_shards = %d, want %d", n, wantN)
	}
}

func TestScaleCheckpointsAndResumes(t *testing.T) {
	// Scale checkpointing shares the runShards machinery; pin the resume
	// counter through the scale path too.
	kernels, _ := testKernels(t)
	kern := kernels[0]
	rate := exp.NodeRateFor(kern)
	spec := fabric.DefaultLinkSpec()
	sizes := []int{1, 8, 50, 256}
	cs := newMemCkpt()
	c1 := NewCoordinator(nil, obs.NewRegistry())
	c1.EnableCheckpoints(cs, 2)
	want, err := c1.Scale(context.Background(), "torus", spec, kern, rate, sizes, fabric.Weak, faults.Mask{}, "", 0, "sjob")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c2 := NewCoordinator(nil, reg)
	c2.EnableCheckpoints(cs, 2)
	got, err := c2.Scale(context.Background(), "torus", spec, kern, rate, sizes, fabric.Weak, faults.Mask{}, "", 0, "sjob")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed scale differs")
	}
	if n := reg.Counter("jobs.resumed_shards").Value(); n != 2 {
		t.Fatalf("jobs.resumed_shards = %d, want 2", n)
	}
}
