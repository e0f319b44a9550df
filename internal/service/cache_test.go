package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ena/internal/obs"
	"ena/internal/store"
)

func TestCacheHitMiss(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(8, reg)
	ctx := context.Background()

	var execs int
	fn := func() (any, error) { execs++; return 42, nil }

	v, shared, err := c.DoPersist(ctx, "k1", nil, fn)
	if err != nil || v != 42 || shared {
		t.Fatalf("first DoPersist = (%v, %v, %v), want (42, false, nil)", v, shared, err)
	}
	v, shared, err = c.DoPersist(ctx, "k1", nil, fn)
	if err != nil || v != 42 || !shared {
		t.Fatalf("second DoPersist = (%v, %v, %v), want (42, true, nil)", v, shared, err)
	}
	if execs != 1 {
		t.Errorf("fn executed %d times, want 1", execs)
	}
	snap := reg.Snapshot()
	if snap.Counters["service.cache.hits"] != 1 || snap.Counters["service.cache.misses"] != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1",
			snap.Counters["service.cache.hits"], snap.Counters["service.cache.misses"])
	}
}

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(2, reg)
	ctx := context.Background()
	mk := func(i int) func() (any, error) { return func() (any, error) { return i, nil } }

	c.DoPersist(ctx, "a", nil, mk(1))
	c.DoPersist(ctx, "b", nil, mk(2))
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.DoPersist(ctx, "c", nil, mk(3))

	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order not respected")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("fresh c missing")
	}
	if n := reg.Snapshot().Counters["service.cache.evictions"]; n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(8, nil)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	fail := func() (any, error) { calls++; return nil, boom }

	if _, _, err := c.DoPersist(ctx, "k", nil, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.DoPersist(ctx, "k", nil, fail); !errors.Is(err, boom) {
		t.Fatalf("retry err = %v, want boom", err)
	}
	if calls != 2 {
		t.Errorf("failed execution was cached (calls = %d, want 2)", calls)
	}
	if c.Len() != 0 {
		t.Errorf("error left %d cache entries", c.Len())
	}
}

func TestCacheSingleflight(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(8, reg)
	ctx := context.Background()

	const clients = 32
	var execs atomic.Int64
	gate := make(chan struct{})
	fn := func() (any, error) {
		execs.Add(1)
		<-gate // hold the flight open until every client has joined
		return "shared", nil
	}

	var wg sync.WaitGroup
	results := make([]string, clients)
	sharedCount := atomic.Int64{}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := c.DoPersist(ctx, "hot", nil, fn)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = v.(string)
			if shared {
				sharedCount.Add(1)
			}
		}(i)
	}
	// Release the flight once every follower has joined it.
	waitCoalesced(t, c, clients-1)
	close(gate)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Errorf("fn executed %d times under %d concurrent clients, want 1", n, clients)
	}
	for i, r := range results {
		if r != "shared" {
			t.Errorf("client %d result = %q", i, r)
		}
	}
	if sharedCount.Load() != clients-1 {
		t.Errorf("shared count = %d, want %d", sharedCount.Load(), clients-1)
	}
	if n := reg.Snapshot().Counters["service.cache.coalesced"]; n != clients-1 {
		t.Errorf("coalesced counter = %d, want %d", n, clients-1)
	}
}

// waitCoalesced blocks until n callers have joined another caller's flight,
// as the cache's coalesced counter records, and fails the test after 10 s.
func waitCoalesced(t *testing.T, c *Cache, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.coalesced.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers joined the flight after 10s, want %d", c.coalesced.Value(), n)
		}
		runtime.Gosched()
	}
}

func TestCacheWaiterCancellation(t *testing.T) {
	c := NewCache(8, obs.NewRegistry())
	gate := make(chan struct{})
	started := make(chan struct{})
	go c.DoPersist(context.Background(), "slow", nil, func() (any, error) {
		close(started)
		<-gate
		return 1, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.DoPersist(ctx, "slow", nil, func() (any, error) { return 2, nil })
		done <- err
	}()
	waitCoalesced(t, c, 1) // cancel a follower that is waiting, not one still arriving
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	close(gate) // let the leader finish
}

// A cancelled leader must not fail the callers coalesced onto its flight: a
// follower whose own context is live takes over and runs its own fn.
func TestCacheFollowerOutlivesCancelledLeader(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(8, reg)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	var execs atomic.Int64
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.DoPersist(leaderCtx, "k", nil, func() (any, error) {
			execs.Add(1)
			close(started)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-started

	type result struct {
		v      any
		shared bool
		err    error
	}
	follower := make(chan result, 1)
	go func() {
		v, shared, err := c.DoPersist(context.Background(), "k", nil, func() (any, error) {
			execs.Add(1)
			return "follower", nil
		})
		follower <- result{v, shared, err}
	}()
	// The follower holds the leader's flight once it is counted as coalesced.
	for coalesced := reg.Counter("service.cache.coalesced"); coalesced.Value() == 0; {
		runtime.Gosched()
	}
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	if r := <-follower; r.err != nil || r.v != "follower" || r.shared {
		t.Fatalf("follower = (%v, %v, %v), want (follower, false, nil)", r.v, r.shared, r.err)
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("fn executed %d times, want 2 (the cancelled leader's and the follower's)", n)
	}
	if v, ok := c.Get("k"); !ok || v != "follower" {
		t.Errorf("cached value = (%v, %v), want the follower's result", v, ok)
	}
}

func TestCacheConcurrentMixedKeys(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(16, reg)
	ctx := context.Background()
	var execs atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%8)
				v, _, err := c.DoPersist(ctx, key, nil, func() (any, error) {
					execs.Add(1)
					return key, nil
				})
				if err != nil || v.(string) != key {
					t.Errorf("DoPersist(%s) = (%v, %v)", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// 8 distinct keys, capacity 16: every key computes at most a handful of
	// times (only races before first store), nowhere near the 3200 calls.
	if n := execs.Load(); n > 64 {
		t.Errorf("executions = %d; dedup ineffective", n)
	}
}

// marshalCounter counts how often it is encoded to JSON.
type marshalCounter struct{ n *atomic.Int32 }

func (m marshalCounter) MarshalJSON() ([]byte, error) {
	m.n.Add(1)
	return []byte("0"), nil
}

// A miss with no persistent store set must not marshal the computed result:
// there is nowhere to write it.
func TestCacheMissWithoutStoreSkipsMarshal(t *testing.T) {
	c := NewCache(8, obs.NewRegistry())
	var n atomic.Int32
	v, shared, err := c.DoPersist(context.Background(), "k", nil, func() (any, error) { return marshalCounter{&n}, nil })
	if err != nil || shared {
		t.Fatalf("DoPersist = (%v, %v, %v)", v, shared, err)
	}
	if got := n.Load(); got != 0 {
		t.Fatalf("result marshalled %d times without a store", got)
	}
}

// With a store set, a result that does not marshal (a NaN) is the
// execution's error: it is counted, neither persisted nor cached, and the
// next caller executes again.
func TestCacheMarshalFailureIsError(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(8, reg)
	c.SetStore(st)
	var execs int
	fn := func() (any, error) { execs++; return math.NaN(), nil }
	for i := 1; i <= 2; i++ {
		v, shared, err := c.DoPersist(context.Background(), "k", decodeAs[float64], fn)
		var ue *json.UnsupportedValueError
		if !errors.As(err, &ue) || v != nil || shared {
			t.Fatalf("call %d: DoPersist = (%v, %v, %v), want a JSON UnsupportedValueError", i, v, shared, err)
		}
		if execs != i {
			t.Fatalf("call %d: %d executions; a failed marshal must not be cached", i, execs)
		}
	}
	if got := reg.Counter("service.cache.marshal_errors").Value(); got != 2 {
		t.Errorf("service.cache.marshal_errors = %d, want 2", got)
	}
	if _, ok := st.Get("k"); ok || c.Len() != 0 {
		t.Errorf("failed result persisted (%v) or cached (len %d)", ok, c.Len())
	}
}
