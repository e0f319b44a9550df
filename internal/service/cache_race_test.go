package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// A tiny cache under concurrent traffic: in-flight singleflight fills race
// LRU evictions of the very keys being filled. Run with -race; correctness
// here is "every caller gets its own key's value" — eviction must never
// bleed one key's result into another or drop an in-flight follower.
func TestCacheEvictionRacesInflightFill(t *testing.T) {
	c := NewCache(1, nil) // capacity 1: every second fill evicts
	ctx := context.Background()
	const keys, rounds, workers = 8, 20, 4

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("k%d", k)
					want := "v:" + key
					v, _, err := c.DoPersist(ctx, key, nil, func() (any, error) { return want, nil })
					if err != nil {
						t.Errorf("DoPersist(%s): %v", key, err)
						return
					}
					if v.(string) != want {
						t.Errorf("DoPersist(%s) = %v, want %v", key, v, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Len(); got > 1 {
		t.Errorf("capacity-1 cache holds %d entries", got)
	}
}

// The pointed scenario: key A's fill is in flight while other keys evict
// everything around it; followers that coalesced onto A must still get A's
// value once the fill lands, and the fill must store correctly into the
// post-eviction cache state.
func TestCacheInflightSurvivesEviction(t *testing.T) {
	c := NewCache(1, nil)
	ctx := context.Background()

	enter := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.DoPersist(ctx, "A", nil, func() (any, error) {
			close(enter)
			<-release
			return "vA", nil
		})
		if err != nil || v.(string) != "vA" {
			t.Errorf("leader DoPersist(A) = %v, %v", v, err)
		}
	}()
	<-enter

	// While A is in flight, churn the cache past capacity repeatedly.
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("churn%d", i)
		if _, _, err := c.DoPersist(ctx, key, nil, func() (any, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}

	// Followers coalesce onto the in-flight A.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := c.DoPersist(ctx, "A", nil, func() (any, error) {
				t.Error("follower executed: singleflight lost the in-flight entry")
				return nil, nil
			})
			if err != nil || v.(string) != "vA" || !shared {
				t.Errorf("follower DoPersist(A) = %v, shared=%v, err=%v", v, shared, err)
			}
		}()
	}
	close(release)
	wg.Wait()

	// The completed fill must now be the cached entry.
	if v, ok := c.Get("A"); !ok || v.(string) != "vA" {
		t.Errorf("Get(A) after fill = %v, %v", v, ok)
	}
}
