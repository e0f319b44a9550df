package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the naive reference: a slice in recency order, most recent
// first, rescanned on every operation.
type refLRU struct {
	max     int64
	costOf  func(int) int64
	entries []refEntry
	evicted []string
}

type refEntry struct {
	key string
	val int
}

func (r *refLRU) index(key string) int {
	return slices.IndexFunc(r.entries, func(e refEntry) bool { return e.key == key })
}

func (r *refLRU) cost() int64 {
	var sum int64
	for _, e := range r.entries {
		sum += r.costOf(e.val)
	}
	return sum
}

func (r *refLRU) get(key string) (int, bool) {
	i := r.index(key)
	if i < 0 {
		return 0, false
	}
	e := r.entries[i]
	r.entries = slices.Insert(slices.Delete(r.entries, i, i+1), 0, e)
	return e.val, true
}

func (r *refLRU) put(key string, val int) {
	if i := r.index(key); i >= 0 {
		r.entries = slices.Delete(r.entries, i, i+1)
	}
	r.entries = slices.Insert(r.entries, 0, refEntry{key, val})
	for r.cost() > r.max && len(r.entries) > 1 {
		last := r.entries[len(r.entries)-1]
		r.entries = r.entries[:len(r.entries)-1]
		r.evicted = append(r.evicted, fmt.Sprintf("%s=%d", last.key, last.val))
	}
}

func (r *refLRU) remove(key string) {
	if i := r.index(key); i >= 0 {
		r.entries = slices.Delete(r.entries, i, i+1)
	}
}

// TestDifferential drives random operation sequences through Cache and the
// reference, under a count bound and a byte bound whose values include ones
// costlier than the bound, and requires identical values, Len, Cost and
// eviction order at every step.
func TestDifferential(t *testing.T) {
	bounds := []struct {
		name   string
		max    int64
		costOf func(int) int64
	}{
		{"count", 5, nil},
		{"count-1", 1, nil},
		{"count-0", 0, nil},
		{"bytes", 40, func(v int) int64 { return int64(v) }},
	}
	for _, b := range bounds {
		t.Run(b.name, func(t *testing.T) {
			refCost := b.costOf
			if refCost == nil {
				refCost = func(int) int64 { return 1 }
			}
			for seed := int64(1); seed <= 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ref := &refLRU{max: b.max, costOf: refCost}
				var evicted []string
				c := New(b.max, b.costOf, func(k string, v int) {
					evicted = append(evicted, fmt.Sprintf("%s=%d", k, v))
				})
				for step := 0; step < 400; step++ {
					key := fmt.Sprintf("k%d", rng.Intn(12))
					switch op := rng.Intn(10); {
					case op < 4:
						// Values up to 60 exceed the 40-byte bound.
						val := rng.Intn(61)
						c.Put(key, val)
						ref.put(key, val)
					case op < 7:
						got, ok := c.Get(key)
						want, wok := ref.get(key)
						if got != want || ok != wok {
							t.Fatalf("seed %d step %d: Get(%s) = %d,%v, want %d,%v", seed, step, key, got, ok, want, wok)
						}
					case op < 9:
						if got, want := c.Contains(key), ref.index(key) >= 0; got != want {
							t.Fatalf("seed %d step %d: Contains(%s) = %v, want %v", seed, step, key, got, want)
						}
					default:
						c.Remove(key)
						ref.remove(key)
					}
					if c.Len() != len(ref.entries) || c.Cost() != ref.cost() {
						t.Fatalf("seed %d step %d: Len %d Cost %d, want %d %d", seed, step, c.Len(), c.Cost(), len(ref.entries), ref.cost())
					}
					if !slices.Equal(evicted, ref.evicted) {
						t.Fatalf("seed %d step %d: evictions %v, want %v", seed, step, evicted, ref.evicted)
					}
				}
				// Drain with fresh entries costlier than any bound: every
				// resident entry leaves, exposing the full recency order.
				for i := len(ref.entries); i >= 0; i-- {
					c.Put(fmt.Sprintf("fresh%d", i), 60)
					ref.put(fmt.Sprintf("fresh%d", i), 60)
				}
				if !slices.Equal(evicted, ref.evicted) {
					t.Fatalf("seed %d drain: evictions %v, want %v", seed, evicted, ref.evicted)
				}
			}
		})
	}
}

func TestGetHitAllocatesNothing(t *testing.T) {
	c := New[string, []byte](4, nil, nil)
	c.Put("a", []byte("x"))
	c.Put("b", []byte("y"))
	keys := [2]string{"a", "b"}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(keys[i&1]); !ok {
			t.Fatal("miss")
		}
		i++
	}); n != 0 {
		t.Fatalf("Get hit allocates %v times, want 0", n)
	}
}
