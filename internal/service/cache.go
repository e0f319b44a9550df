package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"ena/internal/lru"
	"ena/internal/obs"
	"ena/internal/store"
)

// Cache is a content-addressed result cache with LRU eviction and
// singleflight execution. Keys are canonical-JSON hashes of the work they
// identify (see the canonicalKey methods in types.go), so two requests that
// describe the same simulation — regardless of field order, defaults spelled
// out or omitted, or optimization-list ordering — share one cache slot.
//
// DoPersist guarantees at most one execution per key at a time: concurrent
// callers with the same key block on the first caller's in-flight execution
// and all receive its result (the "coalesced" counter tracks how many
// executions singleflight saved). Errors are never cached — a failed
// execution leaves the slot empty so the next caller retries.
type Cache struct {
	// store, when set, layers a persistent blob store under the memory
	// cache: DoPersist reads through to it on memory misses and writes
	// computed results back, so results survive restarts and are shared by
	// replicas on the same directory. Nil keeps the cache memory-only.
	store *store.Store

	mu       sync.Mutex
	entries  *lru.Cache[string, any]
	inflight map[string]*flight

	hits          *obs.Counter
	misses        *obs.Counter
	coalesced     *obs.Counter
	evictions     *obs.Counter
	marshalErrors *obs.Counter
	size          *obs.Gauge
}

type flight struct {
	done chan struct{} // closed once val/err are final
	val  any
	err  error
}

// DefaultCacheSize bounds the result cache when Config.CacheSize is zero.
const DefaultCacheSize = 4096

// NewCache returns an empty cache holding at most capacity results
// (DefaultCacheSize when capacity <= 0). Metrics land in reg under
// service.cache.* (nil disables them).
func NewCache(capacity int, reg *obs.Registry) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	c := &Cache{
		inflight:      make(map[string]*flight),
		hits:          reg.Counter("service.cache.hits"),
		misses:        reg.Counter("service.cache.misses"),
		coalesced:     reg.Counter("service.cache.coalesced"),
		evictions:     reg.Counter("service.cache.evictions"),
		marshalErrors: reg.Counter("service.cache.marshal_errors"),
		size:          reg.Gauge("service.cache.size"),
	}
	c.entries = lru.New(int64(capacity), nil, func(string, any) { c.evictions.Inc() })
	return c
}

// SetStore layers a persistent result store under the memory cache (see the
// store field). Set before serving traffic; nil is allowed.
func (c *Cache) SetStore(st *store.Store) { c.store = st }

// Contains reports whether key is resident in memory or being computed right
// now, without touching LRU order or the persistent store. Admission control
// uses it to let known-cheap requests coalesce past the queue.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries.Contains(key) {
		return true
	}
	_, ok := c.inflight[key]
	return ok
}

// HitRatio returns memory hits / (hits + misses) over the cache's lifetime,
// 0 before any traffic.
func (c *Cache) HitRatio() float64 {
	h, m := float64(c.hits.Value()), float64(c.misses.Value())
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// Get returns the cached value for key, marking it recently used. It does
// not consult in-flight executions; use DoPersist for read-through
// semantics.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Get(key)
}

// DoPersist returns the cached value for key, or executes fn exactly once
// across all concurrent callers of the same key and caches its result. The
// second return reports whether the caller was served without executing fn
// itself: a memory hit, a coalesced in-flight share, or a store read.
//
// With a persistent store set, a memory miss first consults the store
// (decode maps the stored JSON back to the value type the call site caches),
// and a fresh execution writes its result through: a []byte result is the
// blob itself, so the memory cache and the store hold the same bytes, and
// any other result is stored as its JSON. A store serve counts as
// shared — the caller got a result computed elsewhere (an earlier process,
// or another replica on the same directory). A blob that no longer decodes
// (an older build's shape) is recomputed and overwritten, never an error.
// A fresh result that does not marshal to JSON is the execution's error
// (counted in service.cache.marshal_errors), so it is neither persisted nor
// cached. Without a store, decode is never called and nothing is marshalled.
//
// ctx only governs waiting: a caller whose context ends while blocked on
// another caller's execution gets ctx.Err(). The execution itself runs under
// whatever context fn captured — cancelling a waiting follower never aborts
// the shared execution. Nor does a cancelled leader fail its followers: an
// execution that ends with the leader's context error is retried by each
// follower whose own context is still live, the first of them taking over
// as leader with its own fn. Singleflight spans the whole read path, so
// concurrent callers share one store read just as they share one execution.
func (c *Cache) DoPersist(ctx context.Context, key string, decode func([]byte) (any, error), fn func() (any, error)) (any, bool, error) {
	c.mu.Lock()
	for {
		if v, ok := c.entries.Get(key); ok {
			c.hits.Inc()
			c.mu.Unlock()
			return v, true, nil
		}
		f, ok := c.inflight[key]
		if !ok {
			break
		}
		c.coalesced.Inc()
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		abandoned := errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)
		if !abandoned || ctx.Err() != nil {
			return f.val, true, f.err
		}
		c.mu.Lock()
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	fromStore := false
	if c.store != nil {
		if b, ok := c.store.Get(key); ok {
			if v, err := decode(b); err == nil {
				f.val, fromStore = v, true
			}
		}
	}
	if !fromStore {
		c.misses.Inc()
		f.val, f.err = fn()
		if f.err == nil && c.store != nil {
			b, isBlob := f.val.([]byte)
			var err error
			if !isBlob {
				b, err = json.Marshal(f.val)
			}
			if err != nil {
				c.marshalErrors.Inc()
				f.val, f.err = nil, fmt.Errorf("service: encode result for the store: %w", err)
			} else {
				_ = c.store.Put(key, b) // best-effort; the store counts write errors
			}
		}
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.entries.Put(key, f.val)
		c.size.Set(float64(c.entries.Len()))
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, fromStore, f.err
}

// decodeAs maps a persisted store blob back to the concrete type its call
// site caches: DoPersist stores plain JSON of the cached value, and handlers
// type-assert what the cache hands back, so the decode must restore the
// exact dynamic type.
func decodeAs[T any](b []byte) (any, error) {
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	return v, nil
}
