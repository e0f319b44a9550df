// Package lru is the one least-recently-used container behind the service
// result cache, the persistent store's index and the DSE perf-phase memo.
package lru

// Cache is a map with least-recently-used eviction under a cost bound. It is
// not safe for concurrent use: every owner already serializes access under
// its own mutex. The zero value is not usable; call New.
type Cache[K comparable, V any] struct {
	max     int64
	cost    int64
	costOf  func(V) int64
	onEvict func(K, V)
	items   map[K]*node[K, V]
	root    node[K, V] // sentinel: root.next is the most recently used
}

type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
	cost       int64
}

// New returns an empty cache whose entries' summed cost stays at most max.
// costOf prices an entry (nil charges 1 each, a count bound). onEvict, when
// non-nil, sees every entry Put evicts for capacity, coldest first.
func New[K comparable, V any](max int64, costOf func(V) int64, onEvict func(K, V)) *Cache[K, V] {
	c := &Cache[K, V]{max: max, costOf: costOf, onEvict: onEvict, items: make(map[K]*node[K, V])}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Get returns key's value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	n, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Contains reports whether key is resident, without touching recency.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or replaces key's value as the most recently used entry, then
// evicts from the cold end while the summed cost exceeds the bound. The last
// entry is never evicted, so one entry costlier than the bound stays
// resident until something else displaces it.
func (c *Cache[K, V]) Put(key K, val V) {
	cost := int64(1)
	if c.costOf != nil {
		cost = c.costOf(val)
	}
	if old, ok := c.items[key]; ok {
		c.remove(old)
	}
	n := &node[K, V]{key: key, val: val, cost: cost}
	c.items[key] = n
	c.cost += cost
	c.pushFront(n)
	for c.cost > c.max && len(c.items) > 1 {
		cold := c.root.prev
		c.remove(cold)
		if c.onEvict != nil {
			c.onEvict(cold.key, cold.val)
		}
	}
}

// Remove drops key if resident. It is not an eviction: onEvict is not
// called.
func (c *Cache[K, V]) Remove(key K) {
	if n, ok := c.items[key]; ok {
		c.remove(n)
	}
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Cost returns the summed cost of the resident entries.
func (c *Cache[K, V]) Cost() int64 { return c.cost }

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) remove(n *node[K, V]) {
	c.unlink(n)
	delete(c.items, n.key)
	c.cost -= n.cost
}
