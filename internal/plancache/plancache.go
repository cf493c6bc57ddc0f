// Package plancache provides a size-bounded, mutex-sharded LRU cache
// for the query-serving layer: each class engine keeps its rewritten
// and optimized query plans (core.Prepared) in one, keyed by the
// query's shape, because the paper's Fig. 3 pipeline would otherwise
// rewrite and optimize every request anew. A Cache keeps the hot
// entries, evicts in least-recently-used order, and is safe for
// concurrent use; sharding keeps lock contention low when many
// goroutines serve queries at once.
package plancache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// defaultShards is the shard count for caches large enough to split;
// a power of two so the hash can be masked instead of divided.
const defaultShards = 16

// Cache is a bounded LRU map from string keys to values of type V.
// The bound is global (summed over shards). A zero or negative capacity
// is treated as capacity 1 so a Cache is never unbounded by accident.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint32
	cap    int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	weigh  func(V) int
	weight atomic.Int64
}

type shard[V any] struct {
	mu    sync.Mutex
	items map[string]*list.Element
	order *list.List // front = most recently used
	cap   int
}

type entry[V any] struct {
	key string
	val V
}

// New returns a cache holding at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return NewWeighted(capacity, func(V) int { return 0 })
}

// NewWeighted is New with a weight per entry: the cache keeps the sum of
// its entries' weights as a running total (Weight), which Put updates as
// it inserts, replaces and evicts, so an observability endpoint can read
// a figure of the cached artifacts (e.g. the node count of cached plans)
// without walking the cache.
func NewWeighted[V any](capacity int, weigh func(V) int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	n := defaultShards
	// Small caches get one shard so the global bound is exact; sharded
	// caches round the per-shard bound up, which keeps Put cheap at the
	// cost of a slightly loose global bound (at most capacity+n-1).
	if capacity < 2*n {
		n = 1
	}
	c := &Cache[V]{shards: make([]shard[V], n), mask: uint32(n - 1), cap: capacity, weigh: weigh}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
		c.shards[i].cap = per
	}
	return c
}

// Capacity returns the configured entry bound.
func (c *Cache[V]) Capacity() int { return c.cap }

func shardFor[V any, K string | []byte](c *Cache[V], key K) *shard[V] {
	return &c.shards[fnv32(key)&c.mask]
}

// Get returns the cached value for key and marks it most recently used.
// The key is bytes so that a caller can probe with a reused buffer: the
// lookup makes no string of it.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	s := shardFor(c, key)
	s.mu.Lock()
	el, ok := s.items[string(key)]
	if ok {
		s.order.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the least recently used entry
// of the key's shard when the shard is full.
func (c *Cache[V]) Put(key string, val V) {
	delta := c.weigh(val)
	s := shardFor(c, key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry[V])
		delta -= c.weigh(e.val)
		e.val = val
		s.order.MoveToFront(el)
		s.mu.Unlock()
		c.weight.Add(int64(delta))
		return
	}
	s.items[key] = s.order.PushFront(&entry[V]{key: key, val: val})
	var evicted int
	for s.order.Len() > s.cap {
		back := s.order.Remove(s.order.Back()).(*entry[V])
		delete(s.items, back.key)
		delta -= c.weigh(back.val)
		evicted++
	}
	s.mu.Unlock()
	c.weight.Add(int64(delta))
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
}

// Weight returns the sum of the cached entries' weights (see
// NewWeighted); 0 for a cache made by New. Puts running concurrently
// may or may not be counted yet.
func (c *Cache[V]) Weight() int64 { return c.weight.Load() }

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// Stats snapshots the counters and current size.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  c.cap,
	}
}

// fnv32 is the FNV-1a hash, inlined to avoid a hash.Hash allocation on
// every cache operation.
func fnv32[K string | []byte](s K) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
