package plancache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[int](4)
	if _, ok := c.Get("a"); ok {
		t.Fatalf("empty cache returned a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %d, %v", v, ok)
	}
	c.Put("a", 10) // refresh
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("refreshed Get(a) = %d", v)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](3) // single shard: capacity < 2*defaultShards
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a") // a becomes most recent; b is now LRU
	c.Put("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Errorf("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %s evicted unexpectedly", k)
		}
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

func TestBoundHolds(t *testing.T) {
	for _, capacity := range []int{1, 3, 16, 100} {
		c := New[int](capacity)
		for i := 0; i < 10*capacity; i++ {
			c.Put(fmt.Sprintf("key-%d", i), i)
		}
		// Sharded caches round the per-shard bound up, so allow the
		// documented slack of shards-1 entries.
		max := capacity + len(c.shards) - 1
		if n := c.Len(); n > max {
			t.Errorf("capacity %d: Len = %d exceeds bound %d", capacity, n, max)
		}
	}
}

func TestZeroCapacity(t *testing.T) {
	c := New[string](0)
	c.Put("a", "x")
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	c.Put("b", "y")
	if c.Len() != 1 {
		t.Errorf("after second Put, Len = %d, want 1", c.Len())
	}
}

func TestStatsCounters(t *testing.T) {
	c := New[int](8)
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 || s.Capacity != 8 {
		t.Errorf("stats = %+v", s)
	}
}

// TestConcurrent hammers one cache from many goroutines (run with -race).
func TestConcurrent(t *testing.T) {
	c := New[int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (g*7+i)%100)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Errorf("corrupt value %d", v)
				}
				c.Put(k, i)
				if i%50 == 0 {
					c.Len()
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 64+len(c.shards)-1 {
		t.Errorf("bound exceeded after concurrent load: %d", n)
	}
}

// walkWeight sums the weights of the cached entries by walking every
// shard: what Weight's running total must equal.
func walkWeight[V any](c *Cache[V]) int64 {
	var sum int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, el := range s.items {
			sum += int64(c.weigh(el.Value.(*entry[V]).val))
		}
		s.mu.Unlock()
	}
	return sum
}

// TestWeightRunningTotal: after every step of a random sequence of
// inserts, replacements of existing keys and evicting inserts, on a
// one-shard and a sharded cache, Weight equals a fresh walk.
func TestWeightRunningTotal(t *testing.T) {
	for _, capacity := range []int{1, 5, 64} {
		r := rand.New(rand.NewSource(int64(capacity)))
		c := NewWeighted(capacity, func(v int) int { return v })
		var replaced, evicting int
		for i := 0; i < 5000; i++ {
			key := fmt.Sprintf("k%d", r.Intn(3*capacity))
			if _, ok := c.Get(key); ok {
				replaced++
			} else if c.Len() >= capacity {
				evicting++
			}
			c.Put(key, r.Intn(50))
			if got, want := c.Weight(), walkWeight(c); got != want {
				t.Fatalf("capacity %d, step %d: Weight = %d, walk = %d", capacity, i, got, want)
			}
		}
		if replaced == 0 || evicting == 0 || c.Stats().Evictions == 0 {
			t.Fatalf("capacity %d: sequence had %d replacements and %d evicting inserts", capacity, replaced, evicting)
		}
	}
	if w := New[int](4).Weight(); w != 0 {
		t.Errorf("unweighted cache: Weight = %d", w)
	}
}
