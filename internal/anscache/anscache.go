// Package anscache is the serving layer's semantic answer cache: a
// bounded, sharded cache from (engine epoch, document, optimized plan)
// to the plan's result node-set. It repurposes the Section 5 containment
// machinery (optimize.Contains/Equivalent over image graphs, Prop. 5.1)
// as a cache-admission proof, in the spirit of view-based query
// answering: a cached answer is served only when the incoming plan is
// provably the same query (equal hit) or provably a qualifier-filtered
// restriction of it (containment hit). The test is sound and one-sided,
// so a hit can never change a query's answer; an unprovable pair is
// simply a miss and evaluates normally.
//
// Two hit kinds:
//
//   - Equal hit: the incoming plan's text matches a cached entry, or a
//     bounded scan of same-group entries finds one the prover shows
//     mutually contained. The cached node-set is the answer.
//   - Containment hit: the incoming plan is base[q1]...[qk] — a chain of
//     trailing qualifiers over a base the prover shows equivalent to a
//     cached plan. The cached answer is exactly the base's answer, so
//     one evaluation of .[q1]...[qk] at the cached nodes, set-at-a-time,
//     yields the incoming plan's answer without re-running the base.
//
// Staleness is handled by construction, not by invalidation protocol:
// the group key embeds the owning engine's epoch and the document's
// identity, so an epoch bump (document or policy swap) makes every old
// entry unreachable; Purge then reclaims the memory in one sweep.
package anscache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/nodeset"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Prover is the containment oracle: Equivalent must be sound (true only
// when the two plans select the same nodes on every instance of the
// DTD). optimize.Optimizer satisfies it.
type Prover interface {
	Equivalent(p1, p2 xpath.Path) bool
}

// Kind classifies a Lookup outcome.
type Kind int

const (
	// KindMiss: no provably-safe entry; the caller must evaluate.
	KindMiss Kind = iota
	// KindEqual: a cached entry is provably the same query.
	KindEqual
	// KindContainment: a cached entry is provably the incoming plan minus
	// its trailing qualifiers; the answer was filtered from it.
	KindContainment
)

// String names the kind for /explainz and logs.
func (k Kind) String() string {
	switch k {
	case KindEqual:
		return "equal"
	case KindContainment:
		return "containment"
	default:
		return "miss"
	}
}

const (
	// defaultShards splits the cache to keep lock contention low; a
	// power of two so the group hash can be masked.
	defaultShards = 8
	// scanLimit bounds the same-group candidates a single Lookup may run
	// the prover against after an exact-key miss. Containment proofs are
	// pure CPU (no locks held), but each costs an image construction, so
	// the scan examines only the most recently used candidates.
	scanLimit = 8
	// maxNodes bounds the result size a single entry may pin. Larger
	// answers are not cached: they are cheap to recompute relative to
	// their memory cost, and one huge result must not evict a shard of
	// hot small ones.
	maxNodes = 1 << 14
)

// Cache is the bounded answer cache. All methods are safe for
// concurrent use. Entries within one group (one epoch + document) are
// kept on the same shard, so the candidate scan never crosses shards.
type Cache struct {
	shards []shard
	mask   uint32
	cap    int

	hits            atomic.Uint64
	containmentHits atomic.Uint64
	misses          atomic.Uint64
	evictions       atomic.Uint64
}

type shard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	order *list.List // front = most recently used
	cap   int
}

// entry is one cached answer, stored as an ordinal bitset over the
// numbering of the document that owns the answer nodes (set/doc/gen):
// a 10k-node document's answer is ~1.3KB regardless of result size,
// and a hit materializes in O(words + result) with no per-entry pointer
// slice to copy. An empty answer has no owner and stores no set. Sets
// here are always unpooled: entries outlive evaluations, so they must
// never re-enter the evaluator's scratch pool.
type entry struct {
	key   string // group + "\x00" + text
	group string
	text  string
	plan  xpath.Path
	set   *nodeset.Set // nil for an empty answer
	doc   *xmltree.Document
	gen   uint64 // doc.Generation() at Put time
}

// fresh reports whether the entry's bitset still describes the
// document: a Renumber since Put (arena swap, mutation) may reassign
// ordinals, making the set meaningless. This is defense in depth behind
// the epoch: an epoch bump already abandons the group.
func (en *entry) fresh() bool {
	return en.set == nil || en.doc.Generation() == en.gen
}

// answer materializes the cached node-set as a fresh slice the caller
// owns. Callers must check fresh() first.
func (en *entry) answer() []*xmltree.Node {
	if en.set == nil {
		return nil
	}
	k := en.set.Count()
	if k == 0 {
		return nil
	}
	byOrd := en.doc.Nodes()
	out := make([]*xmltree.Node, 0, k)
	en.set.ForEach(func(ord int) { out = append(out, byOrd[ord]) })
	return out
}

// New returns a cache holding at most capacity entries. A non-positive
// capacity is treated as 1 so the cache is never unbounded by accident.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	n := defaultShards
	if capacity < 2*n {
		n = 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint32(n - 1), cap: capacity}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
		c.shards[i].cap = per
	}
	return c
}

// Capacity returns the configured entry bound.
func (c *Cache) Capacity() int { return c.cap }

func (c *Cache) shardFor(group string) *shard {
	return &c.shards[fnv32(group)&c.mask]
}

// Lookup tries to answer plan from the cache. group must embed every
// bit of context the answer depends on beyond the plan itself — the
// owning engine's epoch, the document identity, and the values env
// binds to the plan's variables. text is the printed plan (the
// exact-match key); env binds the variables of a containment hit's
// trailing qualifiers. On a hit the returned slice is a fresh
// copy the caller owns. An error is only returned when qualifier
// evaluation on a containment hit fails (context cancellation); the
// entry is then left untouched and the caller should abort, not fall
// back to evaluation.
func (c *Cache) Lookup(ctx context.Context, group, text string, plan xpath.Path, env xpath.Env, prover Prover) ([]*xmltree.Node, Kind, error) {
	s := c.shardFor(group)
	key := group + "\x00" + text

	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		if en := el.Value.(*entry); en.fresh() {
			s.order.MoveToFront(el)
			nodes := en.answer()
			s.mu.Unlock()
			c.hits.Add(1)
			return nodes, KindEqual, nil
		}
		// A stale ordinal entry (document renumbered since Put) must not
		// be served; fall through to the miss path.
	}
	// Exact key missed; snapshot the most recently used same-group
	// candidates so the containment proofs run without the lock held.
	// Entries are immutable once inserted, so the refs stay valid.
	var cands []*entry
	for el := s.order.Front(); el != nil && len(cands) < scanLimit; el = el.Next() {
		if en := el.Value.(*entry); en.group == group && en.fresh() {
			cands = append(cands, en)
		}
	}
	s.mu.Unlock()

	base, quals := splitQuals(plan)
	for _, cand := range cands {
		if prover.Equivalent(plan, cand.plan) {
			c.hits.Add(1)
			return cand.answer(), KindEqual, nil
		}
		if len(quals) == 0 || !prover.Equivalent(base, cand.plan) {
			continue
		}
		// cand's answer is exactly base's answer; the incoming plan keeps
		// the nodes satisfying every trailing qualifier, which one
		// evaluation of .[q1]...[qk] at those nodes selects.
		out, err := xpath.EvalAtEnvCtx(ctx, selfFilter(quals), cand.answer(), env)
		if err != nil {
			return nil, KindMiss, err
		}
		c.containmentHits.Add(1)
		return out, KindContainment, nil
	}
	c.misses.Add(1)
	return nil, KindMiss, nil
}

// Put caches an evaluated answer as an ordinal bitset stamped with the
// owning document's generation. Oversized results are dropped (see
// maxNodes), and so are answers whose nodes are not all numbered by one
// document, which no evaluation returns. The entry shares the
// document's nodes, which the group key pins logically (an epoch bump
// abandons the group) — callers purge on epoch bumps to reclaim the
// memory too.
func (c *Cache) Put(group, text string, plan xpath.Path, nodes []*xmltree.Node) {
	if len(nodes) > maxNodes {
		return
	}
	s := c.shardFor(group)
	key := group + "\x00" + text
	en := &entry{key: key, group: group, text: text, plan: plan}
	if len(nodes) > 0 {
		d := nodes[0].Owner()
		if d == nil {
			return
		}
		set := nodeset.New(d.Size())
		for _, n := range nodes {
			if n.Owner() != d {
				return
			}
			set.Add(n.Ord())
		}
		en.set, en.doc, en.gen = set, d, d.Generation()
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		// Replace wholesale: entries are immutable, so concurrent Lookups
		// holding the old entry keep a consistent snapshot.
		el.Value = en
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[key] = s.order.PushFront(en)
	var evicted int
	for s.order.Len() > s.cap {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.items, back.Value.(*entry).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Purge drops every entry. Counters are preserved. Called on epoch
// bumps, where every entry just became unreachable by key.
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.items = make(map[string]*list.Element)
		s.order.Init()
		s.mu.Unlock()
	}
}

// Stats is a point-in-time snapshot of the cache counters. The JSON
// field names are part of the /statsz wire format.
type Stats struct {
	Hits            uint64 `json:"hits"`
	ContainmentHits uint64 `json:"containment_hits"`
	Misses          uint64 `json:"misses"`
	Evictions       uint64 `json:"evictions"`
	Entries         int    `json:"entries"`
	Capacity        int    `json:"capacity"`
}

// Stats snapshots the counters and current size.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:            c.hits.Load(),
		ContainmentHits: c.containmentHits.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.evictions.Load(),
		Entries:         c.Len(),
		Capacity:        c.cap,
	}
}

// splitQuals peels the qualifiers a plan applies at its final nodes:
// the conditions of top-level Qualified wrappers, and — recursively —
// of a Qualified in a Seq's last step, since Seq{L, Qualified{s, q}}
// selects exactly the nodes of Seq{L, s} satisfying q. A view query
// q[qual] rewrites to its base's plan with the rewritten qualifier on
// the last step, so this is what makes containment hits fire on real
// plans. Plans whose final step carries no qualifier return (plan,
// nil).
func splitQuals(p xpath.Path) (xpath.Path, []xpath.Qual) {
	switch p := p.(type) {
	case xpath.Qualified:
		base, quals := splitQuals(p.Sub)
		return base, append(quals, p.Cond)
	case xpath.Seq:
		base, quals := splitQuals(p.Right)
		if len(quals) == 0 {
			return p, nil
		}
		return xpath.Seq{Left: p.Left, Right: base}, quals
	}
	return p, nil
}

// selfFilter is .[q1]...[qk]: the context nodes at which every
// qualifier holds.
func selfFilter(quals []xpath.Qual) xpath.Path {
	var p xpath.Path = xpath.Self{}
	for _, q := range quals {
		p = xpath.Qualified{Sub: p, Cond: q}
	}
	return p
}

// fnv32 is the FNV-1a hash, inlined to avoid a hash.Hash allocation on
// every cache operation.
func fnv32(s string) uint32 {
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
