// Package qstats is the per-query-fingerprint statistics registry
// behind the server's /queryz endpoint — pg_stat_statements for the
// security-view serving stack. A fingerprint identifies one query shape
// as the engine plans it: the (user class, optimized-plan text) pair, so two surface queries that rewrite and optimize to the same
// plan share one row. A class's plans keep its $parameters and the
// query's literals symbolic, so the same query under two parameter
// bindings, or with two different literals, is one row too: a row is a
// plan shape, not a binding.
//
// Per fingerprint the registry keeps request counts, per-phase latency
// digests (reusing internal/latency, so /queryz percentiles are
// estimated within one bucket rung and never exceed the observed
// maximum), plan-cache hit counts, nodes-visited and result-size sums,
// and a last-seen timestamp.
//
// Cardinality is bounded by a sharded space-saving top-K structure:
// when a shard is full, a new fingerprint replaces the shard's
// minimum-count entry and inherits its count as an error bound
// (CountSlack), so heavy hitters stay exact while an adversarial stream
// of distinct query shapes can never grow memory without limit. The
// space-saving inheritance keeps one accounting invariant exact at all
// times: the Count sum over every tracked fingerprint equals the total
// number of observations — which the serving layer pins against
// sv_pipeline_total (observations happen strictly after the pipeline
// counter increments, so any snapshot's /queryz count sum is at most
// the pipeline total, with equality at quiescence).
//
// Units follow the repo-wide discipline: nanoseconds internally (the
// digests), microseconds at the JSON edge (FingerprintStats).
package qstats

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/latency"
	"repro/internal/obs"
)

// DefaultCapacity bounds the tracked fingerprints across all shards.
// Sized like the plan cache: a serving workload has far fewer distinct
// (class, plan) shapes than requests, and 512 exact heavy hitters is
// ample attribution for an operator chasing a p99 regression.
const DefaultCapacity = 512

// numShards spreads fingerprints over independently locked shards so
// concurrent request completions do not serialize on one mutex.
const numShards = 16

// MaxTextLen bounds the stored per-fingerprint query and plan texts. A
// pathological multi-kilobyte query still gets a row, but its stored
// sample is clipped so the registry's memory stays proportional to the
// fingerprint bound, not to adversarial query length.
const MaxTextLen = 256

// Sort keys accepted by Top (and the /queryz ?sort= parameter).
const (
	SortEvalTime  = "eval_time"  // cumulative eval-phase time (default)
	SortTotalTime = "total_time" // cumulative end-to-end time
	SortCount     = "count"      // request count
)

// entry is one tracked fingerprint. Entries live behind their shard's
// mutex; the latency digests are internally atomic but are only ever
// touched under the lock here.
type entry struct {
	class string
	plan  string // clipped optimized-plan text (the fingerprint basis)
	query string // clipped first-seen surface query, for operators
	hash  uint64

	count uint64
	// slack is the space-saving error bound: the evicted minimum count
	// this entry inherited at admission. True count is in
	// [count-slack, count]; slack is 0 for entries admitted while the
	// shard had room, so heavy hitters that arrive early are exact.
	slack uint64

	planHits    uint64
	nodes       uint64
	resultNodes uint64
	lastSeenNs  int64 // unix nanoseconds

	total, rewrite, optimize, eval latency.Digest
}

type shard struct {
	mu      sync.Mutex
	entries map[rowKey]*entry
	cap     int
}

// rowKey is a row's (class, plan) fingerprint as a map key; a struct of
// the two strings needs no concatenated copy per observation.
type rowKey struct{ class, plan string }

// Registry is the bounded fingerprint statistics store. All methods are
// safe for concurrent use.
type Registry struct {
	shards       [numShards]shard
	observations atomic.Uint64
	evictions    atomic.Uint64
}

// New returns a registry tracking at most capacity fingerprints
// (0 means DefaultCapacity). The capacity is spread over the shards, so
// the effective bound rounds up to a multiple of the shard count.
func New(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	r := &Registry{}
	for i := range r.shards {
		r.shards[i] = shard{entries: make(map[rowKey]*entry, per), cap: per}
	}
	return r
}

// Capacity returns the total fingerprint bound.
func (r *Registry) Capacity() int {
	n := 0
	for i := range r.shards {
		n += r.shards[i].cap
	}
	return n
}

// hashKey is the fingerprint hash: FNV-1a over class NUL plan — the
// plan-cache entry's optimized text, prefixed by the class.
func hashKey(class, plan string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(class))
	h.Write([]byte{0})
	h.Write([]byte(plan))
	return h.Sum64()
}

// Fingerprint renders the (class, plan) fingerprint hash as a
// hex-digit token used in /queryz rows and event-log records, so the
// two surfaces join on it directly. The plan text is clipped to
// MaxTextLen before hashing — the same normalization Observe applies —
// so a pathological query cannot force unbounded hashing either.
func Fingerprint(class, plan string) string {
	return strconv.FormatUint(hashKey(class, clip(plan)), 16)
}

// clip bounds stored sample text (byte-wise; stored samples are display
// aids, and a clipped UTF-8 tail renders as replacement runes at worst).
func clip(s string) string {
	if len(s) <= MaxTextLen {
		return s
	}
	return s[:MaxTextLen]
}

// Observe folds one completed request's record into the row of its
// (Class, PlanText) fingerprint, admitting the fingerprint (evicting the
// shard's minimum-count row if full) when it is new. Durations are what
// the request actually spent: a plan-cache hit contributes zero rewrite
// and optimize, mirroring the per-phase histograms. A record that never
// reported a plan falls back to its surface query text so the row still
// exists.
func (r *Registry) Observe(m *obs.QueryMetrics) {
	if r == nil {
		return
	}
	class, plan := m.Class, m.PlanText
	if plan == "" {
		plan = m.Query
	}
	plan = clip(plan)
	h := hashKey(class, plan)
	key := rowKey{class: class, plan: plan}
	sh := &r.shards[h%numShards]
	r.observations.Add(1)

	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		e = &entry{
			class: class,
			plan:  plan,
			query: clip(m.Query),
			hash:  h,
		}
		if len(sh.entries) >= sh.cap {
			// Space-saving replacement: evict the minimum-count row and
			// inherit its count, so the Count sum over the shard still
			// advances by exactly one per observation and a newly hot
			// query overtakes stale rows instead of thrashing.
			var minKey rowKey
			minCount, first := uint64(0), true
			for k, cand := range sh.entries {
				if first || cand.count < minCount {
					minKey, minCount, first = k, cand.count, false
				}
			}
			delete(sh.entries, minKey)
			e.count, e.slack = minCount, minCount
			r.evictions.Add(1)
		}
		sh.entries[key] = e
	}
	e.count++
	if m.PlanCacheHit {
		e.planHits++
	}
	e.nodes += m.NodesVisited
	if m.ResultCount > 0 {
		e.resultNodes += uint64(m.ResultCount)
	}
	e.lastSeenNs = time.Now().UnixNano()
	e.total.Observe(m.Total)
	e.rewrite.Observe(m.Rewrite)
	e.optimize.Observe(m.Optimize)
	e.eval.Observe(m.Eval)
	sh.mu.Unlock()
}

// FingerprintStats is one /queryz row. Microsecond units at this JSON
// edge (the digests underneath are nanosecond-based).
type FingerprintStats struct {
	Class string `json:"class"`
	// Fingerprint is the 16-hex-digit (class, plan) hash — the join key
	// with event-log records.
	Fingerprint string `json:"fingerprint"`
	// Query is the first-seen surface query for this fingerprint and
	// Plan the optimized-plan text it normalized to; both clipped to
	// MaxTextLen.
	Query string `json:"query"`
	Plan  string `json:"plan"`

	Count uint64 `json:"count"`
	// CountSlack is the space-saving overestimate bound: the true count
	// is within [count-count_slack, count]. 0 (omitted) means exact.
	CountSlack uint64 `json:"count_slack,omitempty"`

	PlanCacheHits uint64 `json:"plan_cache_hits"`

	NodesVisited uint64 `json:"nodes_visited"`
	ResultNodes  uint64 `json:"result_nodes"`

	// TotalSumUs and EvalSumUs are the cumulative wall time this
	// fingerprint cost end-to-end and in the eval phase — the default
	// /queryz sort keys.
	TotalSumUs uint64 `json:"total_sum_us"`
	EvalSumUs  uint64 `json:"eval_sum_us"`

	Total    latency.Summary `json:"total"`
	Rewrite  latency.Summary `json:"rewrite"`
	Optimize latency.Summary `json:"optimize"`
	Eval     latency.Summary `json:"eval"`

	LastSeenUnixUs int64 `json:"last_seen_unix_us"`
}

func (e *entry) stats() FingerprintStats {
	return FingerprintStats{
		Class:          e.class,
		Fingerprint:    strconv.FormatUint(e.hash, 16),
		Query:          e.query,
		Plan:           e.plan,
		Count:          e.count,
		CountSlack:     e.slack,
		PlanCacheHits:  e.planHits,
		NodesVisited:   e.nodes,
		ResultNodes:    e.resultNodes,
		TotalSumUs:     e.total.SumNs() / 1e3,
		EvalSumUs:      e.eval.SumNs() / 1e3,
		Total:          e.total.Snapshot().Summarize(),
		Rewrite:        e.rewrite.Snapshot().Summarize(),
		Optimize:       e.optimize.Snapshot().Summarize(),
		Eval:           e.eval.Snapshot().Summarize(),
		LastSeenUnixUs: e.lastSeenNs / 1e3,
	}
}

// Top returns up to n fingerprints sorted descending by the given key
// (SortEvalTime when by is empty or unknown; ties break toward higher
// count, then lexical fingerprint for determinism). n <= 0 returns
// every tracked fingerprint — the form whose Count sum is pinned
// against sv_pipeline_total.
func (r *Registry) Top(n int, by string) []FingerprintStats {
	if r == nil {
		return nil
	}
	var out []FingerprintStats
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			out = append(out, e.stats())
		}
		sh.mu.Unlock()
	}
	key := func(fs FingerprintStats) float64 {
		switch by {
		case SortCount:
			return float64(fs.Count)
		case SortTotalTime:
			return float64(fs.TotalSumUs)
		default:
			return float64(fs.EvalSumUs)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		if ki != kj {
			return ki > kj
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Stats is the registry's own accounting, exposed as sv_qstats_* series.
type Stats struct {
	// Fingerprints is the number of tracked rows and Capacity their
	// bound.
	Fingerprints int `json:"fingerprints"`
	Capacity     int `json:"capacity"`
	// Observations counts Observe calls; the Count sum across tracked
	// fingerprints equals it exactly (space-saving inheritance).
	Observations uint64 `json:"observations"`
	// Evictions counts space-saving replacements — nonzero means some
	// rows carry a CountSlack bound.
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	s := Stats{
		Capacity:     r.Capacity(),
		Observations: r.observations.Load(),
		Evictions:    r.evictions.Load(),
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		s.Fingerprints += len(sh.entries)
		sh.mu.Unlock()
	}
	return s
}
