package obs

import (
	"context"
	"time"
)

// Eval modes reported by the pipeline: ModeEval when the evaluator
// ran, ModeCached when the answer came from the semantic answer cache
// and no evaluator ran at all (see internal/anscache).
const (
	ModeEval   = "eval"
	ModeCached = "cached"
)

// QueryMetrics is the always-on per-request accounting the pipeline
// layers write into: per-phase durations, cache outcomes, the chosen
// eval mode, and query shape numbers. The server installs one per
// request (WithQueryMetrics) and reads it back after the pipeline
// returns to feed its per-phase histograms and the slow-query log;
// /explainz sets CaptureQueries to additionally get the intermediate
// query strings, which the hot path does not pay to render.
//
// A QueryMetrics is written by the single goroutine evaluating its
// request (the pipeline is sequential within one request) and read only
// after the pipeline returns, so plain fields suffice.
type QueryMetrics struct {
	// Rewrite, Optimize, and Eval are the time spent in each phase for
	// this request. A plan-cache hit skips rewrite and optimize, so
	// those report 0 — per-phase histograms over many requests then
	// honestly show where wall time went, cache and all.
	Rewrite  time.Duration
	Optimize time.Duration
	Eval     time.Duration

	// PlanCacheHit reports whether the query's plan was served from the
	// engine's cache; EngineCacheHit that the policy layer ran no
	// derivation for the request (a class's engine is derived once, at
	// definition, so every bound request sets it).
	PlanCacheHit   bool
	EngineCacheHit bool
	// AnswerCacheHit is the answer-cache outcome when the engine has one
	// enabled: "equal", "containment", or "miss" (anscache.Kind.String);
	// empty when the cache is off.
	AnswerCacheHit string

	// EvalMode is ModeEval or ModeCached.
	EvalMode string
	// NodesVisited counts the evaluator's cooperation ticks (one per
	// path step plus one per node in the hot loops) — a work-done proxy.
	NodesVisited uint64

	// RewrittenSize and OptimizedSize are AST sizes of the intermediate
	// queries (xpath.Size), recorded on plan build and on explain.
	RewrittenSize int
	OptimizedSize int

	// PlanText is the optimized-plan text of the plan that served the
	// request — the normalization the answer cache keys on, and (paired
	// with the user class) the basis of the server's query fingerprint
	// (see internal/qstats). Unlike Optimized it is always set, on cache
	// hits and misses alike: the engine stores the rendered text with
	// the cached plan, so surfacing it costs a field copy, not a render.
	PlanText string

	// CaptureQueries asks the pipeline to also render the rewritten and
	// optimized query strings. Off on the serving hot path.
	CaptureQueries bool
	Rewritten      string
	Optimized      string
}

type queryMetricsKey struct{}

// WithQueryMetrics attaches a per-request metrics carrier.
func WithQueryMetrics(ctx context.Context, qm *QueryMetrics) context.Context {
	if qm == nil {
		return ctx
	}
	return context.WithValue(ctx, queryMetricsKey{}, qm)
}

// QueryMetricsFromContext returns the context's carrier, or nil (also
// on a nil context). Callers guard with one nil check; a request served
// outside the HTTP front-end (library use, benchmarks) carries none and
// pays nothing.
func QueryMetricsFromContext(ctx context.Context) *QueryMetrics {
	if ctx == nil {
		return nil
	}
	qm, _ := ctx.Value(queryMetricsKey{}).(*QueryMetrics)
	return qm
}
