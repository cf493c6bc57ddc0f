// Package obs is the observability substrate of the query-serving
// stack: a metrics registry (counters, gauges, histograms over the
// latency package's digests) with Prometheus text exposition, and
// QueryMetrics, the one per-request record. The pipeline layers write a
// request's phase accounting into its record; the server fills in the
// identity and outcome, then feeds the same record to its histograms,
// to the per-fingerprint registry (internal/qstats), to the event log
// (the record's JSON form) and to /explainz.
//
// Metrics are always on: the server observes every request into its
// histograms, because percentiles computed over a sample of convenience
// are not percentiles. Only the event log samples, and it samples whole
// records.
package obs

import (
	"context"
	"encoding/json"
	"time"
	"unicode/utf8"
)

// QueryMetrics is the record of one request. The server installs one
// per admitted request (WithQueryMetrics); the pipeline layers write
// their phase durations and cache outcomes into it, and the server adds
// the identity, the outcome and the serialization time once the
// response is written. Library callers may install one to read a
// query's accounting; without one the pipeline pays a nil check.
//
// A QueryMetrics is written by the single goroutine serving its request
// (the pipeline is sequential within one request) and read only after
// the pipeline returns, so plain fields suffice.
type QueryMetrics struct {
	// Identity, set by the server. Params holds the request's
	// parameters as sent; the server narrows them to the class's own
	// parameters before it logs or returns the record. Fingerprint
	// (qstats.Fingerprint of Class and PlanText) and Kind, why the
	// record was emitted, are set only on records that leave the server.
	RequestID   uint64
	Class       string
	Params      map[string]string
	Query       string
	Fingerprint string
	Kind        string

	// Outcome, set by the server: the HTTP status, the number of answer
	// nodes, and when the response was finished.
	Status      int
	ResultCount int
	Time        time.Time

	// Total is the request's wall time, response written. Rewrite,
	// Optimize, Eval and Serialize are the time spent in each phase. A
	// plan-cache hit skips rewrite and optimize, so those report 0 — the
	// per-phase histograms over many requests then honestly show where
	// wall time went, cache and all.
	Total     time.Duration
	Rewrite   time.Duration
	Optimize  time.Duration
	Eval      time.Duration
	Serialize time.Duration

	// PlanCacheHit reports whether the query's plan was served from the
	// engine's cache; EngineCacheHit that the policy layer ran no
	// derivation for the request (a class's engine is derived once, at
	// definition, so every bound request sets it).
	PlanCacheHit   bool
	EngineCacheHit bool

	// NodesVisited counts the evaluator's cooperation ticks (one per
	// path step plus one per node in the hot loops) — a work-done proxy.
	NodesVisited uint64

	// PlanText is the optimized-plan text of the plan that served the
	// request; paired with the user class, it is the basis of the
	// server's query fingerprint (see internal/qstats). The engine stores
	// the rendered text with the cached plan, so surfacing it costs a
	// field copy, not a render.
	PlanText string
}

// MaxLoggedBytes bounds the query text and each parameter value in the
// record's JSON form: a 100KB query must not become a 100KB log line.
// The fingerprint still identifies the full query via /queryz.
const MaxLoggedBytes = 512

// truncatedMark ends text clipped to MaxLoggedBytes.
const truncatedMark = "...[truncated]"

// truncate clips s to at most MaxLoggedBytes bytes, backing off to the
// start of a UTF-8 sequence so the cut never splits a character, and
// marks the cut.
func truncate(s string) string {
	if len(s) <= MaxLoggedBytes {
		return s
	}
	n := MaxLoggedBytes
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + truncatedMark
}

// MarshalJSON renders the record as one wide event: durations in
// microseconds, the time as Unix microseconds, query text and parameter
// values truncated (truncate). The event log writes exactly this form,
// one line per record, and /explainz returns it.
func (m *QueryMetrics) MarshalJSON() ([]byte, error) {
	var params map[string]string
	if len(m.Params) > 0 {
		params = make(map[string]string, len(m.Params))
		for name, v := range m.Params {
			params[name] = truncate(v)
		}
	}
	return json.Marshal(struct {
		TimeUnixUs   int64             `json:"time_unix_us"`
		Kind         string            `json:"kind"`
		RequestID    uint64            `json:"request_id"`
		Class        string            `json:"class"`
		Params       map[string]string `json:"params,omitempty"`
		Status       int               `json:"status"`
		Query        string            `json:"query"`
		Fingerprint  string            `json:"fingerprint"`
		TotalUs      int64             `json:"total_us"`
		RewriteUs    int64             `json:"rewrite_us"`
		OptimizeUs   int64             `json:"optimize_us"`
		EvalUs       int64             `json:"eval_us"`
		SerializeUs  int64             `json:"serialize_us"`
		PlanCacheHit bool              `json:"plan_cache_hit"`
		NodesVisited uint64            `json:"nodes_visited"`
		ResultCount  int               `json:"result_count"`
	}{
		m.Time.UnixMicro(), m.Kind, m.RequestID, m.Class, params, m.Status,
		truncate(m.Query), m.Fingerprint,
		m.Total.Microseconds(), m.Rewrite.Microseconds(), m.Optimize.Microseconds(),
		m.Eval.Microseconds(), m.Serialize.Microseconds(),
		m.PlanCacheHit, m.NodesVisited, m.ResultCount,
	})
}

type queryMetricsKey struct{}

// WithQueryMetrics attaches a per-request record.
func WithQueryMetrics(ctx context.Context, qm *QueryMetrics) context.Context {
	if qm == nil {
		return ctx
	}
	return context.WithValue(ctx, queryMetricsKey{}, qm)
}

// QueryMetricsFromContext returns the context's record, or nil (also
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
