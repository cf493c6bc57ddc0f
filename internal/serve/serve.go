// Package serve is the HTTP front-end of the query-serving stack: it
// exposes a policy.Registry over one document as a small, bounded
// service. Every request runs under a context deadline (the evaluators
// poll it cooperatively, so a runaway query is cut off mid-descent), an
// admission-control semaphore caps the number of in-flight evaluations
// (excess load is refused with 429 instead of queueing until collapse),
// and the observability surface reports the full counter stack:
//
//	/query    answer one view query
//	/metricsz Prometheus text exposition of every counter: requests
//	          and responses by status, request and per-phase
//	          (rewrite/optimize/eval/serialize) latency histograms,
//	          plan-cache outcomes, and per-class evals and plan-cache
//	          evictions and entries
//	/queryz   per-fingerprint query statistics (internal/qstats): the
//	          top-K query shapes by cumulative eval time, total time or
//	          count
//	/explainz one query, freshly measured per phase: core.Explain plus
//	          the request's record
//	/healthz  liveness; 503 once graceful drain has begun
//	/debug/pprof/*  the runtime profiler
//
// Every admitted query has one record, an obs.QueryMetrics: the
// pipeline fills in its phases and cache outcomes, the server its
// identity, outcome and serialization time. That record feeds the
// /metricsz phase histograms, the /queryz registry and the event log.
// With Config.EventLog set, errors, queries slower than
// Config.SlowQueryThreshold and one request in
// Config.EventLogSampleEvery are written as the record's JSON form;
// without it slow queries are only counted (sv_slow_queries_total).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/qstats"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Defaults for the zero Config.
const (
	DefaultTimeout     = 5 * time.Second
	DefaultMaxTimeout  = 30 * time.Second
	DefaultMaxInFlight = 64
	DefaultSlowQuery   = time.Second
	// Deprecated: no effect, kept only because perfbench pins it; see
	// Config.TraceSampleEvery.
	DefaultTraceSampling = 0
)

// Request bounds. They are fixed, not Config knobs: served queries are
// a few hundred bytes and a few dozen AST levels (xpath.MaxQueryDepth
// bounds the depth); the byte bound still leaves room for a long
// string constant.
const (
	// MaxQueryBytes bounds the q= parameter; longer queries get 413.
	MaxQueryBytes = 256 << 10
	// maxBodyBytes bounds a POST /query or /explainz body (the whole
	// form, parameters included); larger bodies get 413.
	maxBodyBytes = 1 << 20
)

// errTooLarge marks a request over MaxQueryBytes or maxBodyBytes.
var errTooLarge = errors.New("request too large")

// Config tunes the server. The zero value gives the defaults above.
type Config struct {
	// DefaultTimeout bounds a request that does not pass ?timeout=.
	// Negative means no per-request default; the hard MaxTimeout cap
	// still applies, so no query ever runs unbounded.
	DefaultTimeout time.Duration
	// MaxTimeout clamps every request's deadline, including explicit
	// ?timeout= values.
	MaxTimeout time.Duration
	// MaxInFlight bounds concurrently evaluating queries; requests
	// beyond it are refused with 429 Too Many Requests.
	MaxInFlight int
	// SlowQueryThreshold is the elapsed time, response written, above
	// which an admitted query counts as slow: it is counted in
	// sv_slow_queries_total and logged as a "slow" event. 0 means
	// DefaultSlowQuery; negative disables slow-query classification.
	SlowQueryThreshold time.Duration
	// Deprecated: no effect, kept only because perfbench pins it.
	// Requests carry no span trees; every admitted request has its
	// obs.QueryMetrics record instead.
	TraceSampleEvery int
	// QueryStatsCapacity bounds the per-fingerprint statistics registry
	// behind /queryz (0 = qstats.DefaultCapacity). The registry is
	// always on: its cost is one sharded-map update per answered query.
	QueryStatsCapacity int
	// EventLog, when set, receives one structured JSONL wide event per
	// error and per slow query, plus one sampled request in
	// EventLogSampleEvery. The writer is the caller's: svserve builds it
	// from -eventlog and closes it on shutdown.
	EventLog *eventlog.Writer
	// EventLogSampleEvery samples successful fast requests into the
	// event log: one in N (1 = every request; 0 = errors and slow
	// queries only, which always emit).
	EventLogSampleEvery int
}

func (c Config) defaultTimeout() time.Duration {
	switch {
	case c.DefaultTimeout > 0:
		return c.DefaultTimeout
	case c.DefaultTimeout < 0:
		return 0
	}
	return DefaultTimeout
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return DefaultMaxTimeout
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return DefaultMaxInFlight
}

func (c Config) slowThreshold() time.Duration {
	switch {
	case c.SlowQueryThreshold > 0:
		return c.SlowQueryThreshold
	case c.SlowQueryThreshold < 0:
		return 0
	}
	return DefaultSlowQuery
}

// Phase indices for the per-phase duration digests.
const (
	phaseRewrite = iota
	phaseOptimize
	phaseEval
	phaseSerialize
	numPhases
)

var phaseNames = [numPhases]string{"rewrite", "optimize", "eval", "serialize"}

// Server serves rewritten-query requests for one document and one
// policy registry. It is safe for concurrent use.
type Server struct {
	reg *policy.Registry
	doc *xmltree.Document
	cfg Config
	sem chan struct{}

	requests       atomic.Uint64
	ok             atomic.Uint64
	badRequests    atomic.Uint64
	internalErrors atomic.Uint64
	rejected       atomic.Uint64
	timeouts       atomic.Uint64
	clientCancels  atomic.Uint64
	tooLarge       atomic.Uint64 // 413s: query or body over its byte bound
	tooDeep        atomic.Uint64 // 400s for queries over xpath.MaxQueryDepth
	inFlight       atomic.Int64
	lat            latency.Digest
	started        time.Time

	// Observability: the request-ID sequence, drain flag, Prometheus
	// registry, and the always-on per-request rollups — per-phase
	// latency digests plus the pipeline and plan-cache counters they are
	// keyed against (see observePipeline for the invariant).
	reqID    atomic.Uint64
	draining atomic.Bool
	metrics  *obs.Registry
	// qstats is the per-fingerprint registry behind /queryz. Every
	// answered query is observed strictly after s.pipeline increments,
	// so a /queryz count sum read before sv_pipeline_total can never
	// exceed it (see recordQuery).
	qstats *qstats.Registry

	phases      [numPhases]latency.Digest
	pipeline    atomic.Uint64
	planHits    atomic.Uint64
	planMisses  atomic.Uint64
	slowQueries atomic.Uint64
	explains    atomic.Uint64

	// query answers one admitted request; it defaults to the registry's
	// QueryCtx and exists so tests can inject evaluation failures.
	query func(ctx context.Context, class string, params map[string]string, doc *xmltree.Document, q string) ([]*xmltree.Node, error)
	// explain answers one /explainz request; defaults to the registry's
	// ExplainCtx.
	explain func(ctx context.Context, class string, params map[string]string, doc *xmltree.Document, q string) (*core.Explain, error)

	// testHook, when set, runs while the request holds its admission
	// slot, before evaluation. Tests use it to pin requests in flight.
	testHook func()
}

// New builds a server over a registry and the document it answers
// queries against. The document must already conform to the registry's
// DTD; frontends validate at load time.
func New(reg *policy.Registry, doc *xmltree.Document, cfg Config) *Server {
	s := &Server{
		reg:     reg,
		doc:     doc,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.maxInFlight()),
		started: time.Now(),
		query:   reg.QueryCtx,
		explain: reg.ExplainCtx,
		metrics: obs.NewRegistry(),
		qstats:  qstats.New(cfg.QueryStatsCapacity),
	}
	s.registerMetrics()
	return s
}

// registerMetrics wires the server's counters into the Prometheus
// registry. Every series is a read-at-exposition bridge over an atomic
// or digest the request path already keeps, so /metricsz is the one
// counter surface and holds no copy of its own.
//
// Registration order is read order: WriteText reads the families in the
// order they are first registered. A request increments its counters
// in a fixed sequence (sv_requests_total; the class engine's evals and
// plan cache; the latency digest; sv_responses_total;
// sv_pipeline_total; the phase digests and sv_plan_cache_total; the
// /queryz registry; sv_slow_queries_total; the event log), so each
// family is registered before every family incremented earlier in a
// request: effects before causes. A scrape taken mid-flight then holds
// the cause of every effect it shows: Σ sv_responses_total and the
// request histogram's count are at most sv_requests_total; each phase
// count, the plan-cache outcomes and sv_qstats_observations_total are
// at most sv_pipeline_total, which is at most Σ sv_class_evals_total.
// At quiescence the first two and the phase counts are equalities.
// The per-class series cover the classes defined when the server is
// built.
func (s *Server) registerMetrics() {
	m := s.metrics
	const evHelp = "Structured wide-event log activity; both 0 when -eventlog is off."
	m.CounterFunc("sv_eventlog_events_total", evHelp, func() uint64 {
		if s.cfg.EventLog == nil {
			return 0
		}
		ev, _ := s.cfg.EventLog.Stats()
		return ev
	})
	m.CounterFunc("sv_eventlog_rotations_total", evHelp, func() uint64 {
		if s.cfg.EventLog == nil {
			return 0
		}
		_, rot := s.cfg.EventLog.Stats()
		return rot
	})
	m.CounterFunc("sv_slow_queries_total", "Admitted queries slower than the slow-query threshold.", s.slowQueries.Load)
	// Fingerprint-registry health (/queryz): the observation/eviction
	// counters that say whether the top-K is exact (zero evictions) or
	// carries space-saving slack, plus row occupancy against its bound.
	m.CounterFunc("sv_qstats_observations_total", "Answered queries folded into the fingerprint registry.", func() uint64 {
		return s.qstats.Stats().Observations
	})
	m.CounterFunc("sv_qstats_evictions_total", "Space-saving evictions in the fingerprint registry (nonzero means some rows carry a count_slack bound).", func() uint64 {
		return s.qstats.Stats().Evictions
	})
	m.GaugeFunc("sv_qstats_fingerprints", "Query fingerprints currently tracked by the /queryz registry.", func() float64 {
		return float64(s.qstats.Stats().Fingerprints)
	})
	m.GaugeFunc("sv_qstats_capacity", "Fingerprint bound of the /queryz registry.", func() float64 {
		return float64(s.qstats.Capacity())
	})
	const phaseHelp = "Per-phase request latency (serialize is writing the response); a plan-cache hit observes 0 for rewrite and optimize, so every phase's count equals sv_pipeline_total."
	for i := range s.phases {
		m.HistogramFunc("sv_phase_duration_seconds", phaseHelp, s.phases[i].Snapshot, obs.L("phase", phaseNames[i]))
	}
	const planHelp = "Plan-cache outcomes for completed pipelines."
	m.CounterFunc("sv_plan_cache_total", planHelp, s.planHits.Load, obs.L("result", "hit"))
	m.CounterFunc("sv_plan_cache_total", planHelp, s.planMisses.Load, obs.L("result", "miss"))
	m.CounterFunc("sv_pipeline_total", "Queries that completed the rewrite-optimize-eval pipeline.", s.pipeline.Load)
	const respHelp = "/query responses by HTTP status code; they sum to sv_requests_total."
	m.CounterFunc("sv_responses_total", respHelp, s.ok.Load, obs.L("code", "200"))
	m.CounterFunc("sv_responses_total", respHelp, s.badRequests.Load, obs.L("code", "400"))
	m.CounterFunc("sv_responses_total", respHelp, s.tooLarge.Load, obs.L("code", "413"))
	m.CounterFunc("sv_responses_total", respHelp, s.rejected.Load, obs.L("code", "429"))
	m.CounterFunc("sv_responses_total", respHelp, s.clientCancels.Load, obs.L("code", "499"))
	m.CounterFunc("sv_responses_total", respHelp, s.internalErrors.Load, obs.L("code", "500"))
	m.CounterFunc("sv_responses_total", respHelp, s.timeouts.Load, obs.L("code", "504"))
	const limitHelp = "/query requests refused for exceeding a fixed request bound: bytes (413) or AST depth (400, also counted under code 400)."
	m.CounterFunc("sv_query_limit_rejections_total", limitHelp, s.tooLarge.Load, obs.L("limit", "bytes"))
	m.CounterFunc("sv_query_limit_rejections_total", limitHelp, s.tooDeep.Load, obs.L("limit", "depth"))
	m.HistogramFunc("sv_request_duration_seconds", "End-to-end /query latency (admitted requests).", s.lat.Snapshot)
	for _, name := range s.reg.Names() {
		c, _ := s.reg.Class(name)
		class := obs.L("class", name)
		m.CounterFunc("sv_class_evals_total", "Evaluator runs of the class's engine (answered queries, failed evaluations and explains).", func() uint64 {
			return c.Stats().Evals
		}, class)
		m.CounterFunc("sv_plan_cache_evictions_total", "Plans evicted from the class's plan cache; a steady rate means the cache is too small for the query mix.", func() uint64 {
			return c.Stats().PlanCache.Evictions
		}, class)
		m.GaugeFunc("sv_plan_cache_entries", "Plans held in the class's plan cache.", func() float64 {
			return float64(c.Stats().PlanCache.Entries)
		}, class)
	}
	m.CounterFunc("sv_requests_total", "Queries received by /query, admitted or not.", s.requests.Load)
	m.CounterFunc("sv_explains_total", "/explainz requests admitted.", s.explains.Load)
	m.GaugeFunc("sv_in_flight", "Queries currently holding an admission slot.", func() float64 {
		return float64(s.inFlight.Load())
	})
	m.GaugeFunc("sv_max_in_flight", "Admission-control capacity.", func() float64 {
		return float64(s.cfg.maxInFlight())
	})
	m.GaugeFunc("sv_draining", "1 once graceful drain has begun, else 0.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	m.GaugeFunc("sv_uptime_seconds", "Seconds since the server was built.", func() float64 {
		return time.Since(s.started).Seconds()
	})
	m.GaugeFunc("sv_document_nodes", "Nodes in the served document.", func() float64 {
		return float64(s.doc.Size())
	})
	m.GaugeFunc("sv_document_height", "Height of the served document.", func() float64 {
		return float64(s.doc.Height())
	})
	const rwHelp = "Policy engines (one per user class) by rewriting strategy (flat, height-free)."
	for _, mode := range []string{"flat", "height-free"} {
		mode := mode
		m.GaugeFunc("sv_engines_by_rewrite_mode", rwHelp, func() float64 {
			n := 0
			for _, cs := range s.reg.Stats() {
				if cs.RewriteMode == mode {
					n++
				}
			}
			return float64(n)
		}, obs.L("mode", mode))
	}
	m.GaugeFunc("sv_plan_cache_nodes", "Total AST nodes across all cached optimized plans (all classes).", func() float64 {
		n := 0
		for _, cs := range s.reg.Stats() {
			n += cs.Engine.PlanCacheNodes
		}
		return float64(n)
	})
}

// Metrics returns the server's Prometheus registry (the /metricsz
// content), so embedders can add their own series.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// BeginDrain flips /healthz to 503 so load balancers stop routing new
// work here while in-flight queries finish. The HTTP listener shutdown
// itself is the caller's job (http.Server.Shutdown); this only
// publishes the intent. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Handler returns the server's route table; see the package comment for
// the endpoint inventory.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	mux.HandleFunc("/queryz", s.handleQueryz)
	mux.HandleFunc("/explainz", s.handleExplainz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parseQueryRequest validates the shared request parameters: class
// (required), q (required, at most MaxQueryBytes), param=name=value
// (repeatable), timeout (Go duration, clamped to Config.MaxTimeout),
// read from the body and the URL as r.ParseForm reads them (see
// readQueryForm). It returns the request's record with its identity
// filled in, and the request's deadline. A body over maxBodyBytes is
// cut off unread.
func (s *Server) parseQueryRequest(w http.ResponseWriter, r *http.Request) (*obs.QueryMetrics, time.Duration, error) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	f, err := readQueryForm(r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, 0, fmt.Errorf("%w: body over %d bytes", errTooLarge, maxBodyBytes)
		}
		return nil, 0, fmt.Errorf("malformed form: %v", err)
	}
	if f.class == "" || f.q == "" {
		return nil, 0, errors.New("need class= and q= parameters")
	}
	if len(f.q) > MaxQueryBytes {
		return nil, 0, fmt.Errorf("%w: query of %d bytes, over %d", errTooLarge, len(f.q), MaxQueryBytes)
	}
	if f.paramErr != nil {
		return nil, 0, f.paramErr
	}
	timeout := s.cfg.defaultTimeout()
	if v := f.timeout; v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, 0, fmt.Errorf("bad timeout %q (want a positive Go duration like 250ms)", v)
		}
		timeout = d
	}
	if max := s.cfg.maxTimeout(); timeout == 0 || timeout > max {
		timeout = max
	}
	return &obs.QueryMetrics{Class: f.class, Query: f.q, Params: f.params}, timeout, nil
}

// admit claims an admission slot or answers 429. Callers that get true
// must call release.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
	default:
		// Refuse instead of queueing: a saturated server answering 429
		// immediately keeps latency bounded for the queries it did
		// admit; clients retry with backoff.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server saturated: too many in-flight queries", http.StatusTooManyRequests)
		return false
	}
	s.inFlight.Add(1)
	return true
}

func (s *Server) release() {
	s.inFlight.Add(-1)
	<-s.sem
}

// requestCtx derives the per-request evaluation context.
func requestCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return r.Context(), func() {}
}

// handleQuery answers one view query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	qm, timeout, err := s.parseQueryRequest(w, r)
	if err != nil {
		s.countResponse(clientError(w, err), err)
		return
	}
	if !s.admit(w) {
		s.countResponse(http.StatusTooManyRequests, nil)
		return
	}
	defer s.release()
	if s.testHook != nil {
		s.testHook()
	}

	qm.RequestID = s.reqID.Add(1)
	ctx, cancel := requestCtx(r, timeout)
	defer cancel()

	start := time.Now()
	nodes, err := s.query(obs.WithQueryMetrics(ctx, qm), qm.Class, qm.Params, s.doc, qm.Query)
	qm.Status = http.StatusOK
	qm.ResultCount = len(nodes)
	switch {
	case err == nil:
		serialize := time.Now()
		writeResult(w, nodes)
		qm.Serialize = time.Since(serialize)
	case errors.Is(err, context.DeadlineExceeded):
		qm.Status = http.StatusGatewayTimeout
		http.Error(w, fmt.Sprintf("query exceeded its %v deadline", timeout), qm.Status)
	case errors.Is(err, context.Canceled):
		// The client went away; nothing useful can be written, but the
		// status keeps the access log honest (499 is the de-facto
		// client-closed-request code).
		qm.Status = 499
		w.WriteHeader(qm.Status)
	case clientFault(err):
		qm.Status = clientError(w, err)
	default:
		// The request was well-formed; the failure is the server's
		// (derivation, rewriting, or evaluation broke). Reporting it as
		// 400 would tell the client to stop retrying a query that is
		// fine, and would hide server bugs from the error budget.
		qm.Status = http.StatusInternalServerError
		http.Error(w, fmt.Sprintf("internal error answering query: %v", err), qm.Status)
	}
	qm.Time = time.Now()
	qm.Total = qm.Time.Sub(start)
	s.lat.Observe(qm.Total)
	s.countResponse(qm.Status, err)
	if qm.Status == http.StatusOK {
		s.observePipeline(qm)
	}
	s.recordQuery(qm)
}

// countResponse counts one /query response under its status class; err
// is the request's error, if any. handleQuery is its only caller, so
// the classes sum to Requests at quiescence: /explainz and /queryz
// answer their errors without touching these counters.
func (s *Server) countResponse(status int, err error) {
	switch status {
	case http.StatusOK:
		s.ok.Add(1)
	case http.StatusBadRequest:
		if errors.Is(err, xpath.ErrQueryTooDeep) {
			s.tooDeep.Add(1)
		}
		s.badRequests.Add(1)
	case http.StatusRequestEntityTooLarge:
		s.tooLarge.Add(1)
	case http.StatusTooManyRequests:
		s.rejected.Add(1)
	case 499:
		s.clientCancels.Add(1)
	case http.StatusGatewayTimeout:
		s.timeouts.Add(1)
	default:
		s.internalErrors.Add(1)
	}
}

// observePipeline feeds one successfully answered request's per-phase
// accounting into the always-on metrics. Every phase digest is observed
// exactly once per call — a plan-cache hit contributes a zero
// rewrite/optimize duration rather than no sample — so each phase
// histogram's count equals sv_pipeline_total by construction, and the
// per-phase sums show where wall time actually went, cache and all.
func (s *Server) observePipeline(qm *obs.QueryMetrics) {
	s.pipeline.Add(1)
	s.phases[phaseRewrite].Observe(qm.Rewrite)
	s.phases[phaseOptimize].Observe(qm.Optimize)
	s.phases[phaseEval].Observe(qm.Eval)
	s.phases[phaseSerialize].Observe(qm.Serialize)
	if qm.PlanCacheHit {
		s.planHits.Add(1)
	} else {
		s.planMisses.Add(1)
	}
}

// recordQuery is the post-response accounting for one admitted query:
// it folds answered requests into the fingerprint registry, counts slow
// queries, and writes at most one event, the record itself.
//
// Ordering invariant: for answered requests observePipeline has already
// incremented s.pipeline in this goroutine, so the qstats observation
// lands strictly after it. A reader that sums /queryz counts before
// loading sv_pipeline_total therefore never sees the sum exceed the
// pipeline total; at quiescence the two are equal.
func (s *Server) recordQuery(qm *obs.QueryMetrics) {
	if qm.Status == http.StatusOK {
		s.qstats.Observe(qm)
	}
	thr := s.cfg.slowThreshold()
	slow := thr > 0 && qm.Total >= thr
	if slow {
		s.slowQueries.Add(1)
	}
	if s.cfg.EventLog == nil {
		return
	}
	// Kind says why the event is written, in this order of precedence;
	// each request writes at most one event.
	switch {
	case qm.Status != http.StatusOK:
		qm.Kind = "error"
	case slow:
		qm.Kind = "slow"
	case s.cfg.EventLogSampleEvery > 0 && qm.RequestID%uint64(s.cfg.EventLogSampleEvery) == 0:
		qm.Kind = "sampled"
	default:
		return
	}
	s.seal(qm)
	if err := s.cfg.EventLog.Emit(qm); err != nil {
		log.Printf("svserve: event log write failed: %v", err)
	}
}

// seal readies a record to leave the server. It narrows the parameters
// to the class's own: one plan serves every binding of a class, so the
// binding says whose answer this was, while other request parameters
// must not reach the log. It sets the fingerprint, which joins the
// record to its /queryz row; it falls back to the surface query exactly
// like qstats.Observe does, so error records (which may carry no plan)
// still join a row when one exists.
func (s *Server) seal(qm *obs.QueryMetrics) {
	var binding map[string]string
	if c, ok := s.reg.Class(qm.Class); ok {
		for _, name := range c.Params() {
			if v, ok := qm.Params[name]; ok {
				if binding == nil {
					binding = make(map[string]string)
				}
				binding[name] = v
			}
		}
	}
	qm.Params = binding
	plan := qm.PlanText
	if plan == "" {
		plan = qm.Query
	}
	qm.Fingerprint = qstats.Fingerprint(qm.Class, plan)
}

// explainzResponse is the /explainz JSON document: the engine's
// per-phase explain plus the request's record (kind "explain").
type explainzResponse struct {
	Explain *core.Explain     `json:"explain"`
	Record  *obs.QueryMetrics `json:"record"`
}

// handleExplainz answers one query through the explain path: rewrite
// and optimize run fresh (bypassing the plan cache) so every phase has
// a real measured duration. Parameters are the same as /query.
func (s *Server) handleExplainz(w http.ResponseWriter, r *http.Request) {
	qm, timeout, err := s.parseQueryRequest(w, r)
	if err != nil {
		clientError(w, err)
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.release()
	s.explains.Add(1)

	qm.RequestID = s.reqID.Add(1)
	ctx, cancel := requestCtx(r, timeout)
	defer cancel()

	start := time.Now()
	ex, err := s.explain(obs.WithQueryMetrics(ctx, qm), qm.Class, qm.Params, s.doc, qm.Query)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			http.Error(w, fmt.Sprintf("explain exceeded its %v deadline", timeout), http.StatusGatewayTimeout)
		case errors.Is(err, context.Canceled):
			w.WriteHeader(499)
		case clientFault(err):
			clientError(w, err)
		default:
			http.Error(w, fmt.Sprintf("internal error explaining query: %v", err), http.StatusInternalServerError)
		}
		return
	}
	qm.Time = time.Now()
	qm.Total = qm.Time.Sub(start)
	qm.Status, qm.Kind, qm.ResultCount = http.StatusOK, "explain", ex.ResultCount
	s.seal(qm)
	writeJSON(w, explainzResponse{Explain: ex, Record: qm})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w)
}

// QueryStats returns the server's per-fingerprint registry (the /queryz
// content), so embedders and load tools can read it directly.
func (s *Server) QueryStats() *qstats.Registry { return s.qstats }

// QueryzResponse is the /queryz JSON document: the registry's own
// accounting plus the top fingerprints under the requested sort.
type QueryzResponse struct {
	// Sort is the applied sort key (?sort=, default eval_time) and N the
	// applied row bound (?n=, default 50; n<=0 returns every row).
	Sort string `json:"sort"`
	N    int    `json:"n"`
	// Registry is the fingerprint registry's own accounting. At
	// quiescence the Count sum over ALL rows (n<=0) equals
	// Registry.Observations equals sv_pipeline_total.
	Registry qstats.Stats              `json:"registry"`
	Top      []qstats.FingerprintStats `json:"top"`
}

// handleQueryz dumps per-fingerprint query statistics, heaviest first.
// ?sort= picks the key (eval_time, total_time, count); ?n=
// bounds the rows (0 or negative = all).
func (s *Server) handleQueryz(w http.ResponseWriter, r *http.Request) {
	n := 50
	if v := r.FormValue("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil {
			clientError(w, fmt.Errorf("bad n %q (want an integer)", v))
			return
		}
		n = parsed
	}
	by := r.FormValue("sort")
	switch by {
	case "":
		by = qstats.SortEvalTime
	case qstats.SortEvalTime, qstats.SortTotalTime, qstats.SortCount:
	default:
		clientError(w, fmt.Errorf("bad sort %q (want %s, %s, or %s)",
			by, qstats.SortEvalTime, qstats.SortTotalTime, qstats.SortCount))
		return
	}
	writeJSON(w, QueryzResponse{
		Sort:     by,
		N:        n,
		Registry: s.qstats.Stats(),
		Top:      s.qstats.Top(n, by),
	})
}

// handleHealthz reports liveness — and readiness: once a graceful drain
// has begun it answers 503 so load balancers route new work elsewhere
// while in-flight queries finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// clientFault reports whether a Registry.QueryCtx error is the client's
// fault: a class the registry does not define, query syntax the parser
// rejected, or a $parameter the request failed to bind. Everything else
// — view derivation, rewriting, or evaluation failing on a well-formed
// request — is the server's fault and must surface as a 5xx.
func clientFault(err error) bool {
	var parseErr *xpath.ParseError
	var bindErr *policy.BindingError
	return errors.Is(err, policy.ErrUnknownClass) ||
		errors.Is(err, core.ErrUnboundVars) ||
		errors.As(err, &parseErr) ||
		errors.As(err, &bindErr)
}

// clientError answers a client fault, 413 for a request over a byte
// bound and 400 otherwise, and returns the status. It counts nothing
// (see countResponse).
func clientError(w http.ResponseWriter, err error) int {
	status := http.StatusBadRequest
	if errors.Is(err, errTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return status
}

// maxPooledResult is the largest response buffer writeResult returns to
// its pool. A buffer that grew past it for a large answer is left to the
// collector, so one big response does not pin its size in memory.
const maxPooledResult = 64 << 10

var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// xmlContentType is the Content-Type of every /query answer. Header
// values are only read or replaced, never appended to in place (a
// length-1 slice at capacity reallocates first), so one shared slice
// serves every response; Header().Set would allocate one per answer.
var xmlContentType = []string{"application/xml; charset=utf-8"}

// writeResult wraps the selected nodes in a <result> envelope so the
// response body is a single well-formed XML document. It renders the
// envelope and every answer (xmltree.Node.AppendXML) into one pooled
// buffer and writes it with one Write.
func writeResult(w http.ResponseWriter, nodes []*xmltree.Node) {
	w.Header()["Content-Type"] = xmlContentType
	buf := resultBufs.Get().(*[]byte)
	b := append((*buf)[:0], `<result count="`...)
	b = strconv.AppendInt(b, int64(len(nodes)), 10)
	b = append(b, "\">\n"...)
	for _, n := range nodes {
		b = n.AppendXML(b)
	}
	b = append(b, "</result>\n"...)
	w.Write(b)
	if cap(b) > maxPooledResult {
		b = nil
	}
	*buf = b
	resultBufs.Put(buf)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
