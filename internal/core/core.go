// Package core wires the paper's full framework (Fig. 3) into one
// engine: a security administrator's access specification is compiled
// into a security view (package secview), user queries posed over the
// exposed view DTD are rewritten into equivalent document queries
// (package rewrite), optionally optimized against the document DTD
// (package optimize), and evaluated over the original document (package
// xpath) — the view itself is never materialized on the query path.
//
// On top of the paper's pipeline the engine adds a serving layer:
// rewritten-and-optimized plans are kept in a bounded LRU plan cache, so
// repeated queries skip the rewrite and optimize stages entirely, and
// recursive views rewrite height-free (one plan per query, valid for
// documents of any height — see package rewrite). A policy with
// $parameters is derived once (NewClass) and every binding shares its
// plans: the parameters and the query's literals stay symbolic in a plan
// and evaluation binds them (Engine.Bind, xpath.Env). Evaluation is
// xpath.Evaluate, the one evaluator; the Section 4.2 unfolding
// (rewrite.ForViewWithHeight) and the reference evaluator
// (xpath.EvalRef) are test oracles, not serving modes.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/plancache"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Default capacities for the engine's caches.
const (
	DefaultPlanCacheCapacity = 512

	// Deprecated: no effect, kept only because perfbench pins it.
	// Label indexes belong to the document (xmltree.Document.Labeled),
	// so engines keep no index cache.
	DefaultIndexCacheCapacity = 16
	// Deprecated: no effect, kept only because perfbench pins it. The
	// evaluator picks index or subtree walk per descendant step.
	DefaultIndexThreshold = 512
)

// ErrUnboundVars marks queries rejected at plan time because they still
// contain unbound $variables — the caller's fault (a missing parameter
// binding), which servers report as a client error rather than an
// internal failure. Test with errors.Is.
var ErrUnboundVars = errors.New("query has unbound variables")

// Config tunes an engine's serving layer. The zero value gives the
// defaults: a bounded plan cache.
type Config struct {
	// PlanCacheCapacity bounds the query → Prepared cache. 0 means
	// DefaultPlanCacheCapacity.
	PlanCacheCapacity int

	// Deprecated: no effect, kept only because perfbench pins it. Every
	// query is evaluated; the engine keeps no answer cache (DESIGN.md
	// §4.7).
	AnswerCache bool
	// Deprecated: no effect, kept only because perfbench pins it. The
	// evaluator always reads the document's label index.
	Indexed bool
	// Deprecated: no effect, kept only because perfbench pins it.
	IndexThreshold int
	// Deprecated: no effect, kept only because perfbench pins it.
	// Engines keep no index cache.
	IndexCacheCapacity int
	// Deprecated: no effect, kept only because perfbench pins it.
	// Evaluation is sequential; a worker pool lost to it on the 2-core
	// hardware it was measured on.
	Parallel bool
	// Deprecated: no effect, kept only because perfbench pins it.
	// Recursive views always rewrite height-free; the Section 4.2
	// unfolding is the test oracle rewrite.ForViewWithHeight.
	UnfoldRewrite bool
}

func (c Config) planCap() int {
	if c.PlanCacheCapacity > 0 {
		return c.PlanCacheCapacity
	}
	return DefaultPlanCacheCapacity
}

// Engine enforces one access policy under one parameter binding. It is
// a handle: the derived security view, the rewriter and optimizer and
// the plan cache belong to the policy (state) and are shared by every
// handle Bind returns, so a ward-6 and a ward-7 nurse share one plan
// per query shape. The handle adds only the binding, which evaluation
// reads as an environment. An Engine is cheap to keep around and reuse
// across documents and queries. All methods are safe for concurrent
// use.
type Engine struct {
	s *state
	// params binds the specification's $parameters; bound reports that
	// every one of them has a value (always true without parameters).
	params map[string]string
	bound  bool
}

// state is what every handle of one policy shares.
type state struct {
	spec *access.Spec
	// vars are the specification's $parameters, sorted; the view, and
	// every plan built from it, carries them unbound.
	vars []string
	view *secview.View
	opt  *optimize.Optimizer
	// rw is the view's rewriter: flat for a non-recursive view,
	// height-free for a recursive one.
	rw *rewrite.Rewriter

	// plans caches rewritten-and-optimized queries by the text of the
	// parameterized query (xpath.ParameterizedString), so repeated query
	// shapes skip rewrite+optimize whatever their literals and binding.
	plans *plancache.Cache[*Prepared]

	queries   atomic.Uint64
	cancelled atomic.Uint64
	evals     atomic.Uint64
}

// New derives the security view for a bound access specification (no
// free $parameters) and prepares the engine with the default Config.
func New(spec *access.Spec) (*Engine, error) {
	return NewWithConfig(spec, Config{})
}

// NewWithConfig is New with explicit serving-layer tuning.
func NewWithConfig(spec *access.Spec, cfg Config) (*Engine, error) {
	if vars := spec.Vars(); len(vars) > 0 {
		return nil, fmt.Errorf("core: specification has unbound parameters %v; call Spec.Bind first, or NewClass", vars)
	}
	return NewClass(spec, cfg)
}

// NewClass derives the security view of a specification once, with its
// $parameters left unbound, and prepares the engine every binding of
// the policy shares. Bind the result before querying; a specification
// without parameters is bound already.
func NewClass(spec *access.Spec, cfg Config) (*Engine, error) {
	view, err := secview.Derive(spec)
	if err != nil {
		return nil, err
	}
	return FromViewConfig(view, cfg)
}

// FromView builds an engine around an already-derived view — typically
// one loaded from a serialized definition (secview.UnmarshalView), so
// query frontends need not re-derive per process.
func FromView(view *secview.View) (*Engine, error) {
	return FromViewConfig(view, Config{})
}

// FromViewConfig is FromView with explicit serving-layer tuning.
func FromViewConfig(view *secview.View, cfg Config) (*Engine, error) {
	rw, err := rewrite.ForView(view)
	if err != nil {
		return nil, err
	}
	s := &state{
		spec:  view.Spec,
		vars:  view.Spec.Vars(),
		view:  view,
		opt:   optimize.New(view.Doc),
		rw:    rw,
		plans: plancache.NewWeighted(cfg.planCap(), func(p *Prepared) int { return p.nodes }),
	}
	return &Engine{s: s, bound: len(s.vars) == 0}, nil
}

// Bind returns the handle that evaluates under a parameter binding. It
// fails when a specification parameter has no value; values for names
// the specification does not use are ignored. Binding derives nothing:
// the handle shares the view and the plans of e.
func (e *Engine) Bind(params map[string]string) (*Engine, error) {
	if len(e.s.vars) == 0 {
		return e, nil
	}
	for _, v := range e.s.vars {
		if _, ok := params[v]; !ok {
			return nil, fmt.Errorf("core: unbound parameter $%s", v)
		}
	}
	return &Engine{s: e.s, params: params, bound: true}, nil
}

// View returns the derived security view (view DTD plus σ). Its σ
// qualifiers keep the specification's $parameters unbound.
func (e *Engine) View() *secview.View { return e.s.view }

// ViewDTD returns the view DTD D_v — the only schema information exposed
// to users authorized by the policy. It does not depend on the binding.
func (e *Engine) ViewDTD() *dtd.DTD { return e.s.view.DTD }

// DocumentDTD returns the original document DTD D (administrator-side).
func (e *Engine) DocumentDTD() *dtd.DTD { return e.s.spec.D }

// Spec returns the access specification, $parameters unbound.
func (e *Engine) Spec() *access.Spec { return e.s.spec }

// RewriteMode names the engine's rewriting strategy: "flat" for a
// non-recursive view, "height-free" for a recursive view rewritten via
// Rec automata. Surfaced in /explainz and /metricsz.
func (e *Engine) RewriteMode() string { return e.s.rw.Mode() }

// Rewrite translates a view query into the equivalent document query p_t.
// The specification's $parameters stay symbolic in p_t. It is the
// rewrite stage alone, timed by the serving benchmark's trace; plans
// are built by QueryCtx, Prepare and ExplainCtx.
//
// Deprecated: height and the error are kept only because perfbench
// pins this signature: the plan is valid for documents of any height,
// so height is ignored, and the error is always nil.
func (e *Engine) Rewrite(p xpath.Path, height int) (xpath.Path, error) {
	pt, _ := e.s.rw.Rewrite(p)
	return pt, nil
}

// Optimize improves a document query using the document DTD's structural
// constraints (Section 5), the optimize stage alone (see Rewrite). It is
// equivalence-preserving and never errors: constructs outside the
// optimizer's reasoning pass through unchanged.
func (e *Engine) Optimize(p xpath.Path) xpath.Path {
	po, _, _ := e.s.opt.Optimize(p)
	return po
}

// env is the evaluation environment of one request: the handle's
// binding plus the query's literals.
func (e *Engine) env(lits []string) xpath.Env {
	return xpath.Env{Params: e.params, Literals: lits}
}

// plan returns the cached plan for a query's shape, building and
// caching it on a miss, plus the query's literals in placeholder order.
// It is the one plan-build path: QueryCtx, Prepare and ExplainCtx all
// go through it, so each moves the plan-cache counters the same way.
// The cache key is the query printed with its p = "c" constants renamed
// to placeholders (xpath.ParameterizedString), so queries that differ
// only in their constants share one plan; only a build makes the
// renamed query (xpath.Parameterize) that gets rewritten. This is sound
// because rewrite and optimize treat constants as opaque: their one test
// on a value is syntactic equality, which a consistent renaming keeps
// between query literals; a literal equal to a specification constant
// just no longer proves it, and the optimizer then proves less.
//
// Queries with $variables of their own are rejected up front: depending
// on the document they would either error mid-evaluation or silently
// match nothing, and neither belongs in the cache. So are queries
// through a handle whose specification parameters are unbound. A
// context carrying a QueryMetrics record gets the cache outcome and,
// when the plan is built, the rewrite and optimize durations. A non-nil
// ex asks for an explain: the plan is then built even on a hit, to be
// measured fresh, and ex gets the intermediate forms and the build's
// counts; a hit still evaluates, and leaves in the cache, the cached
// plan. Concurrent misses on one key may build the plan more than once
// and the last Put wins: a duplicate plan build is harmless, and each
// request still gets its own rewrite and optimize times.
func (e *Engine) plan(ctx context.Context, p xpath.Path, ex *Explain) (*Prepared, []string, error) {
	if err := e.checkVars(p); err != nil {
		return nil, nil, err
	}
	key, lits := xpath.ParameterizedString(p)
	qm := obs.QueryMetricsFromContext(ctx)
	prep, hit := e.s.plans.Get(key)
	if qm != nil {
		qm.PlanCacheHit = hit
	}
	if hit && ex == nil {
		return prep, lits, nil
	}
	start := time.Now()
	shape, _ := xpath.Parameterize(p)
	pt, cells := e.s.rw.Rewrite(shape)
	rewriteDone := time.Now()
	po, rules, pruned := e.s.opt.Optimize(pt)
	if qm != nil {
		qm.Rewrite = rewriteDone.Sub(start)
		qm.Optimize = time.Since(rewriteDone)
	}
	if !hit {
		prep = newPrepared(po)
		e.s.plans.Put(key, prep)
	}
	if ex != nil {
		ex.PlanWasCached = hit
		ex.Rewritten, ex.Optimized = xpath.String(pt), prep.text
		ex.RewrittenSize, ex.OptimizedSize = xpath.Size(pt), prep.nodes
		ex.MemoCells, ex.RulesFired, ex.PrunedBranches = cells, rules, pruned
		if env := e.env(lits); len(env.Params) > 0 || len(lits) > 0 {
			ex.Env = env.Map()
		}
	}
	return prep, lits, nil
}

// checkVars rejects a query with $variables of its own, and any query
// through a handle that leaves a specification parameter unbound.
func (e *Engine) checkVars(p xpath.Path) error {
	if vars := xpath.Vars(p); len(vars) > 0 {
		return fmt.Errorf("core: %w %v; bind them with xpath.BindVars before querying", ErrUnboundVars, vars)
	}
	if !e.bound {
		return fmt.Errorf("core: %w: specification parameters %v; call Engine.Bind first", ErrUnboundVars, e.s.vars)
	}
	return nil
}

// QueryCtx answers a view query over a document: rewrite, optimize, and
// evaluate over the original tree. The result contains exactly the
// document nodes the policy exposes to the query. Plans are served from
// the engine's cache when a query of the same shape was answered
// before, and malformed or unbound-variable queries return an error
// rather than panicking. Evaluation polls the context cooperatively and
// returns ctx.Err() once it is done, so callers can bound a query with
// a deadline or cancel it mid-flight. Plan rewriting and caching
// complete normally either way — a cancelled query leaves the plan
// cache exactly as a successful one would, so a retry hits the cached
// plan. Every query runs the evaluator.
func (e *Engine) QueryCtx(ctx context.Context, doc *xmltree.Document, p xpath.Path) ([]*xmltree.Node, error) {
	return e.run(ctx, doc, p, nil)
}

// run is QueryCtx, and with a non-nil ex the pipeline of ExplainCtx.
func (e *Engine) run(ctx context.Context, doc *xmltree.Document, p xpath.Path, ex *Explain) ([]*xmltree.Node, error) {
	e.s.queries.Add(1)
	prep, lits, err := e.plan(ctx, p, ex)
	if err != nil {
		return nil, err
	}
	e.s.evals.Add(1)
	qm := obs.QueryMetricsFromContext(ctx)
	start := time.Now()
	out, visited, err := xpath.Evaluate(ctx, prep.Optimized, []*xmltree.Node{doc.Root}, e.env(lits))
	if qm != nil {
		qm.Eval = time.Since(start)
		qm.NodesVisited = visited
		// The rendered optimized plan is the request's fingerprint basis
		// (see internal/qstats); it is precomputed on the Prepared, so
		// surfacing it is a field copy on hits and misses alike.
		qm.PlanText = prep.text
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		e.s.cancelled.Add(1)
	}
	return out, err
}

// QueryString is QueryCtx with parsing and no deadline.
func (e *Engine) QueryString(doc *xmltree.Document, query string) ([]*xmltree.Node, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.QueryCtx(context.Background(), doc, p)
}

// Explain is the end-to-end report of one freshly measured pipeline
// run: the intermediate query strings and per-phase wall times behind
// /explainz and svquery -explain. Durations are nanoseconds (the
// internal unit everywhere; consumers divide for display).
type Explain struct {
	// Query is the view query as given. Rewritten and Optimized are its
	// two intermediate forms, printed as the plan cache holds them: the
	// query's literals are placeholders ($#0, $#1, ...) and the
	// specification's $parameters are unbound. Env binds both.
	Query     string            `json:"query"`
	Rewritten string            `json:"rewritten"`
	Optimized string            `json:"optimized"`
	Env       map[string]string `json:"env,omitempty"`
	// RewriteNs, OptimizeNs, and EvalNs are the fresh per-phase wall
	// times. Explain rebuilds the plan even on a cache hit — a cached
	// plan would report hit-and-nothing-to-time — so these are what a
	// cold request pays.
	RewriteNs  int64 `json:"rewrite_ns"`
	OptimizeNs int64 `json:"optimize_ns"`
	EvalNs     int64 `json:"eval_ns"`
	// RewrittenSize and OptimizedSize are AST sizes (xpath.Size).
	RewrittenSize int `json:"rewritten_size"`
	OptimizedSize int `json:"optimized_size"`
	// MemoCells is the number of DP cells this rewrite memoized (see
	// rewrite.Rewriter.Rewrite); RulesFired and PrunedBranches are the
	// DTD-driven rules this optimize call fired and the subtrees they
	// removed (optimize.Optimizer.Optimize).
	MemoCells      int    `json:"memo_cells"`
	RulesFired     uint64 `json:"rules_fired"`
	PrunedBranches uint64 `json:"pruned_branches"`
	// NodesVisited is the evaluator's work counter for this run (see
	// obs.QueryMetrics).
	NodesVisited uint64 `json:"nodes_visited,omitempty"`
	ResultCount  int    `json:"result_count"`
	// DocHeight is the document's height; RecursiveView flags the view
	// DTD as recursive; RewriteMode is the engine's rewriting strategy
	// (Engine.RewriteMode).
	DocHeight     int    `json:"doc_height"`
	RecursiveView bool   `json:"recursive_view"`
	RewriteMode   string `json:"rewrite_mode"`
	// PlanWasCached is the outcome of the explain's plan-cache lookup,
	// counted like a QueryCtx's (explain re-measures regardless, and
	// caches its plan only on a miss).
	PlanWasCached bool `json:"plan_was_cached"`
}

// ExplainCtx answers a view query like QueryCtx while measuring every
// phase fresh: rewrite and optimize run even when the plan cache holds
// the query's shape. The plan cache sees exactly what a QueryCtx of the
// query would do to it — one counted lookup, and on a miss the built
// plan is cached — and PlanWasCached is that lookup's outcome. A
// context carrying a QueryMetrics record gets the same phase durations,
// plan text and cache outcome the Explain reports.
func (e *Engine) ExplainCtx(ctx context.Context, doc *xmltree.Document, p xpath.Path) (*Explain, error) {
	qm := obs.QueryMetricsFromContext(ctx)
	if qm == nil {
		qm = &obs.QueryMetrics{}
		ctx = obs.WithQueryMetrics(ctx, qm)
	}
	ex := &Explain{
		Query:         xpath.String(p),
		DocHeight:     doc.Height(),
		RecursiveView: e.s.view.IsRecursive(),
		RewriteMode:   e.RewriteMode(),
	}
	out, err := e.run(ctx, doc, p, ex)
	if err != nil {
		return nil, err
	}
	ex.RewriteNs = qm.Rewrite.Nanoseconds()
	ex.OptimizeNs = qm.Optimize.Nanoseconds()
	ex.EvalNs = qm.Eval.Nanoseconds()
	ex.NodesVisited = qm.NodesVisited
	ex.ResultCount = len(out)
	return ex, nil
}

// Stats is a point-in-time snapshot of the engine's serving counters.
// Every handle of one policy reports the same counters: they belong to
// the shared state. svserve exposes Evals, PlanCache.Evictions and
// PlanCache.Entries per class on /metricsz.
type Stats struct {
	// Queries counts QueryCtx (QueryString included) and ExplainCtx
	// calls; Prepare evaluates nothing and is not counted.
	Queries uint64 `json:"queries"`
	// Cancelled counts queries that returned a context error (deadline
	// exceeded or caller cancellation) mid-evaluation.
	Cancelled uint64 `json:"cancelled"`
	// PlanCache reports the query-shape → plan cache.
	PlanCache plancache.Stats `json:"plan_cache"`
	// PlanCacheNodes sums the AST size of every cached optimized plan,
	// the memory-side view of the plan cache. The cache keeps it as a
	// running total (plancache.NewWeighted), so Stats walks nothing.
	PlanCacheNodes int `json:"plan_cache_nodes"`
	// Evals counts evaluator runs.
	Evals uint64 `json:"evals"`
	// OptimizeRules and OptimizePruned count the optimizer's DTD-driven
	// simplification decisions and the subtrees they removed (see
	// optimize.Optimizer.Stats).
	OptimizeRules  uint64 `json:"optimize_rules"`
	OptimizePruned uint64 `json:"optimize_pruned"`
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	rules, pruned := e.s.opt.Stats()
	return Stats{
		Queries:        e.s.queries.Load(),
		Cancelled:      e.s.cancelled.Load(),
		PlanCache:      e.s.plans.Stats(),
		PlanCacheNodes: int(e.s.plans.Weight()),
		Evals:          e.s.evals.Load(),
		OptimizeRules:  rules,
		OptimizePruned: pruned,
	}
}

// Prepared is a view query rewritten and optimized once, reusable across
// every document. The engine keeps one per query shape in its plan
// cache, holding only what serving reads: the optimized plan, its text
// and its size (most cached shapes optimize to ∅, so the source and
// rewritten trees would dominate an entry). Prepare hands out a copy
// with the query and the environment of its query and binding attached.
type Prepared struct {
	// Source is the view query as given to Prepare; nil in the plan
	// cache.
	Source xpath.Path
	// Optimized is the DTD-optimized rewriting rw(p, r) actually
	// evaluated. It carries the query's literals as placeholders and
	// the specification's $parameters unbound; Env binds them.
	// Engine.Rewrite and Explain re-derive the unoptimized rewriting.
	Optimized xpath.Path
	// Env binds the plan's variables: the engine's parameter binding
	// and the query's literals. Evaluation reads it; xpath.BindVars with
	// Env.Map() substitutes it for the reference evaluator.
	Env xpath.Env

	// text is xpath.String(Optimized) and nodes its AST size, computed
	// once at build time: text is the query fingerprint's basis, needed
	// per query.
	text  string
	nodes int
}

func newPrepared(po xpath.Path) *Prepared {
	return &Prepared{Optimized: po, text: xpath.String(po), nodes: xpath.Size(po)}
}

// Prepare rewrites and optimizes a view query once, so frontends can
// amortize translation across many documents and evaluations. It shares
// the plan cache with QueryCtx, under the same query shapes, and
// returns a copy of the cached plan carrying the query and its
// environment; xpath.Evaluate(ctx, Optimized, nodes, Env) runs it.
func (e *Engine) Prepare(p xpath.Path) (*Prepared, error) {
	prep, lits, err := e.plan(context.Background(), p, nil)
	if err != nil {
		return nil, err
	}
	out := *prep
	out.Source = p
	out.Env = e.env(lits)
	return &out, nil
}

// boundView returns the security view under the handle's binding:
// the shared view itself when the policy has no parameters, else one
// derived from the bound specification. Auditing only — the query path
// never materializes or derives per binding.
func (e *Engine) boundView() (*secview.View, error) {
	if len(e.s.vars) == 0 {
		return e.s.view, nil
	}
	if !e.bound {
		return nil, fmt.Errorf("core: %w: specification parameters %v; call Engine.Bind first", ErrUnboundVars, e.s.vars)
	}
	spec, err := e.s.spec.Bind(e.params)
	if err != nil {
		return nil, err
	}
	return secview.Derive(spec)
}

// Materialize builds the view instance T_v of a document under the
// handle's binding — the view's semantics, used for auditing and
// testing, never on the query path.
func (e *Engine) Materialize(doc *xmltree.Document) (*secview.Materialized, error) {
	v, err := e.boundView()
	if err != nil {
		return nil, err
	}
	return secview.Materialize(v, doc)
}

// Audit checks that the derived view is sound and complete on a concrete
// document (Theorem 3.2's property, verified dynamically).
func (e *Engine) Audit(doc *xmltree.Document) error {
	v, err := e.boundView()
	if err != nil {
		return err
	}
	_, err = secview.CheckSoundComplete(v, doc)
	return err
}
