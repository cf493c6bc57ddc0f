// Package policy manages the set of access-control policies declared
// over one document DTD — the administrator side of the paper's Fig. 3.
// Each user class has an access specification (possibly with $parameters
// such as the nurse policy's $wardNo); the registry derives and caches
// one enforcement engine per (class, parameter binding), so a ward-6
// nurse and a ward-7 nurse share the class definition but get different
// security views.
package policy

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/anscache"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/xmltree"
)

// ErrUnknownClass marks requests naming a user class the registry does
// not define — the client's fault. Test with errors.Is.
var ErrUnknownClass = errors.New("unknown class")

// BindingError marks a parameter-binding failure: the caller supplied a
// binding the class's specification cannot accept (a missing or
// malformed $parameter). It is the client's fault, distinguishing it
// from view-derivation failures, which are the server's. Test with
// errors.As.
type BindingError struct{ Err error }

func (e *BindingError) Error() string { return e.Err.Error() }
func (e *BindingError) Unwrap() error { return e.Err }

// DefaultEngineCacheCapacity bounds the per-class engine cache: each
// distinct parameter binding ($wardNo=6 vs $wardNo=7) derives its own
// security view, and untrusted binding values must not grow memory
// without limit.
const DefaultEngineCacheCapacity = 128

// Registry holds the user classes defined over one document DTD.
type Registry struct {
	d         *dtd.DTD
	classes   map[string]*Class
	order     []string
	engineCap int
	engineCfg core.Config
}

// Class is one user class: a named, possibly parameterized access
// specification plus the bounded cache of derived engines (a Class is
// safe for concurrent use).
type Class struct {
	Name string
	Spec *access.Spec

	engineCfg core.Config
	engines   *plancache.Cache[*core.Engine]
}

// NewRegistry returns an empty registry over the document DTD.
func NewRegistry(d *dtd.DTD) *Registry {
	return NewRegistryWithConfig(d, 0, core.Config{})
}

// NewRegistryWithConfig is NewRegistry with serving-layer tuning:
// engineCap bounds each class's engine cache (0 means
// DefaultEngineCacheCapacity) and engineCfg is handed to every derived
// engine (plan-cache sizes, parallel evaluation).
func NewRegistryWithConfig(d *dtd.DTD, engineCap int, engineCfg core.Config) *Registry {
	if engineCap <= 0 {
		engineCap = DefaultEngineCacheCapacity
	}
	return &Registry{
		d:         d,
		classes:   make(map[string]*Class),
		engineCap: engineCap,
		engineCfg: engineCfg,
	}
}

// DTD returns the document DTD the registry's policies annotate.
func (r *Registry) DTD() *dtd.DTD { return r.d }

// Define parses an annotation source and registers it as a user class.
func (r *Registry) Define(name, annotations string) (*Class, error) {
	spec, err := access.ParseAnnotations(r.d, annotations)
	if err != nil {
		return nil, fmt.Errorf("policy: class %s: %v", name, err)
	}
	return r.DefineSpec(name, spec)
}

// DefineSpec registers a pre-built specification as a user class. The
// specification must be over the registry's DTD.
func (r *Registry) DefineSpec(name string, spec *access.Spec) (*Class, error) {
	if name == "" {
		return nil, fmt.Errorf("policy: empty class name")
	}
	if _, dup := r.classes[name]; dup {
		return nil, fmt.Errorf("policy: class %q already defined", name)
	}
	if spec.D != r.d {
		return nil, fmt.Errorf("policy: class %q: specification is over a different DTD", name)
	}
	c := &Class{
		Name:      name,
		Spec:      spec,
		engineCfg: r.engineCfg,
		engines:   plancache.New[*core.Engine](r.engineCap),
	}
	r.classes[name] = c
	r.order = append(r.order, name)
	return c, nil
}

// Class looks a user class up by name.
func (r *Registry) Class(name string) (*Class, bool) {
	c, ok := r.classes[name]
	return c, ok
}

// Names returns the class names in definition order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Params returns the class's specification parameters, sorted.
func (c *Class) Params() []string { return c.Spec.Vars() }

// Engine returns the enforcement engine for one parameter binding,
// deriving the security view on first use and caching it with LRU
// eviction (an evicted binding is re-derived on its next use). Classes
// without parameters accept a nil binding.
func (c *Class) Engine(params map[string]string) (*core.Engine, error) {
	return c.EngineCtx(context.Background(), params)
}

// EngineCtx is Engine with observability: a context carrying a
// QueryMetrics carrier learns whether the engine came from the cache,
// and a context carrying a trace span gets a "derive_engine" child span
// on a miss (view derivation is the expensive path). Concurrent misses
// may derive more than once and the last Put wins (GetOrCompute
// singleflights, but this path wants per-request metrics attribution,
// and a duplicate derivation is harmless).
func (c *Class) EngineCtx(ctx context.Context, params map[string]string) (*core.Engine, error) {
	key := bindingKey(params)
	if e, ok := c.engines.Get(key); ok {
		if qm := obs.QueryMetricsFromContext(ctx); qm != nil {
			qm.EngineCacheHit = true
		}
		obs.SpanFromContext(ctx).SetAttr("engine_cache", "hit")
		return e, nil
	}
	obs.SpanFromContext(ctx).SetAttr("engine_cache", "miss")
	_, sp := obs.StartSpan(ctx, "derive_engine")
	spec := c.Spec
	if len(c.Params()) > 0 || len(params) > 0 {
		bound, err := c.Spec.Bind(params)
		if err != nil {
			sp.Finish()
			return nil, fmt.Errorf("policy: class %s: %w", c.Name, &BindingError{Err: err})
		}
		spec = bound
	}
	e, err := core.NewWithConfig(spec, c.engineCfg)
	sp.Finish()
	if err != nil {
		return nil, fmt.Errorf("policy: class %s: %v", c.Name, err)
	}
	c.engines.Put(key, e)
	return e, nil
}

// EngineCacheStats reports the class's engine-cache counters.
func (c *Class) EngineCacheStats() plancache.Stats { return c.engines.Stats() }

// BumpEpoch advances the epoch of every engine currently cached for the
// class (see core.Engine.BumpEpoch): their cached answers become
// unreachable. Engines derived afterward start at epoch 0 with empty
// caches, which is equally safe.
func (c *Class) BumpEpoch() {
	c.engines.Each(func(_ string, e *core.Engine) { e.BumpEpoch() })
}

// BumpEpoch advances the epoch of every cached engine in every class.
// Servers call it when a document is rebound (swapped, reloaded) so no
// answer derived against the old tree can be served against the new
// one — even when the tree was mutated in place.
func (r *Registry) BumpEpoch() {
	for _, name := range r.order {
		r.classes[name].BumpEpoch()
	}
}

// BindingStats is the serving counters of one cached engine (one
// parameter binding of a class).
type BindingStats struct {
	// Binding is the canonical parameter binding ("" for parameterless
	// classes, "wardNo=6;" style otherwise).
	Binding string `json:"binding"`
	// RewriteMode is the engine's rewriting strategy ("flat",
	// "height-free", or "unfold"; see core.Engine.RewriteMode).
	RewriteMode string     `json:"rewrite_mode"`
	Engine      core.Stats `json:"engine"`
}

// ClassStats is a registry-level rollup for one user class.
type ClassStats struct {
	Class   string          `json:"class"`
	Engines plancache.Stats `json:"engine_cache"`
	// AnswerCache sums the answer-cache counters over the class's cached
	// engines, so /statsz attributes hits and misses to the class that
	// earned them (the Prometheus sv_anscache_* counters stay aggregated
	// across classes). All zero when the answer cache is off.
	AnswerCache anscache.Stats `json:"answer_cache"`
	// Bindings holds the per-binding engine counters (plan cache,
	// evaluation path, cancellations) for every engine currently cached,
	// sorted by binding key.
	Bindings []BindingStats `json:"bindings"`
}

// Stats reports the engine-cache counters and the cached engines' own
// serving counters for every class in definition order.
func (r *Registry) Stats() []ClassStats {
	out := make([]ClassStats, 0, len(r.order))
	for _, name := range r.order {
		c := r.classes[name]
		cs := ClassStats{Class: name, Engines: c.EngineCacheStats()}
		c.engines.Each(func(key string, e *core.Engine) {
			es := e.Stats()
			cs.AnswerCache.Add(es.AnswerCache)
			cs.Bindings = append(cs.Bindings, BindingStats{
				Binding:     key,
				RewriteMode: e.RewriteMode(),
				Engine:      es,
			})
		})
		sort.Slice(cs.Bindings, func(i, j int) bool { return cs.Bindings[i].Binding < cs.Bindings[j].Binding })
		out = append(out, cs)
	}
	return out
}

// Query answers a view query for one user: class, parameter binding,
// document, query text.
func (r *Registry) Query(class string, params map[string]string, doc *xmltree.Document, query string) ([]*xmltree.Node, error) {
	return r.QueryCtx(context.Background(), class, params, doc, query)
}

// QueryCtx is Query honoring a context: the evaluation polls the context
// cooperatively and returns ctx.Err() once it is done (engine derivation
// and plan rewriting complete normally either way, so retries hit warm
// caches).
func (r *Registry) QueryCtx(ctx context.Context, class string, params map[string]string, doc *xmltree.Document, query string) ([]*xmltree.Node, error) {
	c, ok := r.classes[class]
	if !ok {
		return nil, fmt.Errorf("policy: %w %q", ErrUnknownClass, class)
	}
	e, err := c.EngineCtx(ctx, params)
	if err != nil {
		return nil, err
	}
	return e.QueryStringCtx(ctx, doc, query)
}

// ExplainCtx answers a view query like QueryCtx but through the
// engine's explain path: every pipeline phase is measured fresh and the
// intermediate query strings are reported (see core.Engine.ExplainCtx).
func (r *Registry) ExplainCtx(ctx context.Context, class string, params map[string]string, doc *xmltree.Document, query string) (*core.Explain, error) {
	c, ok := r.classes[class]
	if !ok {
		return nil, fmt.Errorf("policy: %w %q", ErrUnknownClass, class)
	}
	e, err := c.EngineCtx(ctx, params)
	if err != nil {
		return nil, err
	}
	return e.ExplainStringCtx(ctx, doc, query)
}

// ViewDTD returns the schema published to one user class under a
// parameter binding.
func (r *Registry) ViewDTD(class string, params map[string]string) (*dtd.DTD, error) {
	c, ok := r.classes[class]
	if !ok {
		return nil, fmt.Errorf("policy: %w %q", ErrUnknownClass, class)
	}
	e, err := c.Engine(params)
	if err != nil {
		return nil, err
	}
	return e.ViewDTD(), nil
}

// bindingKey canonicalizes a parameter binding for the engine cache.
func bindingKey(params map[string]string) string {
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, params[k])
	}
	return b.String()
}
