// Package policy manages the set of access-control policies declared
// over one document DTD — the administrator side of the paper's Fig. 3.
// Each user class has an access specification (possibly with $parameters
// such as the nurse policy's $wardNo). The registry derives one
// enforcement engine per class when the class is defined, with its
// $parameters left unbound; a request binds them on a cheap handle, so
// a ward-6 nurse and a ward-7 nurse share the class's view and plans
// while evaluation reads each one's own $wardNo.
package policy

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/xmltree"
	"repro/internal/xpath"
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

// Deprecated: no effect, kept only because perfbench pins it. Each
// class keeps one engine for every binding, so there is no per-binding
// engine cache to bound.
const DefaultEngineCacheCapacity = 128

// Registry holds the user classes defined over one document DTD.
type Registry struct {
	d         *dtd.DTD
	classes   map[string]*Class
	order     []string
	engineCfg core.Config
}

// Class is one user class: a named, possibly parameterized access
// specification plus its engine, derived once with the $parameters
// unbound (a Class is safe for concurrent use).
type Class struct {
	Name string
	Spec *access.Spec

	engine *core.Engine
}

// NewRegistry returns an empty registry over the document DTD.
func NewRegistry(d *dtd.DTD) *Registry {
	return NewRegistryWithConfig(d, 0, core.Config{})
}

// NewRegistryWithConfig is NewRegistry with serving-layer tuning:
// engineCfg is handed to every class's engine (plan-cache size).
// engineCap has no effect; it is kept only because perfbench pins this
// signature (see DefaultEngineCacheCapacity).
func NewRegistryWithConfig(d *dtd.DTD, engineCap int, engineCfg core.Config) *Registry {
	return &Registry{
		d:         d,
		classes:   make(map[string]*Class),
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

// DefineSpec registers a pre-built specification as a user class and
// derives its engine, $parameters unbound. The specification must be
// over the registry's DTD.
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
	e, err := core.NewClass(spec, r.engineCfg)
	if err != nil {
		return nil, fmt.Errorf("policy: class %s: %v", name, err)
	}
	c := &Class{Name: name, Spec: spec, engine: e}
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

// Engine returns the enforcement engine for one parameter binding: a
// handle on the class's engine carrying the binding. Classes without
// parameters accept a nil binding.
func (c *Class) Engine(params map[string]string) (*core.Engine, error) {
	return c.EngineCtx(context.Background(), params)
}

// EngineCtx is Engine with observability: a context carrying a
// QueryMetrics record learns that no derivation ran (EngineCacheHit;
// the class's view was derived at Define). It derives nothing: it
// checks that every specification parameter is bound — a missing one
// is a BindingError, the client's fault — and returns the handle.
func (c *Class) EngineCtx(ctx context.Context, params map[string]string) (*core.Engine, error) {
	e, err := c.engine.Bind(params)
	if err != nil {
		return nil, fmt.Errorf("policy: class %s: %w", c.Name, &BindingError{Err: err})
	}
	if qm := obs.QueryMetricsFromContext(ctx); qm != nil {
		qm.EngineCacheHit = true
	}
	return e, nil
}

// Stats snapshots the counters of the class's engine, shared by every
// binding.
func (c *Class) Stats() core.Stats { return c.engine.Stats() }

// ClassStats is the serving counters of one user class: its one
// engine's, shared by every binding.
type ClassStats struct {
	Class string `json:"class"`
	// Params are the class's specification parameters, bound per
	// request.
	Params []string `json:"params,omitempty"`
	// RewriteMode is the engine's rewriting strategy ("flat" or
	// "height-free"; see core.Engine.RewriteMode).
	RewriteMode string `json:"rewrite_mode"`
	// Engine holds the plan-cache and evaluation counters.
	Engine core.Stats `json:"engine"`
}

// Stats reports every class's engine counters in definition order.
func (r *Registry) Stats() []ClassStats {
	out := make([]ClassStats, 0, len(r.order))
	for _, name := range r.order {
		c := r.classes[name]
		out = append(out, ClassStats{
			Class:       name,
			Params:      c.Params(),
			RewriteMode: c.engine.RewriteMode(),
			Engine:      c.Stats(),
		})
	}
	return out
}

// Query answers a view query for one user: class, parameter binding,
// document, query text.
func (r *Registry) Query(class string, params map[string]string, doc *xmltree.Document, query string) ([]*xmltree.Node, error) {
	return r.QueryUntil(context.Background(), time.Time{}, class, params, doc, query)
}

// QueryUntil is Query honoring a context and a deadline (zero for none;
// see core.Engine.QueryUntil): the evaluation polls both cooperatively
// and returns ctx.Err(), or context.DeadlineExceeded past the deadline,
// once either is done (engine derivation and plan rewriting complete
// normally either way, so retries hit warm caches).
func (r *Registry) QueryUntil(ctx context.Context, deadline time.Time, class string, params map[string]string, doc *xmltree.Document, query string) ([]*xmltree.Node, error) {
	e, p, err := r.request(ctx, class, params, query)
	if err != nil {
		return nil, err
	}
	return e.QueryUntil(ctx, deadline, doc, p)
}

// request resolves one request's engine handle and parses its query.
func (r *Registry) request(ctx context.Context, class string, params map[string]string, query string) (*core.Engine, xpath.Path, error) {
	c, ok := r.classes[class]
	if !ok {
		return nil, nil, fmt.Errorf("policy: %w %q", ErrUnknownClass, class)
	}
	e, err := c.EngineCtx(ctx, params)
	if err != nil {
		return nil, nil, err
	}
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	return e, p, nil
}

// ExplainUntil answers a view query like QueryUntil but through the
// engine's explain path: every pipeline phase is measured fresh and the
// intermediate query strings are reported (see core.Engine.ExplainUntil).
func (r *Registry) ExplainUntil(ctx context.Context, deadline time.Time, class string, params map[string]string, doc *xmltree.Document, query string) (*core.Explain, error) {
	e, p, err := r.request(ctx, class, params, query)
	if err != nil {
		return nil, err
	}
	return e.ExplainUntil(ctx, deadline, doc, p)
}

// ViewDTD returns the schema published to one user class under a
// parameter binding. The schema is the same for every binding; the
// binding is still checked.
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
