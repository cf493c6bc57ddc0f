// Package securexml is a from-scratch Go implementation of "Secure XML
// Querying with Security Views" (Fan, Chan, Garofalakis — SIGMOD 2004).
//
// The library enforces DTD-based access-control policies on XML data
// through security views: for each user class, an access specification
// annotates the document DTD with Y / [q] / N accessibility, from which a
// sound and complete security view — a view DTD plus hidden XPath
// extraction annotations σ — is derived automatically. Users see only the
// view DTD; their XPath queries are rewritten into equivalent queries
// over the original document (no view materialization) and optimized
// using the DTD's structural constraints before evaluation.
//
// # Quick start
//
//	doc, _ := securexml.ParseDocument(xmlFile)
//	d, _ := securexml.ParseDTD(dtdSource)
//	spec, _ := securexml.ParseSpec(d, "ann(dept, clinicalTrial) = N\n...")
//	engine, _ := securexml.NewEngine(spec)
//	fmt.Println(engine.ViewDTD())           // schema exposed to this user class
//	nodes, _ := engine.QueryString(doc, "//patient/name")
//
// Everything the paper describes is included: Algorithm derive (Fig. 5),
// the materialization semantics of Section 3.3 with soundness and
// completeness checking, the dynamic-programming query rewriter (Fig. 6)
// with height-free rewriting of recursive views (and the Section 4.2
// unfolding as its test oracle), the approximate-containment
// optimizer (Fig. 10), the naive element-annotation baseline of Section 6
// (repro/internal/naive), and the Table 1 benchmark harness
// (bench_test.go, cmd/svbench).
package securexml

import (
	"io"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/lint"
	"repro/internal/policy"
	"repro/internal/secview"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Core model types, re-exported under stable names.
type (
	// DTD is a document type definition in the paper's production normal
	// form (str | ε | concatenation | disjunction | star).
	DTD = dtd.DTD
	// Spec is an access specification S = (D, ann).
	Spec = access.Spec
	// Ann is one security annotation (Y, N, or a conditional [q]).
	Ann = access.Ann
	// View is a derived security view V = (D_v, σ).
	View = secview.View
	// Materialized is a materialized view instance with its
	// view-to-document node correspondence.
	Materialized = secview.Materialized
	// Document is an in-memory XML document tree.
	Document = xmltree.Document
	// Node is a node of a Document.
	Node = xmltree.Node
	// Path is a parsed XPath query of the paper's fragment C.
	Path = xpath.Path
	// Engine enforces one bound access policy end to end (Fig. 3), with
	// a bounded plan cache in front of the rewrite+optimize stages.
	Engine = core.Engine
	// EngineConfig tunes an engine's serving layer: plan-cache capacity.
	EngineConfig = core.Config
	// EngineStats is a snapshot of an engine's query, cache, and
	// evaluation counters.
	EngineStats = core.Stats
	// Registry manages the policies of multiple user classes over one
	// document DTD: one engine per class, derived once and shared by
	// every parameter binding.
	Registry = policy.Registry
	// LintIssue is one finding of the specification linter.
	LintIssue = lint.Issue
)

// Annotation kinds for building specifications programmatically.
const (
	Allow = access.Allow
	Deny  = access.Deny
	Cond  = access.Cond
)

// ParseDTD reads a DTD in the compact text syntax (see internal/dtd):
//
//	root hospital
//	hospital -> dept*
//	dept -> clinicalTrial, patientInfo, staffInfo
//	name -> #PCDATA
func ParseDTD(src string) (*DTD, error) { return dtd.Parse(src) }

// ParseElementDTD reads a DTD written with standard <!ELEMENT ...>
// declarations and normalizes general content models into the paper's
// production normal form by introducing synthetic element types.
func ParseElementDTD(src string) (*DTD, error) { return dtd.ParseElementSyntax(src) }

// ParseSpec reads access annotations over a DTD:
//
//	ann(hospital, dept) = [*/patient/wardNo = $wardNo]
//	ann(dept, clinicalTrial) = N
func ParseSpec(d *DTD, src string) (*Spec, error) { return access.ParseAnnotations(d, src) }

// ParseQuery reads an XPath query of the fragment C.
func ParseQuery(src string) (Path, error) { return xpath.Parse(src) }

// QueryString renders a query back to its concrete syntax.
func QueryString(p Path) string { return xpath.String(p) }

// ParseDocument reads an XML document into a tree.
func ParseDocument(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseDocumentString reads an XML document held in a string.
func ParseDocumentString(s string) (*Document, error) { return xmltree.ParseString(s) }

// Validate checks that a document conforms to a DTD.
func Validate(doc *Document, d *DTD) error { return xmltree.Validate(doc, d) }

// NewEngine derives the security view for a bound specification (no free
// $parameters — use Spec.Bind) and returns the policy-enforcement engine.
func NewEngine(spec *Spec) (*Engine, error) { return core.New(spec) }

// NewEngineWithConfig is NewEngine with explicit serving-layer tuning:
// plan-cache capacity.
func NewEngineWithConfig(spec *Spec, cfg EngineConfig) (*Engine, error) {
	return core.NewWithConfig(spec, cfg)
}

// Derive computes just the security view for a bound specification
// (Algorithm derive, Fig. 5) without the query machinery.
func Derive(spec *Spec) (*View, error) { return secview.Derive(spec) }

// LoadView deserializes a view definition produced by View.MarshalText
// (or svderive -save), so frontends can enforce a policy without
// re-deriving it.
func LoadView(data []byte) (*View, error) { return secview.UnmarshalView(data) }

// EngineFromView builds an enforcement engine around an already-derived
// or deserialized view.
func EngineFromView(v *View) (*Engine, error) { return core.FromView(v) }

// Eval evaluates a query at a document's root without any access control
// — administrator-side plumbing and baselines only.
func Eval(p Path, doc *Document) []*Node { return xpath.EvalDoc(p, doc) }

// NewRegistry returns a policy registry over the document DTD, for
// managing multiple user classes at once.
func NewRegistry(d *DTD) *Registry { return policy.NewRegistry(d) }

// NewRegistryWithConfig is NewRegistry with serving-layer tuning: cfg
// is applied to every class's engine. engineCap has no effect: each
// class derives one engine, shared by every parameter binding.
func NewRegistryWithConfig(d *DTD, engineCap int, cfg EngineConfig) *Registry {
	return policy.NewRegistryWithConfig(d, engineCap, cfg)
}

// Lint statically checks a specification: redundant or unreachable
// annotations, trivial conditions, and derived-view abort risks.
func Lint(spec *Spec) []LintIssue { return lint.Check(spec) }
