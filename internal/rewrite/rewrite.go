// Package rewrite implements the paper's Algorithm rewrite (Section 4,
// Fig. 6): given a security view V = (D_v, σ) and an XPath query p of the
// fragment C posed over the view, it computes an equivalent query p_t
// over the original document, so that p over the materialized view T_v
// and p_t over the document T return the same answer — completely
// bypassing view materialization.
//
// The algorithm is a dynamic program over (sub-query, view-DTD node)
// pairs: rw(p', A) is the local translation of p' at view type A and
// reach(p', A) the set of view types reachable from A via p'. The fixed
// query '//' is handled by the precomputation recProc, which derives for
// every pair (A, B) an XPath query recrw(A, B) capturing all label paths
// from A to B in the view DTD with σ spliced in; symbolic sharing of
// sub-expressions keeps recrw(A, B) linear in |D_v| even when the DAG has
// exponentially many paths. The DP and recProc are package typedp's,
// which Algorithm optimize drives too: this package supplies the view
// DTD's σ edges, qualifier rewriting and the cyclic fallback.
//
// Recursive view DTDs admit two treatments. Section 4.2 unfolds the view
// DTD to the height of the concrete document, yielding a DAG the document
// is guaranteed to conform to — but plan size and identity then depend on
// document height (ForViewWithHeight keeps this path as a differential
// oracle). The default is height-free: following Mahfoud–Imine's
// standard-XPath-based technique, recursive '//' regions rewrite to a
// single Rec automaton node over the view's σ transition system
// (see recproc.go), so one plan per query serves documents of any height.
package rewrite

import (
	"fmt"
	"sync"

	"repro/internal/dtd"
	"repro/internal/secview"
	"repro/internal/typedp"
	"repro/internal/xpath"
)

// Rewriter holds the per-view precomputation shared by all queries: the
// effective (possibly unfolded) view DTD and the recProc tables. A
// Rewriter is safe for concurrent use: calls serialize on a mutex. The
// DP memo lives for one Rewrite call — plans are cached by the caller,
// so a memo kept across calls would grow with every distinct query the
// rewriter has seen and never be read again.
type Rewriter struct {
	mu   sync.Mutex
	view *secview.View
	dv   *dtd.DTD // effective DAG view DTD (unfolded copy when recursive)

	// orig maps effective type names to original view labels (identity for
	// non-recursive views; strips the @level suffix after unfolding).
	orig map[string]string
	// sigma maps effective production edges to σ queries over the document.
	sigma map[[2]string]xpath.Path

	// dp holds the DP memo and the recProc tables.
	dp *typedp.DP

	// recGraph is the view's σ transition system, built lazily the first
	// time recProc meets a cyclic region (height-free mode only) and
	// shared by pointer across all Rec nodes the rewriter emits.
	recGraph *xpath.RecGraph

	// unfolded/height record whether this rewriter's view DTD was
	// unfolded (recursive view) and to what document height — pure
	// observability; the algorithm never reads them back.
	unfolded bool
	height   int
}

// ForView builds a rewriter for a security view. Recursive view DTDs are
// handled height-free: recursive '//' regions rewrite to Rec automaton
// nodes over the view's σ transition system, so the same plan is valid
// for documents of any height and never needs unfolding. Use
// ForViewWithHeight for the Section 4.2 unfolding path (kept as the
// differential oracle).
func ForView(v *secview.View) (*Rewriter, error) {
	return newRewriter(v, v.DTD, identityOrig(v.DTD)), nil
}

// ForViewWithHeight builds a rewriter that handles recursive view DTDs by
// unfolding them to the given document height (the number of edges on the
// longest root-to-leaf path of the concrete document, Section 4.2).
// Non-recursive views are used as-is regardless of height.
func ForViewWithHeight(v *secview.View, height int) (*Rewriter, error) {
	if !v.IsRecursive() {
		return newRewriter(v, v.DTD, identityOrig(v.DTD)), nil
	}
	if height < 0 {
		return nil, fmt.Errorf("rewrite: negative document height %d", height)
	}
	unfolded, orig, sigma := unfold(v, height)
	r := newRewriter(v, unfolded, orig)
	r.sigma = sigma
	r.unfolded = true
	r.height = height
	return r, nil
}

// Unfolded reports whether the view DTD was unfolded (recursive view);
// Height is the document height it was unfolded to (0 otherwise).
func (r *Rewriter) Unfolded() bool { return r.unfolded }

// Height returns the unfolding height; see Unfolded.
func (r *Rewriter) Height() int { return r.height }

// Mode names the rewriting strategy: "flat" for a non-recursive view,
// "height-free" for a recursive view rewritten via Rec automata, and
// "unfold" for the Section 4.2 oracle path.
func (r *Rewriter) Mode() string {
	switch {
	case r.unfolded:
		return "unfold"
	case r.view.IsRecursive():
		return "height-free"
	default:
		return "flat"
	}
}

func newRewriter(v *secview.View, dv *dtd.DTD, orig map[string]string) *Rewriter {
	r := &Rewriter{
		view:  v,
		dv:    dv,
		orig:  orig,
		sigma: make(map[[2]string]xpath.Path),
	}
	r.dp = typedp.New(typedp.Lang{Edges: r.edges, Cyclic: r.cyclic, Qual: r.rwSelfQual, Case: r.rwCase})
	for _, a := range dv.Types() {
		c := dv.MustProduction(a)
		if c.Kind == dtd.Text {
			if p, ok := v.Sigma(orig[a], dtd.TextLabel); ok {
				r.sigma[[2]string{a, dtd.TextLabel}] = p
			}
			continue
		}
		for _, it := range c.Items {
			if p, ok := v.Sigma(orig[a], orig[it.Name]); ok {
				r.sigma[[2]string{a, it.Name}] = p
			}
		}
	}
	return r
}

func identityOrig(d *dtd.DTD) map[string]string {
	m := make(map[string]string, d.Len())
	for _, t := range d.Types() {
		m[t] = t
	}
	return m
}

// Rewrite translates a view query into an equivalent document query
// p_t = rw(p, r) and simplifies it. A query that can select nothing on
// any view instance rewrites to ∅.
func (r *Rewriter) Rewrite(p xpath.Path) (xpath.Path, error) {
	pt, _, err := r.RewriteCounted(p)
	return pt, err
}

// RewriteCounted is Rewrite that also reports the number of DP cells
// the call memoized — its working-set size, which explain reports. The
// memo is dropped when the call returns, so this is bounded by one
// query's cells however many queries came before.
func (r *Rewriter) RewriteCounted(p xpath.Path) (xpath.Path, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := r.dp.Cell(p, r.dv.Root())
	cells := r.dp.EndCall()
	return xpath.Simplify(res.Total()), cells, nil
}

// RewriteString parses, rewrites, and prints in one step.
func (r *Rewriter) RewriteString(query string) (string, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return "", err
	}
	pt, err := r.Rewrite(p)
	if err != nil {
		return "", err
	}
	return xpath.String(pt), nil
}

// attrVisible reports whether a view type exposes the attribute: the
// type is not a dummy (a dummy's document node is hidden, attributes
// included) and the view DTD declares the attribute (derive drops denied
// ones during attlist projection).
func (r *Rewriter) attrVisible(a, name string) bool {
	orig := r.orig[a]
	if r.view.IsDummy(orig) {
		return false
	}
	_, ok := r.view.DTD.Attr(orig, name)
	return ok
}

// rwCase computes the DP cells rewrite does not share with optimize.
func (r *Rewriter) rwCase(p xpath.Path, a string) typedp.Cell {
	if p, ok := p.(xpath.Union); ok { // case 6
		return typedp.Union(r.dp.Cell(p.Left, a), r.dp.Cell(p.Right, a))
	}
	return typedp.Cell{}
}

// rwSelfQual computes the cell of ε[q] at view type A (case 7).
func (r *Rewriter) rwSelfQual(q xpath.Qual, a string) typedp.Cell {
	var res typedp.Cell
	q = r.rwQual(q, a)
	if _, isFalse := q.(xpath.QFalse); !isFalse {
		res.Add(a, xpath.MakeQualified(xpath.Self{}, q))
	}
	return res
}

// rwQual rewrites a qualifier at view type A (Fig. 6 cases 8-12).
func (r *Rewriter) rwQual(q xpath.Qual, a string) xpath.Qual {
	switch q := q.(type) {
	case xpath.QTrue, xpath.QFalse:
		return q
	case xpath.QPath: // case 8
		res := r.dp.Cell(q.Path, a)
		if res.Empty() {
			return xpath.QFalse{}
		}
		return xpath.QPath{Path: res.Total()}
	case xpath.QEq: // case 9
		res := r.dp.Cell(q.Path, a)
		if res.Empty() {
			return xpath.QFalse{}
		}
		return xpath.QEq{Path: res.Total(), Value: q.Value, Var: q.Var}
	case xpath.QAnd: // case 10
		return xpath.MakeAnd(r.rwQual(q.Left, a), r.rwQual(q.Right, a))
	case xpath.QOr: // case 11
		return xpath.MakeOr(r.rwQual(q.Left, a), r.rwQual(q.Right, a))
	case xpath.QNot: // case 12
		return xpath.MakeNot(r.rwQual(q.Sub, a))
	case xpath.QAttrEq: // attribute extension: same attribute on the
		// corresponding document node when the view exposes it
		if r.attrVisible(a, q.Name) {
			return q
		}
		return xpath.QFalse{}
	case xpath.QAttrHas:
		if r.attrVisible(a, q.Name) {
			return q
		}
		return xpath.QFalse{}
	default:
		return xpath.QFalse{}
	}
}

// edges lists the production edges out of an effective view type with
// their σ queries, and its σ text edge. Derived views define σ on every
// edge, so a missing entry only arises for hand-built views, where the
// child label itself is the natural default.
func (r *Rewriter) edges(a string) ([]typedp.Edge, xpath.Path) {
	var kids []typedp.Edge
	for _, b := range r.dv.Children(a) {
		sig, ok := r.sigma[[2]string{a, b}]
		if !ok {
			sig = xpath.L(r.orig[b])
		}
		kids = append(kids, typedp.Edge{To: b, Label: r.orig[b], Query: sig})
	}
	return kids, r.sigma[[2]string{a, dtd.TextLabel}]
}
