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
// exponentially many paths.
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
	"sort"
	"sync"

	"repro/internal/dtd"
	"repro/internal/secview"
	"repro/internal/xpath"
)

// Rewriter holds the per-view precomputation shared by all queries: the
// effective (possibly unfolded) DAG view DTD and the recProc tables. A
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

	// recProc results, computed lazily per source node.
	recReach map[string][]string
	recPaths map[string]map[string]xpath.Path

	// recGraph is the view's σ transition system, built lazily the first
	// time recProc meets a cyclic region (height-free mode only) and
	// shared by pointer across all Rec nodes the rewriter emits.
	recGraph *xpath.RecGraph

	memo map[memoKey]result // nil between calls

	// unfolded/height record whether this rewriter's view DTD was
	// unfolded (recursive view) and to what document height — pure
	// observability; the algorithm never reads them back.
	unfolded bool
	height   int
}

type memoKey struct {
	p xpath.Path
	a string
}

// result is one DP cell: for a (sub-query, view type) pair it keeps the
// local translation *per reach target*. Keeping translations per target —
// rather than the single union rw(p', A) of Fig. 6 — is what makes step
// composition sound: in p1/p2, the continuation rewritten for target v is
// composed only onto the paths that lead to v, so a qualifier that is,
// say, false at v1 but true at v2 cannot leak across (see DESIGN.md,
// "Mixed-target step composition"). The union of the per-target
// translations is exactly the paper's rw(p', A).
type result struct {
	byTarget map[string]xpath.Path
	reach    []string // sorted set of effective view types
}

// total returns rw(p', A): the union of the per-target translations, in
// deterministic (sorted target) order.
func (r result) total() xpath.Path {
	out := xpath.Path(xpath.Empty{})
	for _, v := range r.reach {
		out = xpath.MakeUnion(out, r.byTarget[v])
	}
	return out
}

func (r result) empty() bool { return len(r.byTarget) == 0 }

func newResult() result {
	return result{byTarget: make(map[string]xpath.Path)}
}

// add unions a translation into one target's cell.
func (r *result) add(target string, p xpath.Path) {
	if xpath.IsEmpty(p) {
		return
	}
	if prev, ok := r.byTarget[target]; ok {
		r.byTarget[target] = xpath.MakeUnion(prev, p)
		return
	}
	r.byTarget[target] = p
	r.reach = append(r.reach, target)
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
		view:     v,
		dv:       dv,
		orig:     orig,
		sigma:    make(map[[2]string]xpath.Path),
		recReach: make(map[string][]string),
		recPaths: make(map[string]map[string]xpath.Path),
	}
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
	r.memo = make(map[memoKey]result)
	res := r.rw(p, r.dv.Root())
	cells := len(r.memo)
	r.memo = nil
	return xpath.Simplify(res.total()), cells, nil
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

// textType is the pseudo view type occupied after a text() step; it has
// no children and no σ edges.
const textType = "#text"

// rw computes the local translation rw(p', A) and reach(p', A); results
// are memoized on (sub-query structure, node), which is exactly the
// paper's DP table.
func (r *Rewriter) rw(p xpath.Path, a string) result {
	key := memoKey{p: p, a: a}
	if res, ok := r.memo[key]; ok {
		return res
	}
	res := r.compute(p, a)
	sort.Strings(res.reach)
	r.memo[key] = res
	return res
}

func (r *Rewriter) compute(p xpath.Path, a string) result {
	res := newResult()
	switch p := p.(type) {
	case xpath.Empty:
		return res
	case xpath.Self: // case 1
		res.add(a, xpath.Self{})
		return res
	case xpath.Label: // case 2
		if p.Name == xpath.TextName {
			if sig, ok := r.sigma[[2]string{a, dtd.TextLabel}]; ok {
				res.add(textType, sig)
			}
			return res
		}
		for _, child := range r.children(a) {
			if r.orig[child] == p.Name {
				res.add(child, r.sigmaOf(a, child))
			}
		}
		return res
	case xpath.Wildcard: // case 3
		for _, child := range r.children(a) {
			res.add(child, r.sigmaOf(a, child))
		}
		return res
	case xpath.Seq: // case 4, per target
		r1 := r.rw(p.Left, a)
		for _, v := range r1.reach {
			r2 := r.rw(p.Right, v)
			for _, w := range r2.reach {
				res.add(w, xpath.MakeSeq(r1.byTarget[v], r2.byTarget[w]))
			}
		}
		return res
	case xpath.Descend: // case 5, per target
		for _, b := range r.reachDescend(a) {
			rb := r.rw(p.Sub, b)
			for _, w := range rb.reach {
				res.add(w, xpath.MakeSeq(r.recrw(a, b), rb.byTarget[w]))
			}
		}
		return res
	case xpath.Union: // case 6
		for _, sub := range []xpath.Path{p.Left, p.Right} {
			rs := r.rw(sub, a)
			for _, w := range rs.reach {
				res.add(w, rs.byTarget[w])
			}
		}
		return res
	case xpath.Qualified:
		if _, ok := p.Sub.(xpath.Self); ok { // case 7: ε[q]
			q := r.rwQual(p.Cond, a)
			if _, isFalse := q.(xpath.QFalse); isFalse {
				return res
			}
			res.add(a, xpath.MakeQualified(xpath.Self{}, q))
			return res
		}
		// p1[q] ≡ p1/ε[q]: case 4 then gives each reach target its own
		// locally rewritten qualifier.
		return r.rw(xpath.Seq{Left: p.Sub, Right: xpath.Qualified{Sub: xpath.Self{}, Cond: p.Cond}}, a)
	default:
		return res
	}
}

// rwQual rewrites a qualifier at view type A (Fig. 6 cases 8-12).
func (r *Rewriter) rwQual(q xpath.Qual, a string) xpath.Qual {
	switch q := q.(type) {
	case xpath.QTrue, xpath.QFalse:
		return q
	case xpath.QPath: // case 8
		res := r.rw(q.Path, a)
		if res.empty() {
			return xpath.QFalse{}
		}
		return xpath.QPath{Path: res.total()}
	case xpath.QEq: // case 9
		res := r.rw(q.Path, a)
		if res.empty() {
			return xpath.QFalse{}
		}
		return xpath.QEq{Path: res.total(), Value: q.Value, Var: q.Var}
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

// children returns the distinct child types of an effective view type.
func (r *Rewriter) children(a string) []string {
	if a == textType {
		return nil
	}
	return r.dv.Children(a)
}

// sigmaOf returns σ for an effective production edge; derived views
// define σ on every edge, so a missing entry only arises for hand-built
// views, where the child label itself is the natural default.
func (r *Rewriter) sigmaOf(parent, child string) xpath.Path {
	if p, ok := r.sigma[[2]string{parent, child}]; ok {
		return p
	}
	return xpath.L(r.orig[child])
}
