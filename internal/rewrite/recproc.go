package rewrite

import (
	"repro/internal/typedp"
	"repro/internal/xpath"
)

// cyclic is recrw(a, b) for a target b of a source a whose reachable
// region is recursive (height-free mode): the automaton query
// Rec{G, a, b}, one AST node over the view's shared σ transition system,
// which is height-independent by construction. Rec includes the
// length-0 chain, so recrw(a, a) still covers ε.
func (r *Rewriter) cyclic(a, b string) xpath.Path {
	label := xpath.TextName
	if b != typedp.Text {
		label = r.resultLabel(b)
	}
	return xpath.Rec{G: r.graph(), Start: a, Accept: b, ResultLabel: label}
}

// graph lazily builds the view's shared σ transition system: one state
// per view type plus the "#text" pseudo-state, one edge per production
// edge carrying its σ query. Built once per Rewriter (callers hold r.mu)
// and shared by pointer across every Rec node, so all Rec values of one
// plan stay comparable and the per-plan weight is a single graph.
func (r *Rewriter) graph() *xpath.RecGraph {
	if r.recGraph != nil {
		return r.recGraph
	}
	edges := make(map[string][]xpath.RecEdge, r.dv.Len())
	for _, x := range r.dv.Types() {
		kids, text := r.dp.Edges(x)
		for _, e := range kids {
			edges[x] = append(edges[x], xpath.RecEdge{To: e.To, Sig: e.Query})
		}
		if text != nil {
			edges[x] = append(edges[x], xpath.RecEdge{To: typedp.Text, Sig: text})
		}
	}
	r.recGraph = xpath.NewRecGraph(edges)
	return r.recGraph
}

// resultLabel is the document label carried by every node a σ chain
// ending in view type b selects: the hidden document type when b is a
// dummy (the dummy stands in for it), otherwise b's original label.
func (r *Rewriter) resultLabel(b string) string {
	orig := r.orig[b]
	if hidden, ok := r.view.DummyOf[orig]; ok {
		return hidden
	}
	return orig
}
