package xpath

import (
	"sort"

	"repro/internal/xmltree"
)

// This file defines the Rec path operator: the height-free translation
// of the descendant step '//' over a *recursive* security view. The
// paper's Section 4.2 unfolds a recursive view DTD to the concrete
// document height, which ties rewritten-plan size (and the plan-cache
// key) to document depth; following Mahfoud–Imine's "standard
// XPath-based" treatment, Rec instead carries the view's σ-labeled
// transition system directly and evaluates it as a product reachability
// over (document node, view type) pairs. One Rec node is valid for
// documents of any height: a chain longer than the document's height
// simply selects nothing, because every σ edge descends at least one
// document level.

// RecEdge is one transition of a RecGraph: from the owning state to To,
// consuming the document-side path Sig (the σ annotation of the view
// production edge).
type RecEdge struct {
	To  string
	Sig Path
}

// RecGraph is the σ-labeled transition system of one security view:
// states are the view's element types plus the "#text" pseudo-state,
// and an edge (A, σ, B) says "from a document node in view role A, the
// document nodes in view role B one view level down are σ's results".
// A RecGraph is immutable after construction and shared by every Rec
// node of its rewriter — Rec values stay comparable (map-key safe)
// because they hold the graph by pointer.
type RecGraph struct {
	states []string // sorted
	edges  map[string][]RecEdge
	// into is the reversed graph: into[t] holds one edge per edge s→t,
	// with To naming its source s. The bitset evaluator walks it to
	// compute a Rec's pre-image inside qualifiers.
	into map[string][]RecEdge
	size int // Σ over edges of (1 + Size(Sig)); height-independent
}

// NewRecGraph builds a graph from per-state edge lists (copied).
func NewRecGraph(edges map[string][]RecEdge) *RecGraph {
	g := &RecGraph{edges: make(map[string][]RecEdge, len(edges)), into: map[string][]RecEdge{}}
	for s, es := range edges {
		g.edges[s] = append([]RecEdge(nil), es...)
		g.states = append(g.states, s)
		for _, e := range es {
			g.size += 1 + Size(e.Sig)
		}
	}
	sort.Strings(g.states)
	for _, s := range g.states {
		for _, e := range g.edges[s] {
			g.into[e.To] = append(g.into[e.To], RecEdge{To: s, Sig: e.Sig})
		}
	}
	return g
}

// States returns the state names, sorted.
func (g *RecGraph) States() []string { return append([]string(nil), g.states...) }

// EdgesFrom returns the transitions leaving one state (shared slice; do
// not mutate).
func (g *RecGraph) EdgesFrom(state string) []RecEdge { return g.edges[state] }

// Size is the graph's total AST weight: one node per edge plus the σ
// path sizes. It is independent of any document's height.
func (g *RecGraph) Size() int { return g.size }

// equal is deep structural equality (pointer fast path first).
func (g *RecGraph) equal(h *RecGraph) bool {
	if g == h {
		return true
	}
	if g == nil || h == nil || len(g.states) != len(h.states) {
		return false
	}
	for i, s := range g.states {
		if h.states[i] != s {
			return false
		}
	}
	for _, s := range g.states {
		ea, eb := g.edges[s], h.edges[s]
		if len(ea) != len(eb) {
			return false
		}
		for i := range ea {
			if ea[i].To != eb[i].To || !Equal(ea[i].Sig, eb[i].Sig) {
				return false
			}
		}
	}
	return true
}

// hasVars reports whether any σ edge still contains $parameters.
func (g *RecGraph) hasVars() bool {
	for _, s := range g.states {
		for _, e := range g.edges[s] {
			if len(Vars(e.Sig)) > 0 {
				return true
			}
		}
	}
	return false
}

// bindVars returns a copy of the graph with $parameters substituted.
// Callers should check hasVars first: binding a var-free graph would
// needlessly break pointer sharing between the plan's Rec nodes.
func (g *RecGraph) bindVars(env map[string]string) (*RecGraph, error) {
	edges := make(map[string][]RecEdge, len(g.edges))
	for s, es := range g.edges {
		bound := make([]RecEdge, len(es))
		for i, e := range es {
			sig, err := BindVars(e.Sig, env)
			if err != nil {
				return nil, err
			}
			bound[i] = RecEdge{To: e.To, Sig: sig}
		}
		edges[s] = bound
	}
	return NewRecGraph(edges), nil
}

// collectVars accumulates the distinct $parameters of all σ edges.
func (g *RecGraph) collectVars(seen map[string]bool, out *[]string) {
	for _, s := range g.states {
		for _, e := range g.edges[s] {
			for _, v := range Vars(e.Sig) {
				if !seen[v] {
					seen[v] = true
					*out = append(*out, v)
				}
			}
		}
	}
}

// Rec is recrw(Start, Accept) over a recursive view, height-free: it
// selects every document node reachable from a context node by a chain
// of σ transitions spelling a Start→Accept state path in G — the
// length-0 chain included, so a Rec with Start == Accept also selects
// the context node itself. Evaluation is a breadth-first product search
// over (document node, state) pairs with visited-pair dedup, so it
// terminates on any input and runs in O(pairs × σ cost) regardless of
// how many label paths the view DTD admits.
//
// Rec values are comparable (the graph is held by pointer), which the
// rewrite and optimize DP memo keys require.
type Rec struct {
	G             *RecGraph
	Start, Accept string
	// ResultLabel is the document label every selected node carries
	// (TextName when Accept is the text pseudo-state): σ paths of a
	// derived view always land on the document element their target view
	// type stands for. The optimizer reads it to type Rec results
	// without inspecting G.
	ResultLabel string
}

func (Rec) isPath() {}

// rec runs the product reachability over node slices, the reference
// form of bitEval.reach: a breadth-first search over (node, view state)
// pairs that maps each frontier across the σ edges with path.
func (e seqEval) rec(p Rec, ctx []*xmltree.Node) ([]*xmltree.Node, error) {
	if p.G == nil {
		return nil, nil
	}
	type visit struct {
		n     *xmltree.Node
		state string
	}
	seen := map[visit]bool{}
	frontier := map[string][]*xmltree.Node{}
	for _, v := range ctx {
		if k := (visit{v, p.Start}); !seen[k] {
			seen[k] = true
			frontier[p.Start] = append(frontier[p.Start], v)
		}
	}
	var out []*xmltree.Node
	for len(frontier) > 0 {
		states := make([]string, 0, len(frontier))
		for s := range frontier {
			states = append(states, s)
		}
		sort.Strings(states)
		next := map[string][]*xmltree.Node{}
		for _, s := range states {
			nodes := xmltree.SortDocOrder(frontier[s])
			if s == p.Accept {
				out = append(out, nodes...)
			}
			for _, edge := range p.G.edges[s] {
				hit, err := e.path(edge.Sig, nodes)
				if err != nil {
					return nil, err
				}
				for _, m := range hit {
					if k := (visit{m, edge.To}); !seen[k] {
						seen[k] = true
						next[edge.To] = append(next[edge.To], m)
					}
				}
			}
		}
		frontier = next
	}
	return xmltree.SortDocOrder(out), nil
}
