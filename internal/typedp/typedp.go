// Package typedp is the dynamic program that Algorithm rewrite (Fig. 6)
// and Algorithm optimize (Fig. 10) share. Both run over (sub-query,
// type) pairs of a type graph, keep one translation per reach target,
// and expand '//' through the precomputation recProc. They differ only
// in the graph: rewrite walks the view DTD with σ on its edges, optimize
// walks the document DTD with child labels on its edges. A caller
// describes its graph and the query forms it treats itself in a Lang,
// and drives the DP through Cell.
package typedp

import (
	"sort"

	"repro/internal/xpath"
)

// Text is the pseudo type a text() step reaches. It has no children and
// no edges.
const Text = xpath.TextName

// Edge is one production edge parent → To of the type graph.
type Edge struct {
	To    string     // the child type
	Label string     // the label of To's nodes, as queries name them
	Query xpath.Path // the query that walks the edge
}

// Lang is what an algorithm supplies to the DP.
type Lang struct {
	// Edges returns the edges out of type a, in content-model order,
	// and the query that walks a's text edge (nil when a has none). The
	// DP asks once per type.
	Edges func(a string) ([]Edge, xpath.Path)
	// Cyclic returns recrw(a, b) when the region reachable from a holds
	// a cycle, so its label paths cannot be enumerated; b is Text for
	// the text target.
	Cyclic func(a, b string) xpath.Path
	// Case returns the cell of every query form the DP does not share:
	// unions, ε[q], and anything else but Empty, Self, Label, Wildcard,
	// Seq, Descend and p[q] with p ≠ ε. It computes sub-cells through
	// DP.Cell.
	Case func(p xpath.Path, a string) Cell
}

// Cell is one DP cell: for a (sub-query, type) pair it keeps the
// translation per reach target. Keeping translations per target, rather
// than the single union rw(p', A) of Fig. 6, is what makes step
// composition sound: in p1/p2 the continuation computed at target v is
// composed only onto the paths that lead to v, so a qualifier that is
// false at v1 but true at v2 cannot leak across (DESIGN.md,
// "Mixed-target step composition"). The union of the per-target
// translations is the paper's rw(p', A).
type Cell struct {
	Reach    []string // the targets, sorted once the cell is memoized
	byTarget map[string]xpath.Path
}

// Add unions a translation into one target's entry. An empty
// translation adds nothing.
func (c *Cell) Add(target string, p xpath.Path) {
	if xpath.IsEmpty(p) {
		return
	}
	if prev, ok := c.byTarget[target]; ok {
		c.byTarget[target] = xpath.MakeUnion(prev, p)
		return
	}
	if c.byTarget == nil {
		c.byTarget = make(map[string]xpath.Path)
	}
	c.byTarget[target] = p
	c.Reach = append(c.Reach, target)
}

// Empty reports whether the cell selects nothing.
func (c Cell) Empty() bool { return len(c.Reach) == 0 }

// Total returns rw(p', A): the union of the per-target translations, in
// Reach order.
func (c Cell) Total() xpath.Path {
	out := xpath.Path(xpath.Empty{})
	for _, v := range c.Reach {
		out = xpath.MakeUnion(out, c.byTarget[v])
	}
	return out
}

// Union is the per-target union of two cells (case 6 of Fig. 6).
func Union(c1, c2 Cell) Cell {
	var out Cell
	for _, c := range [2]Cell{c1, c2} {
		for _, w := range c.Reach {
			out.Add(w, c.byTarget[w])
		}
	}
	return out
}

// DP holds the tables of one Rewriter or Optimizer: the per-call memo,
// and the per-type edges and recProc results, which outlive calls. It is
// not safe for concurrent use; its owner serializes calls.
type DP struct {
	lang  Lang
	memo  map[memoKey]Cell // nil between calls
	edges map[string]typeEdges
	rec   map[string]recTable
}

type memoKey struct {
	p xpath.Path
	a string
}

type typeEdges struct {
	kids []Edge
	text xpath.Path
}

// recTable is recProc's result for one source type a: reach(//, a),
// sorted, and recrw(a, b) for every b in it.
type recTable struct {
	reach []string
	paths map[string]xpath.Path
}

// New returns an empty DP over the graph lang describes.
func New(lang Lang) *DP {
	return &DP{lang: lang, edges: make(map[string]typeEdges), rec: make(map[string]recTable)}
}

// EndCall drops the memo at the end of one public call, so a plan never
// depends on the calls before it, and returns the number of cells it
// held.
func (dp *DP) EndCall() int {
	n := len(dp.memo)
	dp.memo = nil
	return n
}

// Edges returns the edges out of type a and its text edge (see Lang).
func (dp *DP) Edges(a string) ([]Edge, xpath.Path) {
	e, ok := dp.edges[a]
	if !ok {
		e.kids, e.text = dp.lang.Edges(a)
		dp.edges[a] = e
	}
	return e.kids, e.text
}

// Cell returns the cell of p at type a, memoized on (sub-query
// structure, type) for the current call: the paper's DP table.
func (dp *DP) Cell(p xpath.Path, a string) Cell {
	key := memoKey{p: p, a: a}
	if c, ok := dp.memo[key]; ok {
		return c
	}
	c := dp.compute(p, a)
	sort.Strings(c.Reach)
	if dp.memo == nil {
		dp.memo = make(map[memoKey]Cell)
	}
	dp.memo[key] = c
	return c
}

func (dp *DP) compute(p xpath.Path, a string) Cell {
	var c Cell
	switch p := p.(type) {
	case xpath.Empty:
	case xpath.Self: // case 1
		c.Add(a, xpath.Self{})
	case xpath.Label: // case 2
		kids, text := dp.Edges(a)
		if p.Name == xpath.TextName {
			if text != nil {
				c.Add(Text, text)
			}
			break
		}
		for _, e := range kids {
			if e.Label == p.Name {
				c.Add(e.To, e.Query)
			}
		}
	case xpath.Wildcard: // case 3
		kids, _ := dp.Edges(a)
		for _, e := range kids {
			c.Add(e.To, e.Query)
		}
	case xpath.Seq: // case 4, per target
		c1 := dp.Cell(p.Left, a)
		for _, v := range c1.Reach {
			c2 := dp.Cell(p.Right, v)
			for _, w := range c2.Reach {
				c.Add(w, xpath.MakeSeq(c1.byTarget[v], c2.byTarget[w]))
			}
		}
	case xpath.Descend: // case 5, per target
		for _, b := range dp.ReachDescend(a) {
			cb := dp.Cell(p.Sub, b)
			for _, w := range cb.Reach {
				c.Add(w, xpath.MakeSeq(dp.Recrw(a, b), cb.byTarget[w]))
			}
		}
	case xpath.Qualified:
		if _, ok := p.Sub.(xpath.Self); ok {
			return dp.lang.Case(p, a)
		}
		// p1[q] ≡ p1/ε[q]: case 4 then gives each reach target its own
		// qualifier.
		return dp.Cell(xpath.Seq{Left: p.Sub, Right: xpath.Qualified{Sub: xpath.Self{}, Cond: p.Cond}}, a)
	default:
		return dp.lang.Case(p, a)
	}
	return c
}
