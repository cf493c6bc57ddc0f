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
	// Qual returns the cell of ε[q] at type a. Its sub-cells come
	// through DP.Cell.
	Qual func(q xpath.Qual, a string) Cell
	// Case returns the cell of every other query form the DP does not
	// share: unions, and anything else but Empty, Self, Label, Wildcard,
	// Seq, Descend and Qualified. It computes sub-cells through DP.Cell.
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
//
// A cell holds its (target, translation) entries in place: the first
// two inline, the rest in an overflow slice, so the common cell of one
// or two targets allocates nothing of its own. Cells are values; a
// memoized cell is never modified again, so copies may share the
// overflow slice.
type Cell struct {
	n     int
	small [2]entry
	more  []entry
}

type entry struct {
	target string
	path   xpath.Path
}

// at returns the i-th entry in place.
func (c *Cell) at(i int) *entry {
	if i < len(c.small) {
		return &c.small[i]
	}
	return &c.more[i-len(c.small)]
}

// Add unions a translation into one target's entry. An empty
// translation adds nothing.
func (c *Cell) Add(target string, p xpath.Path) {
	if xpath.IsEmpty(p) {
		return
	}
	for i := 0; i < c.n; i++ {
		if e := c.at(i); e.target == target {
			e.path = xpath.MakeUnion(e.path, p)
			return
		}
	}
	if c.n < len(c.small) {
		c.small[c.n] = entry{target: target, path: p}
	} else {
		c.more = append(c.more, entry{target: target, path: p})
	}
	c.n++
}

// sort orders the entries by target in place. Cells hold few targets,
// so insertion sort does; it writes nothing when they are in order
// already, which keeps a memoized cell that a Lang case returns as is
// untouched.
func (c *Cell) sort() {
	for i := 1; i < c.n; i++ {
		for j := i; j > 0 && c.at(j).target < c.at(j-1).target; j-- {
			x, y := c.at(j), c.at(j-1)
			*x, *y = *y, *x
		}
	}
}

// Len returns the number of targets.
func (c Cell) Len() int { return c.n }

// Target returns the i-th target. A memoized cell's targets are sorted.
func (c Cell) Target(i int) string { return c.at(i).target }

// Reach returns the targets in a fresh slice.
func (c Cell) Reach() []string {
	out := make([]string, c.n)
	for i := range out {
		out[i] = c.at(i).target
	}
	return out
}

// Empty reports whether the cell selects nothing.
func (c Cell) Empty() bool { return c.n == 0 }

// Total returns rw(p', A): the union of the per-target translations, in
// target order.
func (c Cell) Total() xpath.Path {
	out := xpath.Path(xpath.Empty{})
	for i := 0; i < c.n; i++ {
		out = xpath.MakeUnion(out, c.at(i).path)
	}
	return out
}

// Union is the per-target union of two cells (case 6 of Fig. 6).
func Union(c1, c2 Cell) Cell {
	var out Cell
	for _, c := range [2]*Cell{&c1, &c2} {
		for i := 0; i < c.n; i++ {
			e := c.at(i)
			out.Add(e.target, e.path)
		}
	}
	return out
}

// compose adds prefix/w for every entry w of next: the continuation
// cell at one target, composed onto the path that leads to it.
func (c *Cell) compose(prefix xpath.Path, next Cell) {
	for i := 0; i < next.n; i++ {
		e := next.at(i)
		c.Add(e.target, xpath.MakeSeq(prefix, e.path))
	}
}

// DP holds the tables of one Rewriter or Optimizer: the per-call memo,
// and the per-type edges and recProc results, which outlive calls. It is
// not safe for concurrent use; its owner serializes calls.
type DP struct {
	lang  Lang
	memo  map[memoKey]Cell // emptied between calls
	edges map[string]typeEdges
	rec   map[string]recTable
}

// memoKey names a cell: the sub-query p at type a, or, with p nil, the
// qualifier step ε[q] at a. Keying ε[q] on its qualifier lets p1[q]
// reach the cell of ε[q] without building that step.
type memoKey struct {
	p xpath.Path
	q xpath.Qual
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

// maxKeptMemo is the largest memo, in cells, that EndCall keeps for the
// next call to reuse. A larger one is dropped, so one huge query does
// not pin its table for the life of the DP.
const maxKeptMemo = 1 << 10

// EndCall empties the memo at the end of one public call, so a plan
// never depends on the calls before it, and returns the number of cells
// it held. The memo's table is kept for the next call unless it held
// more than maxKeptMemo cells.
func (dp *DP) EndCall() int {
	n := len(dp.memo)
	if n > maxKeptMemo {
		dp.memo = nil
	} else {
		clear(dp.memo)
	}
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
	if q, ok := p.(xpath.Qualified); ok {
		if _, self := q.Sub.(xpath.Self); self {
			return dp.qualCell(q.Cond, a)
		}
	}
	return dp.memoized(memoKey{p: p, a: a})
}

// qualCell returns the cell of ε[q] at type a.
func (dp *DP) qualCell(q xpath.Qual, a string) Cell {
	return dp.memoized(memoKey{q: q, a: a})
}

func (dp *DP) memoized(key memoKey) Cell {
	if c, ok := dp.memo[key]; ok {
		return c
	}
	var c Cell
	if key.p == nil {
		c = dp.lang.Qual(key.q, key.a)
	} else {
		c = dp.compute(key.p, key.a)
	}
	c.sort()
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
		for i := 0; i < c1.n; i++ {
			v := c1.at(i)
			c.compose(v.path, dp.Cell(p.Right, v.target))
		}
	case xpath.Descend: // case 5, per target
		for _, b := range dp.ReachDescend(a) {
			if cb := dp.Cell(p.Sub, b); !cb.Empty() {
				c.compose(dp.Recrw(a, b), cb)
			}
		}
	case xpath.Qualified:
		// p1[q] ≡ p1/ε[q] (p1 ≠ ε, see Cell): case 4 then gives each
		// reach target its own qualifier.
		c1 := dp.Cell(p.Sub, a)
		for i := 0; i < c1.n; i++ {
			v := c1.at(i)
			c.compose(v.path, dp.qualCell(p.Cond, v.target))
		}
	default:
		return dp.lang.Case(p, a)
	}
	return c
}
