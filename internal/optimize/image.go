// Package optimize implements the paper's Section 5: XPath query
// optimization in the presence of a DTD. Exact optimization is
// intractable (containment with DTDs is coNP-hard to undecidable
// [Neven/Schwentick]), so the algorithms here are approximate and
// one-sided: every transformation preserves equivalence over all
// instances of the DTD, and a failed test simply leaves the query as is.
//
// Three DTD constraint classes drive the optimizer (Example 5.1):
//
//   - co-existence: a concatenation production guarantees all its children
//     exist, so provable qualifiers are removed;
//   - exclusive: a disjunction production forbids two different children
//     at once, so contradictory qualifiers collapse the query to ∅;
//   - non-existence: steps that reach no DTD node are pruned to ∅.
//
// Redundant unions and conjuncts are removed with the approximate
// containment test of Section 5.1: queries are abstracted into image
// graphs over the DTD and compared by a graph simulation that flips
// direction at qualifiers. Two refinements over the paper's literal
// definition keep the test sound (the paper's own property, Prop. 5.1,
// demands soundness): image nodes are per-occurrence rather than merged
// per label across unrelated branches (merging can manufacture label
// paths neither query has), and the simulation must map frontier
// (selected) nodes to frontier nodes — without this, the single-node
// image of ε would be "simulated by" any image rooted at the same type.
package optimize

import (
	"repro/internal/dtd"
	"repro/internal/typedp"
	"repro/internal/xpath"
)

// inode is one occurrence node of an image graph. Spine nodes created for
// '//' steps are shared per label inside their spine (the descendant
// closure is exactly "any path", so merging is lossless there); all other
// composition keeps occurrences separate.
//
// An occurrence's qualifiers play two roles in the simulation. In a
// containing image they are demands, and quals lists them all. In a
// contained image they are guarantees, and held lists only those that
// hold at every node the query selects through the occurrence. The two
// differ only where union branches merge (mergeRoots): each branch's
// qualifiers are demands of the union, but a branch's qualifier is no
// guarantee for the nodes the other branches select.
type inode struct {
	label    string
	kids     []*inode
	quals    []qualAt
	held     []qualAt
	frontier bool
	// seen is the last walk that visited the node, and live the last
	// pruneDead that found it live (inodes.walk numbers both).
	seen, live uint64
}

// inodes is an Optimizer's image-graph node storage. A public call takes
// its nodes in order and unlock gives them all back, so later builds
// reuse the nodes, and the kid and qualifier arrays they grew, instead
// of allocating them. Walks over a graph stamp the nodes they visit
// with a fresh walk number instead of keeping a visited set.
type inodes struct {
	chunks [][]inode
	used   int
	walks  uint64
}

const (
	// inodeChunk is how many nodes the storage grows by at once.
	inodeChunk = 256
	// maxKeptChunks bounds the storage a call leaves for the next: the
	// nodes of a larger call are left to the collector. A churn plan
	// build takes at most 283 nodes.
	maxKeptChunks = 4
)

// get returns a fresh node. A reused node keeps the arrays of its kids
// and qualifiers, emptied.
func (s *inodes) get(label string) *inode {
	c, i := s.used/inodeChunk, s.used%inodeChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]inode, inodeChunk))
	}
	s.used++
	n := &s.chunks[c][i]
	*n = inode{label: label, kids: n.kids[:0], quals: n.quals[:0], held: n.held[:0]}
	return n
}

// reset gives every node back, at the end of a public call.
func (s *inodes) reset() {
	if len(s.chunks) > maxKeptChunks {
		s.chunks = s.chunks[:maxKeptChunks]
	}
	s.used = 0
}

// walk returns a walk number no node carries yet.
func (s *inodes) walk() uint64 {
	s.walks++
	return s.walks
}

// addQuals gives n the qualifiers of m, in both roles.
func (n *inode) addQuals(m *inode) {
	n.quals = append(n.quals, m.quals...)
	n.held = append(n.held, m.held...)
}

// qualAt is a qualifier attached to an occurrence, kept as AST so that
// the simulation's qualifier rule can use a precise implication test.
type qualAt struct {
	q  xpath.Qual
	at string // DTD type the qualifier is evaluated at
}

// imageBudget caps image construction; larger images abort the build and
// the caller skips the (purely optional) containment test.
const imageBudget = 4096

// builder tracks allocation against the budget.
type builder struct {
	o        *Optimizer
	overflow bool
	size     int
}

func (b *builder) node(label string) *inode {
	b.size++
	if b.size > imageBudget {
		b.overflow = true
	}
	return b.o.nodes.get(label)
}

// image computes the image graph image(p, A) and returns its root, the
// occurrence labeled A; its frontier occurrences are those p selects.
// ok is false when construction overflowed the budget (callers must then
// skip containment tests); a nil graph with ok true means p provably
// selects nothing at A.
func (o *Optimizer) image(p xpath.Path, a string) (*inode, bool) {
	b := &builder{o: o}
	root := b.build(p, a)
	if b.overflow {
		return nil, false
	}
	if root == nil || !o.nodes.pruneDead(root) {
		return nil, true
	}
	return root, true
}

// build returns the occurrence tree of p at type a, or nil when empty.
func (b *builder) build(p xpath.Path, a string) *inode {
	if b.overflow {
		return nil
	}
	o := b.o
	switch p := p.(type) {
	case xpath.Empty:
		return nil
	case xpath.Self:
		n := b.node(a)
		n.frontier = true
		return n
	case xpath.Label:
		if p.Name == xpath.TextName {
			if c, ok := o.d.Production(a); ok && c.Kind == dtd.Text {
				n := b.node(a)
				leaf := b.node(typedp.Text)
				leaf.frontier = true
				n.kids = append(n.kids, leaf)
				return n
			}
			return nil
		}
		if !o.d.HasChild(a, p.Name) {
			return nil
		}
		n := b.node(a)
		leaf := b.node(p.Name)
		leaf.frontier = true
		n.kids = append(n.kids, leaf)
		return n
	case xpath.Wildcard:
		kids := o.d.Children(a)
		if len(kids) == 0 {
			return nil
		}
		n := b.node(a)
		for _, k := range kids {
			leaf := b.node(k)
			leaf.frontier = true
			n.kids = append(n.kids, leaf)
		}
		return n
	case xpath.Seq:
		return b.then(b.build(p.Left, a), p.Right, nil)
	case xpath.Descend:
		n := b.node(a)
		fromA := o.d.Reachable(a)
		spine := make(map[string]*inode) // per-label sharing inside the spine
		spine[a] = n
		// cover extends the spine over every DTD edge on paths a→t and
		// returns the spine node for t.
		cover := func(t string) *inode {
			toT := o.reachingSet(t)
			for x := range fromA {
				if !toT[x] {
					continue
				}
				nx, ok := spine[x]
				if !ok {
					nx = b.node(x)
					spine[x] = nx
				}
				for _, y := range o.d.Children(x) {
					if !toT[y] {
						continue
					}
					ny, ok := spine[y]
					if !ok {
						ny = b.node(y)
						spine[y] = ny
					}
					if !hasKid(nx, ny) {
						nx.kids = append(nx.kids, ny)
					}
				}
			}
			return spine[t]
		}
		for _, t := range o.dp.ReachDescend(a) {
			sub := b.build(p.Sub, t)
			if sub == nil {
				continue
			}
			var nt *inode
			if t == typedp.Text && a != typedp.Text {
				// Text has no DTD type to reach: one text leaf, shared
				// like any spine node, hangs under every text-typed type.
				// Types in sorted order keep the kid order reproducible.
				nt = b.node(typedp.Text)
				for _, x := range o.dp.ReachDescend(a) {
					if c, ok := o.d.Production(x); ok && c.Kind == dtd.Text {
						nx := cover(x)
						nx.kids = append(nx.kids, nt)
					}
				}
			} else {
				nt = cover(t)
			}
			// Splice sub at the spine node for t.
			nt.kids = append(nt.kids, sub.kids...)
			nt.addQuals(sub)
			if sub.frontier {
				nt.frontier = true
			}
			if b.overflow {
				return nil
			}
		}
		return n
	case xpath.Union:
		g1 := b.build(p.Left, a)
		g2 := b.build(p.Right, a)
		if g1 == nil {
			return g2
		}
		if g2 == nil {
			return g1
		}
		return o.nodes.mergeRoots(a, g1, g2)
	case xpath.Qualified:
		if _, ok := p.Sub.(xpath.Self); !ok {
			// p1[q] is p1/ε[q], continued without boxing that split.
			return b.then(b.build(p.Sub, a), nil, p.Cond)
		}
		return b.selfQual(p.Cond, a)
	case xpath.Rec:
		// A nil return means "provably empty", which simulate treats as
		// contained in everything — unsound for an automaton the image
		// abstraction cannot model. Overflow instead, which skips the
		// containment test for this branch pair.
		b.overflow = true
		return nil
	default:
		return nil
	}
}

// then continues the image g1 of a query p1 into the image of p1/p2, or
// of p1/ε[cond] when p2 is nil: each frontier occurrence is replaced
// with the continuation's image at its label; dead continuations leave
// dead branches pruned later. Spine sharing makes the graph a DAG (or
// cyclic for recursive DTDs), so each occurrence is visited exactly
// once — re-visiting would consume the frontier of freshly spliced
// continuations.
func (b *builder) then(g1 *inode, p2 xpath.Path, cond xpath.Qual) *inode {
	if g1 != nil {
		b.attach(g1, p2, cond, b.o.nodes.walk())
	}
	return g1
}

func (b *builder) attach(n *inode, p2 xpath.Path, cond xpath.Qual, walk uint64) {
	if n.seen == walk {
		return
	}
	n.seen = walk
	for _, k := range n.kids {
		b.attach(k, p2, cond, walk)
	}
	if !n.frontier {
		return
	}
	n.frontier = false
	var g2 *inode
	if p2 != nil {
		g2 = b.build(p2, n.label)
	} else {
		g2 = b.selfQual(cond, n.label)
	}
	if g2 == nil {
		return
	}
	// g2's root is the same occurrence as n: splice its content.
	n.kids = append(n.kids, g2.kids...)
	n.addQuals(g2)
	n.frontier = g2.frontier
}

// selfQual is build's case ε[q] at type a.
func (b *builder) selfQual(q xpath.Qual, a string) *inode {
	if b.overflow {
		return nil
	}
	tv, simplified := b.o.optQual(q, a)
	if tv == tvFalse {
		return nil
	}
	n := b.node(a)
	n.frontier = true
	if tv == tvUnknown {
		n.quals = append(n.quals, qualAt{q: simplified, at: a})
		n.held = append(n.held, qualAt{q: simplified, at: a})
	}
	return n
}

// mergeRoots merges the root occurrences of union branches' images into
// a fresh root; the branches stay separate below it. The roots are left
// as they are: a '//' branch's spine can loop back to its own root on a
// recursive DTD, and that edge must not reach the other branches'
// content (merging in place would let the image claim paths such as
// a/b/a/c for //b ∪ c, proving //c ⊑ //b ∪ c).
//
// The merged root demands every branch's qualifiers but holds only
// those all branches hold: in .[a/d]/a/b ∪ a/c, the a/c nodes need no
// a/d, so the union must not prove itself contained in .[a/d]/a/(b ∪ c).
func (s *inodes) mergeRoots(a string, roots ...*inode) *inode {
	n := s.get(a)
	for i, r := range roots {
		n.kids = append(n.kids, r.kids...)
		n.quals = append(n.quals, r.quals...)
		n.frontier = n.frontier || r.frontier
		if i == 0 {
			n.held = append(n.held, r.held...)
		} else {
			n.held = commonQuals(n.held, r.held)
		}
	}
	return n
}

// commonQuals keeps the qualifiers of held that other holds as well,
// reusing held's array.
func commonQuals(held, other []qualAt) []qualAt {
	kept := held[:0]
	for _, x := range held {
		for _, y := range other {
			if x.at == y.at && xpath.QualEqual(x.q, y.q) {
				kept = append(kept, x)
				break
			}
		}
	}
	return kept
}

func hasKid(n, k *inode) bool {
	for _, c := range n.kids {
		if c == k {
			return true
		}
	}
	return false
}

// pruneDead removes branches that reach no frontier occurrence; it
// reports whether the root survives. A dead root keeps only its
// qualifiers. Spine sharing can make the graph cyclic for recursive
// DTDs, so liveness is a fixpoint: rounds of walks, each marking live
// the nodes that reach a frontier one, until a round marks none (at most
// |nodes| rounds, in practice one or two). A node met again within a
// round, on a cycle, counts as what earlier rounds found it.
func (s *inodes) pruneDead(root *inode) bool {
	p := pruner{live: s.walk()}
	for {
		p.round, p.marked = s.walk(), 0
		p.visit(root)
		if p.marked == 0 {
			break
		}
	}
	p.strip(root, s.walk())
	return root.live == p.live
}

// pruner is one pruneDead: live stamps the nodes it found live, round
// the current round's walk, and marked counts the nodes the round
// found live first.
type pruner struct {
	live, round uint64
	marked      int
}

func (p *pruner) visit(n *inode) bool {
	if n.seen == p.round {
		return n.live == p.live
	}
	n.seen = p.round
	ok := n.frontier
	for _, k := range n.kids {
		if p.visit(k) {
			ok = true
		}
	}
	if ok && n.live != p.live {
		n.live = p.live
		p.marked++
	}
	return ok
}

// strip drops the dead kids of every node reachable from n.
func (p *pruner) strip(n *inode, walk uint64) {
	if n.seen == walk {
		return
	}
	n.seen = walk
	kept := n.kids[:0]
	for _, k := range n.kids {
		if k.live == p.live {
			kept = append(kept, k)
			p.strip(k, walk)
		}
	}
	n.kids = kept
}

// reachingSet returns the DTD types from which b is reachable (b
// included), cached per target.
func (o *Optimizer) reachingSet(b string) map[string]bool {
	if s, ok := o.reaching[b]; ok {
		return s
	}
	s := make(map[string]bool)
	for _, t := range o.d.Types() {
		if o.d.Reachable(t)[b] {
			s[t] = true
		}
	}
	o.reaching[b] = s
	return s
}
