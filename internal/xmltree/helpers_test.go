package xmltree

// Node and document helpers that only tests use. The interval forms
// (Subtree, IsAncestorOf) read the numbering Renumber assigns, so the
// arena tests pin that numbering against plain tree walks through them.

// MustParseString parses trusted XML and panics on error.
func MustParseString(s string) *Document {
	d, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return d
}

// ElementChildren returns the node's element children in order.
func (n *Node) ElementChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// Subtree returns the node and all its descendants in document order as
// a shared, read-only slice of the document's node table — the subtree
// of a node occupies the contiguous range [ord, ord+desc]. It returns
// nil when the node's numbering is stale (document mutated since the
// last Renumber, or never renumbered).
func (n *Node) Subtree() []*Node {
	if !n.numbered() {
		return nil
	}
	return n.doc.byOrd[n.ord : n.ord+n.desc+1]
}

// IsAncestorOf reports whether n is a strict ancestor of m. On a
// renumbered document it is interval containment — m is in n's subtree
// iff n.ord ≤ m.ord ≤ n.ord+n.desc; nodes outside any renumbered
// document (hand-built trees, detached subtrees) fall back to the
// parent-chain walk.
func (n *Node) IsAncestorOf(m *Node) bool {
	if n.doc != nil && n.doc == m.doc && n.numbered() && m.numbered() {
		return n != m && n.ord <= m.ord && m.ord <= n.ord+n.desc
	}
	return n.isAncestorOfWalk(m)
}

// isAncestorOfWalk is the parent-chain form of IsAncestorOf.
func (n *Node) isAncestorOfWalk(m *Node) bool {
	for p := m.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}
