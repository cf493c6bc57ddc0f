// Package xmltree provides the in-memory ordered XML document trees that
// every other component of the system operates on: the XPath evaluator,
// the view materializer, the document generator, and the naive baseline.
//
// A document is a tree of element and text nodes (attributes are carried
// on elements; the paper's model omits them except for the naive
// baseline's accessibility attribute). Nodes know their parent, their
// ordered children, and their position in document order, which makes
// ancestor checks and document-order sorting O(1) and O(n log n)
// respectively.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// NodeKind distinguishes element nodes from text (PCDATA) nodes.
type NodeKind int

const (
	// ElementNode is an element labeled with an element type.
	ElementNode NodeKind = iota
	// TextNode is a leaf carrying PCDATA.
	TextNode
)

// Node is a single node of an XML document tree.
type Node struct {
	Kind     NodeKind
	Label    string // element type; "#text" for text nodes
	Data     string // PCDATA for text nodes
	Attrs    map[string]string
	Parent   *Node
	Children []*Node

	ord  int       // position in document order, assigned by Document.Renumber
	desc int       // number of descendants, assigned by Document.Renumber
	doc  *Document // owning document as of the last Renumber
}

// TextLabel is the label carried by text nodes.
const TextLabel = "#text"

// NewElement returns a parentless element node.
func NewElement(label string) *Node {
	return &Node{Kind: ElementNode, Label: label}
}

// NewText returns a parentless text node with the given PCDATA.
func NewText(data string) *Node {
	return &Node{Kind: TextNode, Label: TextLabel, Data: data}
}

// AppendChild adds c as the last child of n and sets c's parent.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// SetAttr sets an attribute on an element node.
func (n *Node) SetAttr(name, value string) {
	if n.Attrs == nil {
		n.Attrs = make(map[string]string, 1)
	}
	n.Attrs[name] = value
}

// Attr returns the value of an attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	v, ok := n.Attrs[name]
	return v, ok
}

// Ord returns the node's position in document order. It is only
// meaningful after Document.Renumber (which NewDocument performs).
func (n *Node) Ord() int { return n.ord }

// DescendantCount returns the number of descendants (elements + text).
// Like Ord it is only meaningful after Document.Renumber; the node's
// subtree occupies the ord range [Ord, Ord+DescendantCount].
func (n *Node) DescendantCount() int { return n.desc }

// ContainsOrd reports whether a document-order position lies inside n's
// subtree (n included). Only meaningful on a renumbered document.
func (n *Node) ContainsOrd(ord int) bool {
	return n.ord <= ord && ord <= n.ord+n.desc
}

// numbered reports whether the node's ord/desc assignment is current:
// the node belongs to a renumbered document and still sits at its
// recorded document-order slot. Nodes detached since the last Renumber
// fail the check (another node occupies their slot, or the slot is out
// of range), so interval-based fast paths degrade to walks instead of
// answering from stale numbers.
func (n *Node) numbered() bool {
	return n.doc != nil && n.ord < len(n.doc.byOrd) && n.doc.byOrd[n.ord] == n
}

// IsAncestorOf reports whether n is a strict ancestor of m. On a
// renumbered document it is O(1) interval containment — m is in n's
// subtree iff n.ord ≤ m.ord ≤ n.ord+n.desc; the parent-chain walk
// remains only as the fallback for nodes outside any renumbered
// document (hand-built trees, detached subtrees).
func (n *Node) IsAncestorOf(m *Node) bool {
	if n.doc != nil && n.doc == m.doc && n.numbered() && m.numbered() {
		return n != m && n.ContainsOrd(m.ord)
	}
	return n.isAncestorOfWalk(m)
}

// isAncestorOfWalk is the O(depth) parent-chain form of IsAncestorOf,
// exported to tests via an alias so the two can be pinned against each
// other.
func (n *Node) isAncestorOfWalk(m *Node) bool {
	for p := m.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// Owner returns the document that most recently renumbered n, or nil
// when n's numbering is stale (detached since the last Renumber, or
// never part of a document). Two nodes with the same non-nil Owner have
// mutually comparable Ord positions.
func (n *Node) Owner() *Document {
	if !n.numbered() {
		return nil
	}
	return n.doc
}

// Subtree returns the node and all its descendants in document order as
// a shared, read-only slice of the document's node table — the subtree
// of a node occupies the contiguous range [ord, ord+desc]. It returns
// nil when the node's numbering is stale (document mutated since the
// last Renumber, or never renumbered); callers must fall back to a walk
// and must not mutate a non-nil result.
func (n *Node) Subtree() []*Node {
	if !n.numbered() {
		return nil
	}
	return n.doc.byOrd[n.ord : n.ord+n.desc+1]
}

// Text returns the concatenated PCDATA of the node's text children (for
// elements) or the node's own data (for text nodes).
func (n *Node) Text() string {
	if n.Kind == TextNode {
		return n.Data
	}
	// Most elements hold at most one text child; return its data as is
	// and concatenate only for mixed content.
	var only *Node
	for _, c := range n.Children {
		if c.Kind != TextNode {
			continue
		}
		if only != nil {
			return n.concatText()
		}
		only = c
	}
	if only == nil {
		return ""
	}
	return only.Data
}

// concatText joins the data of every text child, in order.
func (n *Node) concatText() string {
	var b strings.Builder
	for _, c := range n.Children {
		if c.Kind == TextNode {
			b.WriteString(c.Data)
		}
	}
	return b.String()
}

// ChildLabels returns the labels of the node's children in order, with
// text children reported as TextLabel.
func (n *Node) ChildLabels() []string {
	labels := make([]string, len(n.Children))
	for i, c := range n.Children {
		labels[i] = c.Label
	}
	return labels
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

// Walk visits n and all its descendants in document order, stopping early
// when f returns false for a node's subtree (the node's descendants are
// skipped; the walk continues with siblings).
func (n *Node) Walk(f func(*Node) bool) {
	if !f(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Clone deep-copies the subtree rooted at n. The copy has no parent and
// unassigned document-order positions.
func (n *Node) Clone() *Node {
	cp := &Node{Kind: n.Kind, Label: n.Label, Data: n.Data}
	if n.Attrs != nil {
		cp.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			cp.Attrs[k] = v
		}
	}
	cp.Children = make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		cc := c.Clone()
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}

// Path returns the label path from the document root to n, for error
// messages and debugging.
func (n *Node) Path() string {
	var labels []string
	for m := n; m != nil; m = m.Parent {
		labels = append(labels, m.Label)
	}
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	return "/" + strings.Join(labels, "/")
}

// Document is an XML document: a root element plus cached size,
// document-order numbering, and the node table byOrd (all nodes in
// document order, so byOrd[n.Ord()] == n and a subtree is the
// contiguous range byOrd[ord : ord+desc+1]). It also owns the label
// index over that table (see Labeled) and the value dictionary (see
// Values), so every reader of one document shares one of each.
type Document struct {
	Root   *Node
	size   int
	height int
	byOrd  []*Node
	gen    uint64

	labels   atomic.Pointer[labelTable]
	labelsMu sync.Mutex // serializes label table builds

	values   atomic.Pointer[Values] // see values.go
	valuesMu sync.Mutex             // serializes value dictionary builds
}

// labelTable is the label index of a document at one generation: for
// each label, the ordinals of the nodes carrying it in document order.
type labelTable struct {
	gen     uint64
	byLabel map[string][]int32
}

// NewDocument wraps a root node into a document and assigns document
// order.
func NewDocument(root *Node) *Document {
	d := &Document{Root: root}
	d.Renumber()
	return d
}

// Renumber reassigns document-order positions and descendant counts
// after tree mutation. A node's subtree occupies the contiguous ord range
// [ord, ord+desc], which makes descendant tests O(1). The same walk
// rebuilds the byOrd node table and caches the document height, so both
// are as fresh as the numbering itself; the label index and the value
// dictionary, keyed by generation, are dropped and rebuilt on their
// next use.
func (d *Document) Renumber() {
	d.gen++
	d.labels.Store(nil)
	d.values.Store(nil)
	d.byOrd = d.byOrd[:0]
	d.height = 0
	var walk func(node *Node, depth int) int
	walk = func(node *Node, depth int) int {
		node.ord = len(d.byOrd)
		node.doc = d
		d.byOrd = append(d.byOrd, node)
		if depth > d.height {
			d.height = depth
		}
		total := 0
		for _, c := range node.Children {
			total += walk(c, depth+1)
		}
		node.desc = total
		return total + 1
	}
	walk(d.Root, 0)
	d.size = len(d.byOrd)
}

// Labeled returns the ordinals of the document's nodes carrying label,
// in document order (Nodes()[ord] is the node). The slice is shared;
// callers must not mutate it. The label index behind it is built on
// first use, once per generation, from the node table, and every later
// call reads it without locking. Postings are ordinals rather than
// pointers so the index adds nothing for the garbage collector to scan.
func (d *Document) Labeled(label string) []int32 {
	t := d.labels.Load()
	if t == nil || t.gen != d.gen {
		t = d.buildLabels()
	}
	return t.byLabel[label]
}

// buildLabels builds the label table for the current generation unless
// a concurrent caller already has. Posting lists are carved from one
// slab sized by a counting pass, each capped at its exact length.
func (d *Document) buildLabels() *labelTable {
	d.labelsMu.Lock()
	defer d.labelsMu.Unlock()
	if t := d.labels.Load(); t != nil && t.gen == d.gen {
		return t
	}
	counts := make(map[string]int)
	for _, n := range d.byOrd {
		counts[n.Label]++
	}
	t := &labelTable{gen: d.gen, byLabel: make(map[string][]int32, len(counts))}
	slab := make([]int32, len(d.byOrd))
	off := 0
	for label, c := range counts {
		t.byLabel[label] = slab[off : off : off+c]
		off += c
	}
	for ord, n := range d.byOrd {
		t.byLabel[n.Label] = append(t.byLabel[n.Label], int32(ord))
	}
	d.labels.Store(t)
	return t
}

// Size returns the number of nodes in the document (elements + text).
func (d *Document) Size() int { return d.size }

// Generation counts Renumber calls on this document. Ordinal-keyed
// storage that outlives one evaluation (the label index, the value
// dictionary) records the generation it was built against and treats a
// mismatch as stale: after any renumbering the same ordinal may name a
// different node, so a recorded ordinal set is only meaningful at its
// own generation.
func (d *Document) Generation() uint64 { return d.gen }

// Nodes returns every node in document order. The slice is the
// document's own node table, rebuilt by Renumber — callers must treat
// it as read-only.
func (d *Document) Nodes() []*Node { return d.byOrd }

// Height returns the number of edges on the longest root-to-leaf path.
// It is cached by Renumber: serving recomputed it per query before,
// and on 10k-node documents that walk alone was ~20% of serving CPU.
func (d *Document) Height() int {
	if d.byOrd != nil {
		return d.height
	}
	var h func(*Node) int
	h = func(n *Node) int {
		max := 0
		for _, c := range n.Children {
			if d := h(c) + 1; d > max {
				max = d
			}
		}
		return max
	}
	return h(d.Root)
}

// Stats summarizes a document for reporting.
type Stats struct {
	Nodes     int
	Elements  int
	TextNodes int
	Height    int
	Labels    map[string]int
}

// ComputeStats walks the document once and returns its statistics.
func (d *Document) ComputeStats() Stats {
	s := Stats{Labels: make(map[string]int)}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s.Nodes++
		if depth > s.Height {
			s.Height = depth
		}
		if n.Kind == ElementNode {
			s.Elements++
			s.Labels[n.Label]++
		} else {
			s.TextNodes++
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 0)
	return s
}

// SortDocOrder sorts nodes in place by document order and removes
// duplicates. All nodes must belong to the same renumbered document.
func SortDocOrder(nodes []*Node) []*Node {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ord < nodes[j].ord })
	out := nodes[:0]
	var prev *Node
	for _, n := range nodes {
		if n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}

// String renders the subtree rooted at n as indented XML (see
// serialize.go for the full document serializer).
func (n *Node) String() string {
	var b strings.Builder
	writeNode(&b, n, 0)
	return b.String()
}

func writeNode(b *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.Kind == TextNode {
		fmt.Fprintf(b, "%s%s\n", indent, escapeText(n.Data))
		return
	}
	b.WriteString(indent)
	b.WriteByte('<')
	b.WriteString(n.Label)
	writeAttrs(b, n)
	if len(n.Children) == 0 {
		b.WriteString("/>\n")
		return
	}
	if len(n.Children) == 1 && n.Children[0].Kind == TextNode {
		fmt.Fprintf(b, ">%s</%s>\n", escapeText(n.Children[0].Data), n.Label)
		return
	}
	b.WriteString(">\n")
	for _, c := range n.Children {
		writeNode(b, c, depth+1)
	}
	fmt.Fprintf(b, "%s</%s>\n", indent, n.Label)
}

func writeAttrs(b *strings.Builder, n *Node) {
	if len(n.Attrs) == 0 {
		return
	}
	names := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		// Attribute values are written double-quoted, so a quote in the
		// value must be escaped as well as the markup characters.
		fmt.Fprintf(b, ` %s="%s"`, k, strings.ReplaceAll(escapeText(n.Attrs[k]), `"`, "&quot;"))
	}
}

func escapeText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
