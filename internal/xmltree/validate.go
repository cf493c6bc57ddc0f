package xmltree

import (
	"fmt"

	"repro/internal/dtd"
)

// Validate checks that the document conforms to the DTD per the paper's
// Section 2: the root carries the root type, every element's ordered
// child-label sequence is in the language of its production, and text
// nodes appear exactly where str productions demand them. It returns the
// first violation in document order, or nil.
//
// The walk keeps its own stack of elements, so document depth cannot
// exhaust the goroutine stack. It follows Children rather than the node
// table, so a tree edited since its last Renumber is checked as it now
// stands. Each production is looked up once per call and matched
// against the children in place: no label slice, no regex.
func Validate(doc *Document, d *dtd.DTD) error {
	if doc.Root.Kind != ElementNode || doc.Root.Label != d.Root() {
		return fmt.Errorf("xmltree: root is %q, DTD requires %q", doc.Root.Label, d.Root())
	}
	v := validator{d: d, rules: make(map[string]*rule)}
	stack := []*Node{doc.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := v.check(n); err != nil {
			return err
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			if c := n.Children[i]; c.Kind == ElementNode {
				stack = append(stack, c)
			}
		}
	}
	return nil
}

// validator holds what one Validate call has looked up in the DTD.
type validator struct {
	d        *dtd.DTD
	rules    map[string]*rule
	cur, nxt []bool // sequence-matching state sets, reused
}

// rule is one element type's production and attribute list.
type rule struct {
	content  dtd.Content
	declared bool
	attrs    []dtd.AttrDef
}

func (v *validator) rule(label string) *rule {
	r := v.rules[label]
	if r == nil {
		r = &rule{attrs: v.d.Attlist(label)}
		r.content, r.declared = v.d.Production(label)
		v.rules[label] = r
	}
	return r
}

func (v *validator) check(n *Node) error {
	r := v.rule(n.Label)
	if !r.declared {
		return fmt.Errorf("xmltree: element %s at %s is not declared in the DTD", n.Label, n.Path())
	}
	if !v.matches(r.content, n.Children) {
		return dtd.FormatSeqError(n.Path(), r.content, n.ChildLabels())
	}
	return checkAttrs(n, r.attrs, v.d)
}

// matches reports whether the children's labels spell a word of the
// content model's language (Content.Regex gives the same language).
func (v *validator) matches(c dtd.Content, kids []*Node) bool {
	switch c.Kind {
	case dtd.Empty:
		return len(kids) == 0
	case dtd.Text:
		return len(kids) == 1 && kids[0].Label == dtd.TextLabel
	case dtd.Star:
		return allLabeled(kids, c.Items[0].Name)
	case dtd.Choice:
		// One unstarred alternative matches exactly one child; a starred
		// one matches any run of its own label, the empty run included.
		for _, it := range c.Items {
			if (it.Starred || len(kids) == 1) && allLabeled(kids, it.Name) {
				return true
			}
		}
		return false
	case dtd.Seq:
		return v.sequence(c.Items, kids)
	}
	return false
}

func allLabeled(kids []*Node, label string) bool {
	for _, k := range kids {
		if k.Label != label {
			return false
		}
	}
	return true
}

// sequence matches a concatenation whose items may be starred (the view
// DTDs' compact form). It runs the position automaton: state i means
// items[:i] are matched, and a starred item may be skipped or repeated.
func (v *validator) sequence(items []dtd.Item, kids []*Node) bool {
	n := len(items)
	if cap(v.cur) < n+1 {
		v.cur, v.nxt = make([]bool, n+1), make([]bool, n+1)
	}
	cur, nxt := v.cur[:n+1], v.nxt[:n+1]
	clear(cur)
	cur[0] = true
	skipStarred(items, cur)
	for _, k := range kids {
		clear(nxt)
		live := false
		for i, it := range items {
			if cur[i] && it.Name == k.Label {
				if it.Starred {
					nxt[i] = true
				} else {
					nxt[i+1] = true
				}
				live = true
			}
		}
		if !live {
			return false
		}
		skipStarred(items, nxt)
		cur, nxt = nxt, cur
	}
	return cur[n]
}

// skipStarred closes a state set under skipping starred items.
func skipStarred(items []dtd.Item, set []bool) {
	for i, it := range items {
		if set[i] && it.Starred {
			set[i+1] = true
		}
	}
}

// checkAttrs validates an element's attributes: every attribute must be
// declared and every required attribute present.
func checkAttrs(n *Node, defs []dtd.AttrDef, d *dtd.DTD) error {
	for name := range n.Attrs {
		if _, ok := d.Attr(n.Label, name); !ok {
			return fmt.Errorf("xmltree: undeclared attribute %q on %s", name, n.Path())
		}
	}
	for _, def := range defs {
		if !def.Required {
			continue
		}
		if _, ok := n.Attr(def.Name); !ok {
			return fmt.Errorf("xmltree: required attribute %q missing on %s", def.Name, n.Path())
		}
	}
	return nil
}

// Conforms reports whether the document conforms to the DTD.
func Conforms(doc *Document, d *dtd.DTD) bool {
	return Validate(doc, d) == nil
}
