// Package access implements the paper's access specifications (Section
// 3.2): a specification S = (D, ann) extends a document DTD D with
// security annotations Y (accessible), N (inaccessible), or [q]
// (conditionally accessible, with q an XPath qualifier of the fragment C)
// on the parent/child edges of D's productions. Annotations support
// inheritance (an unannotated child takes its parent's accessibility) and
// overriding (an explicit annotation replaces it), and qualifiers may
// carry $parameters bound per user (the paper's $wardNo).
//
// The package also computes the paper's ground-truth accessibility of
// every node of a document instance (used to verify that derived security
// views are sound and complete, and by the naive baseline of Section 6 to
// annotate documents): a node v is accessible iff (1) its effective
// annotation is Y, or [q] with q true at v, and the qualifiers of all
// annotated ancestors hold, or (2) it has no explicit annotation and its
// parent is accessible.
package access

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dtd"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// AnnKind classifies a security annotation.
type AnnKind int

const (
	// Allow is the annotation Y: accessible.
	Allow AnnKind = iota
	// Deny is the annotation N: inaccessible.
	Deny
	// Cond is a conditional annotation [q].
	Cond
)

// Ann is one security annotation. Cond annotations carry the qualifier.
type Ann struct {
	Kind AnnKind
	Cond xpath.Qual
}

// String renders the annotation in specification syntax.
func (a Ann) String() string {
	switch a.Kind {
	case Allow:
		return "Y"
	case Deny:
		return "N"
	case Cond:
		return "[" + xpath.QualString(a.Cond) + "]"
	default:
		return fmt.Sprintf("Ann(%d)", int(a.Kind))
	}
}

// Edge identifies the (parent, child) production position an annotation
// attaches to. Text content uses child label dtd.TextLabel.
type Edge struct {
	Parent, Child string
}

// Spec is an access specification S = (D, ann).
type Spec struct {
	D     *dtd.DTD
	anns  map[Edge]Ann
	order []Edge
}

// NewSpec returns a specification over D with no explicit annotations
// (everything inherits the root's Y and is therefore accessible).
func NewSpec(d *dtd.DTD) *Spec {
	return &Spec{D: d, anns: make(map[Edge]Ann)}
}

// Annotate sets ann(parent, child). It fails when the edge does not exist
// in the DTD or the annotation is malformed. Attribute annotations use a
// child of the form "@name"; they support Y and N only (an attribute is
// exposed exactly when its element is accessible and the attribute is not
// denied — a conditional attribute would need per-value views the model
// does not define).
func (s *Spec) Annotate(parent, child string, a Ann) error {
	c, ok := s.D.Production(parent)
	if !ok {
		return fmt.Errorf("access: element type %q is not declared", parent)
	}
	switch {
	case strings.HasPrefix(child, "@"):
		if _, ok := s.D.Attr(parent, child[1:]); !ok {
			return fmt.Errorf("access: %q has no attribute %q", parent, child[1:])
		}
		if a.Kind == Cond {
			return fmt.Errorf("access: conditional annotation on attribute (%s, %s) is not supported", parent, child)
		}
	case child == dtd.TextLabel:
		if c.Kind != dtd.Text {
			return fmt.Errorf("access: %q has no text content to annotate", parent)
		}
	case !c.Contains(child):
		return fmt.Errorf("access: %q is not a child type of %q", child, parent)
	}
	if a.Kind == Cond && a.Cond == nil {
		return fmt.Errorf("access: conditional annotation on (%s, %s) has no qualifier", parent, child)
	}
	e := Edge{Parent: parent, Child: child}
	if _, dup := s.anns[e]; !dup {
		s.order = append(s.order, e)
	}
	s.anns[e] = a
	return nil
}

// Ann returns the explicit annotation of (parent, child) and whether one
// is defined.
func (s *Spec) Ann(parent, child string) (Ann, bool) {
	a, ok := s.anns[Edge{Parent: parent, Child: child}]
	return a, ok
}

// Edges returns the annotated edges in annotation order.
func (s *Spec) Edges() []Edge {
	return append([]Edge(nil), s.order...)
}

// Vars returns the distinct $parameters used by conditional annotations,
// sorted.
func (s *Spec) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range s.order {
		a := s.anns[e]
		if a.Kind != Cond {
			continue
		}
		probe := xpath.Qualified{Sub: xpath.Self{}, Cond: a.Cond}
		for _, v := range xpath.Vars(probe) {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Bind returns a copy of the specification with all $parameters replaced
// by their values in env (the paper's "concrete value substituted for
// $wardNo").
func (s *Spec) Bind(env map[string]string) (*Spec, error) {
	out := NewSpec(s.D)
	for _, e := range s.order {
		a := s.anns[e]
		if a.Kind == Cond {
			q, err := xpath.BindQualVars(a.Cond, env)
			if err != nil {
				return nil, fmt.Errorf("access: ann(%s, %s): %v", e.Parent, e.Child, err)
			}
			a = Ann{Kind: Cond, Cond: q}
		}
		if err := out.Annotate(e.Parent, e.Child, a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String renders the specification in the syntax accepted by
// ParseAnnotations.
func (s *Spec) String() string {
	var b strings.Builder
	for _, e := range s.order {
		child := e.Child
		if child == dtd.TextLabel {
			child = "str"
		}
		fmt.Fprintf(&b, "ann(%s, %s) = %s\n", e.Parent, child, s.anns[e])
	}
	return b.String()
}

// ParseAnnotations reads annotation lines over an existing DTD:
//
//	# nurses see only their ward
//	ann(hospital, dept) = [*/patient/wardNo = $wardNo]
//	ann(dept, clinicalTrial) = N
//	ann(clinicalTrial, patientInfo) = Y
//
// The right-hand side is Y, N, or a bracketed qualifier of the fragment
// C. The child name "str" (or "#PCDATA") annotates text content.
func ParseAnnotations(d *dtd.DTD, src string) (*Spec, error) {
	s := NewSpec(d)
	for lineno, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		lhs, rhs, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("access: line %d: expected 'ann(A, B) = ...', got %q", lineno+1, line)
		}
		lhs = strings.TrimSpace(lhs)
		if !strings.HasPrefix(lhs, "ann(") || !strings.HasSuffix(lhs, ")") {
			return nil, fmt.Errorf("access: line %d: malformed annotation target %q", lineno+1, lhs)
		}
		inner := lhs[len("ann(") : len(lhs)-1]
		parent, child, ok := strings.Cut(inner, ",")
		if !ok {
			return nil, fmt.Errorf("access: line %d: expected two names in %q", lineno+1, lhs)
		}
		parent = strings.TrimSpace(parent)
		child = strings.TrimSpace(child)
		if child == "str" || child == "#PCDATA" {
			child = dtd.TextLabel
		}
		a, err := parseAnn(strings.TrimSpace(rhs))
		if err != nil {
			return nil, fmt.Errorf("access: line %d: %v", lineno+1, err)
		}
		if err := s.Annotate(parent, child, a); err != nil {
			return nil, fmt.Errorf("access: line %d: %v", lineno+1, err)
		}
	}
	return s, nil
}

// MustParseAnnotations parses trusted annotations and panics on error.
func MustParseAnnotations(d *dtd.DTD, src string) *Spec {
	s, err := ParseAnnotations(d, src)
	if err != nil {
		panic(err)
	}
	return s
}

func parseAnn(rhs string) (Ann, error) {
	switch rhs {
	case "Y":
		return Ann{Kind: Allow}, nil
	case "N":
		return Ann{Kind: Deny}, nil
	}
	if strings.HasPrefix(rhs, "[") && strings.HasSuffix(rhs, "]") {
		q, err := xpath.ParseQual(rhs[1 : len(rhs)-1])
		if err != nil {
			return Ann{}, err
		}
		return Ann{Kind: Cond, Cond: q}, nil
	}
	return Ann{}, fmt.Errorf("annotation must be Y, N, or [qualifier]; got %q", rhs)
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// Accessibility computes the paper's node accessibility for every node of
// the document with respect to the (variable-free) specification. The
// result maps each node — elements and text — to its accessibility.
func Accessibility(s *Spec, doc *xmltree.Document) map[*xmltree.Node]bool {
	acc := make(map[*xmltree.Node]bool, doc.Size())
	// The root is annotated Y by default.
	acc[doc.Root] = true
	var walk func(v *xmltree.Node, parentAcc, ancOK bool)
	walk = func(v *xmltree.Node, parentAcc, ancOK bool) {
		for _, c := range v.Children {
			a, explicit := s.Ann(v.Label, childKey(c))
			childAcc := parentAcc
			childAncOK := ancOK
			if explicit {
				switch a.Kind {
				case Deny:
					childAcc = false
				case Allow:
					childAcc = ancOK
				case Cond:
					holds := xpath.EvalQual(a.Cond, c)
					childAcc = holds && ancOK
					childAncOK = ancOK && holds
				}
			}
			acc[c] = childAcc
			walk(c, childAcc, childAncOK)
		}
	}
	walk(doc.Root, true, true)
	return acc
}

func childKey(c *xmltree.Node) string {
	if c.Kind == xmltree.TextNode {
		return dtd.TextLabel
	}
	return c.Label
}

// AccSet records which accessibilities an element type can take across
// the (context-sensitive) positions it occurs in.
type AccSet struct {
	CanBeAccessible   bool
	CanBeInaccessible bool
}

// PossibleAccessibility propagates accessibility possibilities through
// the DTD graph: the root is accessible; an explicitly annotated edge
// forces the child's accessibility (a conditional contributes both),
// an unannotated edge inherits the parent's possibilities. The analysis
// also tracks whether a type can sit below a conditional edge: per
// Section 3.2, even an explicit Y is inaccessible when an ancestor's
// qualifier fails, so Y below a possible conditional context contributes
// CanBeInaccessible too. The result is a sound static over-approximation
// of the per-node accessibility, used by the linter and the static
// safe-query analysis.
func PossibleAccessibility(s *Spec) map[string]AccSet {
	type state struct {
		acc  AccSet
		cond bool // some root path to this type crosses a conditional edge
	}
	st := make(map[string]state, s.D.Len())
	st[s.D.Root()] = state{acc: AccSet{CanBeAccessible: true}}
	seen := map[string]bool{s.D.Root(): true}
	for changed := true; changed; {
		changed = false
		for _, parent := range s.D.Types() {
			p, ok := st[parent]
			if !ok || !seen[parent] {
				continue
			}
			for _, child := range s.D.Children(parent) {
				var c state
				c.cond = p.cond
				if a, annOk := s.Ann(parent, child); annOk {
					switch a.Kind {
					case Allow:
						c.acc.CanBeAccessible = true
						// An ancestor qualifier can still fail.
						c.acc.CanBeInaccessible = p.cond
					case Deny:
						c.acc.CanBeInaccessible = true
					case Cond:
						c.acc = AccSet{CanBeAccessible: true, CanBeInaccessible: true}
						c.cond = true
					}
				} else {
					c.acc = p.acc
				}
				merged := st[child]
				next := state{
					acc: AccSet{
						CanBeAccessible:   merged.acc.CanBeAccessible || c.acc.CanBeAccessible,
						CanBeInaccessible: merged.acc.CanBeInaccessible || c.acc.CanBeInaccessible,
					},
					cond: merged.cond || c.cond,
				}
				if next != merged || !seen[child] {
					st[child] = next
					seen[child] = true
					changed = true
				}
			}
		}
	}
	poss := make(map[string]AccSet, len(st))
	for t, v := range st {
		poss[t] = v.acc
	}
	return poss
}

// AttrAccessible reports whether one attribute of an element type is
// exposed when the element itself is accessible: explicit N hides it,
// everything else inherits the element's accessibility. An attribute can
// never be more accessible than its element (it has no standalone
// existence in the tree).
func (s *Spec) AttrAccessible(elem, attr string) bool {
	a, ok := s.Ann(elem, "@"+attr)
	return !ok || a.Kind != Deny
}

// AttrAccessibility computes per-node attribute accessibility over a
// document: for each element node, the set of its attributes that the
// specification exposes. Attributes of inaccessible elements are always
// inaccessible.
func AttrAccessibility(s *Spec, doc *xmltree.Document) map[*xmltree.Node]map[string]bool {
	acc := Accessibility(s, doc)
	out := make(map[*xmltree.Node]map[string]bool)
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if n.Kind != xmltree.ElementNode || len(n.Attrs) == 0 {
			return true
		}
		m := make(map[string]bool, len(n.Attrs))
		for name := range n.Attrs {
			m[name] = acc[n] && s.AttrAccessible(n.Label, name)
		}
		out[n] = m
		return true
	})
	return out
}
