package secview

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/dtd"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Materialized is the result of materializing a security view over a
// document: the view tree T_v plus the correspondence between view nodes
// and the document nodes they expose.
//
// In the paper's framework views are never materialized on the query
// path; materialization defines the view's semantics (Section 3.3) and is
// used by the soundness/completeness checkers and by the equivalence
// tests for query rewriting.
type Materialized struct {
	// View is the materialized view document T_v.
	View *xmltree.Document
	// DocOf maps every view node to the document node it was extracted
	// from. Dummy view nodes map to the inaccessible node they relabel.
	DocOf map[*xmltree.Node]*xmltree.Node
	// IsDummy marks view nodes carrying dummy labels.
	IsDummy map[*xmltree.Node]bool
}

// AbortError reports that the paper's materialization semantics aborted:
// a concatenation, disjunction, or text production was not matched by
// exactly the required accessible nodes (Section 3.3). Per Theorem 3.2 a
// sound and complete view exists iff materialization never aborts over
// instances of D.
type AbortError struct {
	ViewType string // view element type being expanded
	Child    string // child entry whose extraction failed
	Reason   string
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("secview: materialization aborted at %s (child %s): %s", e.ViewType, e.Child, e.Reason)
}

// Materialize computes T_v for the document per the paper's top-down
// semantics: starting from the root, each view production's σ queries
// extract the children of the current node, keeping only nodes accessible
// w.r.t. the specification; concatenation and disjunction productions
// abort unless matched exactly. Dummy children relabel the extracted
// (inaccessible) node and are exempt from the accessibility filter — they
// expose structure, never the hidden label or content.
func Materialize(v *View, doc *xmltree.Document) (*Materialized, error) {
	return materialize(v, doc, false)
}

// MaterializeLenient materializes with the abort conditions relaxed: an
// unmatched concatenation entry is skipped, an over-matched one keeps the
// first node, and an unmatched disjunction yields no child. The result
// may not conform to the view DTD; it is intended for administrator
// tooling that wants to inspect a view of a document for which no sound
// and complete view exists (Theorem 3.2), never for the checkers.
func MaterializeLenient(v *View, doc *xmltree.Document) (*Materialized, error) {
	return materialize(v, doc, true)
}

func materialize(v *View, doc *xmltree.Document, lenient bool) (*Materialized, error) {
	if doc.Root.Label != v.Doc.Root() {
		return nil, fmt.Errorf("secview: document root %q does not match DTD root %q", doc.Root.Label, v.Doc.Root())
	}
	acc := access.Accessibility(v.Spec, doc)
	m := &Materialized{
		DocOf:   make(map[*xmltree.Node]*xmltree.Node),
		IsDummy: make(map[*xmltree.Node]bool),
	}
	root := xmltree.NewElement(v.DTD.Root())
	m.DocOf[root] = doc.Root
	e := &expander{v: v, acc: acc, m: m, lenient: lenient}
	e.copyAttrs(root, doc.Root)
	if err := e.expand(root, doc.Root); err != nil {
		return nil, err
	}
	m.View = xmltree.NewDocument(root)
	return m, nil
}

// expander carries the materialization state down the view tree.
type expander struct {
	v       *View
	acc     map[*xmltree.Node]bool
	m       *Materialized
	lenient bool
}

// expand generates the children of view node vn (labeled with a view type
// whose document context is dn) and recurses.
func (e *expander) expand(vn, dn *xmltree.Node) error {
	a := vn.Label
	prod, ok := e.v.DTD.Production(a)
	if !ok {
		return fmt.Errorf("secview: view type %q has no production", a)
	}
	switch prod.Kind {
	case dtd.Empty:
		return nil
	case dtd.Text:
		p := e.v.MustSigma(a, dtd.TextLabel)
		res := accessible(evalSigma(p, dn), e.acc)
		if len(res) != 1 || res[0].Kind != xmltree.TextNode {
			if e.lenient {
				return nil
			}
			return &AbortError{ViewType: a, Child: "str", Reason: fmt.Sprintf("σ returned %d accessible text nodes, need exactly 1", len(res))}
		}
		txt := xmltree.NewText(res[0].Data)
		vn.AppendChild(txt)
		e.m.DocOf[txt] = res[0]
		return nil
	case dtd.Star:
		it := prod.Items[0]
		return e.expandStarred(vn, dn, it.Name)
	case dtd.Seq:
		for _, it := range prod.Items {
			if it.Starred {
				if err := e.expandStarred(vn, dn, it.Name); err != nil {
					return err
				}
				continue
			}
			res := e.extract(a, it.Name, dn)
			if len(res) != 1 {
				if e.lenient {
					if len(res) == 0 {
						continue
					}
					res = res[:1]
				} else {
					return &AbortError{ViewType: a, Child: it.Name, Reason: fmt.Sprintf("σ returned %d usable nodes, need exactly 1", len(res))}
				}
			}
			if err := e.attach(vn, it.Name, res[0]); err != nil {
				return err
			}
		}
		return nil
	case dtd.Choice:
		matched := ""
		var node *xmltree.Node
		for _, it := range prod.Items {
			res := e.extract(a, it.Name, dn)
			if len(res) == 0 {
				continue
			}
			if len(res) > 1 || matched != "" {
				if e.lenient {
					if matched == "" {
						matched, node = it.Name, res[0]
					}
					continue
				}
				return &AbortError{ViewType: a, Child: it.Name, Reason: "disjunction matched more than one alternative"}
			}
			matched = it.Name
			node = res[0]
		}
		if matched == "" {
			if e.lenient {
				return nil
			}
			return &AbortError{ViewType: a, Child: prod.String(), Reason: "disjunction matched no alternative"}
		}
		return e.attach(vn, matched, node)
	default:
		return fmt.Errorf("secview: view production of %q has invalid kind", a)
	}
}

// expandStarred extracts all usable nodes for a starred entry and attaches
// them in document order (Section 3.3 case 5: inaccessible nodes are
// silently dropped, never an abort).
func (e *expander) expandStarred(vn, dn *xmltree.Node, child string) error {
	for _, res := range e.extract(vn.Label, child, dn) {
		if err := e.attach(vn, child, res); err != nil {
			return err
		}
	}
	return nil
}

// extract evaluates σ(parent, child) at the document context and filters
// by accessibility (dummies exempt, see Materialize).
func (e *expander) extract(parent, child string, dn *xmltree.Node) []*xmltree.Node {
	res := evalSigma(e.v.MustSigma(parent, child), dn)
	if e.v.IsDummy(child) {
		return res
	}
	return accessible(res, e.acc)
}

// evalSigma evaluates a σ path at one document node with the reference
// evaluator: the materialized view is the definition served answers are
// checked against, so it must not share the evaluator that serves them.
// σ paths of a bound view have no variables, so an error is a bug.
func evalSigma(p xpath.Path, dn *xmltree.Node) []*xmltree.Node {
	res, err := xpath.EvalRef(p, []*xmltree.Node{dn})
	if err != nil {
		panic("secview: " + err.Error())
	}
	return res
}

// attach creates the view child for an extracted document node and
// recurses into it.
func (e *expander) attach(vn *xmltree.Node, child string, dnChild *xmltree.Node) error {
	cn := xmltree.NewElement(child)
	vn.AppendChild(cn)
	e.m.DocOf[cn] = dnChild
	if e.v.IsDummy(child) {
		e.m.IsDummy[cn] = true
	} else {
		e.copyAttrs(cn, dnChild)
	}
	return e.expand(cn, dnChild)
}

// copyAttrs carries the document node's exposed attributes onto the view
// node: only attributes the view DTD declares for this type (denied ones
// were dropped by derive's attlist projection).
func (e *expander) copyAttrs(vn, dn *xmltree.Node) {
	for _, def := range e.v.DTD.Attlist(vn.Label) {
		if val, ok := dn.Attr(def.Name); ok {
			vn.SetAttr(def.Name, val)
		}
	}
}

func accessible(nodes []*xmltree.Node, acc map[*xmltree.Node]bool) []*xmltree.Node {
	var out []*xmltree.Node
	for _, n := range nodes {
		if acc[n] {
			out = append(out, n)
		}
	}
	return out
}
