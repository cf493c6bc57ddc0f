package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/dtd"
)

// OracleParse is the reference loader the one-pass loader is tested
// against: encoding/xml's token stream built into a pointer tree, kept
// whole as NewDocument plus Compact. Each CharData token that is not
// whitespace only becomes one text node; names are the local parts.
func OracleParse(s string) (*Document, error) {
	dec := xml.NewDecoder(strings.NewReader(s))
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %v", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				n.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: text outside the root element")
			}
			stack[len(stack)-1].AppendChild(NewText(s))
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed elements")
	}
	doc := NewDocument(root)
	doc.Compact()
	return doc, nil
}

// ValidateRef is the reference validator Validate is tested against: a
// recursive walk that matches each element's child-label slice against
// its production's regular expression by derivatives.
func ValidateRef(doc *Document, d *dtd.DTD) error {
	if doc.Root.Kind != ElementNode || doc.Root.Label != d.Root() {
		return fmt.Errorf("xmltree: root is %q, DTD requires %q", doc.Root.Label, d.Root())
	}
	var check func(n *Node) error
	check = func(n *Node) error {
		c, ok := d.Production(n.Label)
		if !ok {
			return fmt.Errorf("xmltree: element %s at %s is not declared in the DTD", n.Label, n.Path())
		}
		labels := n.ChildLabels()
		if !c.MatchContent(labels) {
			return dtd.FormatSeqError(n.Path(), c, labels)
		}
		if err := checkAttrs(n, d.Attlist(n.Label), d); err != nil {
			return err
		}
		for _, child := range n.Children {
			if child.Kind == ElementNode {
				if err := check(child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return check(doc.Root)
}
