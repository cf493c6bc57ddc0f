// Package dtd implements Document Type Definitions in the normal form used
// by "Secure XML Querying with Security Views" (SIGMOD 2004), Section 2.
//
// A DTD is a triple (Ele, Rg, r): a finite set of element types, a root
// type r, and for each type A a production Rg(A) of one of the forms
//
//	str | ε | B1,...,Bn | B1+...+Bn | B*
//
// i.e. PCDATA, empty, concatenation, disjunction, or Kleene star. Every
// DTD can be brought into this form by introducing new element types; the
// package also parses general <!ELEMENT> content models and normalizes
// them (see elementparse.go).
//
// The package additionally models the paper's DTD graph: nodes are element
// types, edges the parent/child relation, with starred and disjunctive
// edges distinguished. View DTDs produced by the derivation algorithm may
// carry a per-item star inside a concatenation (the "compact form" of the
// paper's Example 3.4); document DTDs are kept in strict normal form.
package dtd

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies the shape of a production's content model.
type Kind int

const (
	// Empty is the ε production: the element has no children.
	Empty Kind = iota
	// Text is the str production: the element contains exactly one text node.
	Text
	// Seq is a concatenation B1,...,Bn.
	Seq
	// Choice is a disjunction B1+...+Bn.
	Choice
	// Star is a Kleene star B*.
	Star
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Empty:
		return "empty"
	case Text:
		return "text"
	case Seq:
		return "sequence"
	case Choice:
		return "choice"
	case Star:
		return "star"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Item is one position of a content model: an element-type name with an
// optional star. Starred items inside sequences only arise in view DTDs
// (the compact form produced by view derivation); strict normal-form
// document DTDs never set Starred except through the Star kind itself.
type Item struct {
	Name    string
	Starred bool
}

// String renders the item, with a trailing '*' when starred.
func (it Item) String() string {
	if it.Starred {
		return it.Name + "*"
	}
	return it.Name
}

// Content is the right-hand side of a production.
type Content struct {
	Kind  Kind
	Items []Item
}

// EmptyContent returns the ε content model.
func EmptyContent() Content { return Content{Kind: Empty} }

// TextContent returns the str (PCDATA) content model.
func TextContent() Content { return Content{Kind: Text} }

// SeqContent returns a concatenation of the given element types.
func SeqContent(names ...string) Content {
	return Content{Kind: Seq, Items: itemsOf(names)}
}

// ChoiceContent returns a disjunction of the given element types.
func ChoiceContent(names ...string) Content {
	return Content{Kind: Choice, Items: itemsOf(names)}
}

// StarContent returns the Kleene star of a single element type.
func StarContent(name string) Content {
	return Content{Kind: Star, Items: []Item{{Name: name}}}
}

func itemsOf(names []string) []Item {
	items := make([]Item, len(names))
	for i, n := range names {
		items[i] = Item{Name: n}
	}
	return items
}

// Names returns the element-type names referenced by the content model, in
// order, without deduplication.
func (c Content) Names() []string {
	names := make([]string, 0, len(c.Items))
	for _, it := range c.Items {
		names = append(names, it.Name)
	}
	return names
}

// Contains reports whether the content model references the element type.
func (c Content) Contains(name string) bool {
	for _, it := range c.Items {
		if it.Name == name {
			return true
		}
	}
	return false
}

// String renders the content model in the package's compact syntax.
func (c Content) String() string {
	switch c.Kind {
	case Empty:
		return "EMPTY"
	case Text:
		return "#PCDATA"
	case Star:
		return c.Items[0].Name + "*"
	case Seq:
		parts := make([]string, len(c.Items))
		for i, it := range c.Items {
			parts[i] = it.String()
		}
		return strings.Join(parts, ", ")
	case Choice:
		parts := make([]string, len(c.Items))
		for i, it := range c.Items {
			parts[i] = it.String()
		}
		return strings.Join(parts, " + ")
	default:
		return fmt.Sprintf("<invalid kind %d>", int(c.Kind))
	}
}

// clone returns a deep copy of the content model.
func (c Content) clone() Content {
	cp := Content{Kind: c.Kind}
	cp.Items = append([]Item(nil), c.Items...)
	return cp
}

// DTD is a document type definition in (extended) normal form.
type DTD struct {
	root     string
	prods    map[string]Content
	order    []string
	attlists map[string][]AttrDef
}

// New returns an empty DTD with the given root element type. The root's
// production must be set before the DTD is used.
func New(root string) *DTD {
	return &DTD{root: root, prods: make(map[string]Content)}
}

// Root returns the root element type.
func (d *DTD) Root() string { return d.root }

// SetProduction defines (or redefines) the production of an element type.
func (d *DTD) SetProduction(name string, c Content) {
	if _, ok := d.prods[name]; !ok {
		d.order = append(d.order, name)
	}
	d.prods[name] = c
}

// Production returns the content model of an element type. The boolean is
// false when the type is not declared.
func (d *DTD) Production(name string) (Content, bool) {
	c, ok := d.prods[name]
	return c, ok
}

// MustProduction returns the content model of a declared element type and
// panics when the type is undeclared. It is intended for algorithm
// internals that run on validated DTDs.
func (d *DTD) MustProduction(name string) Content {
	c, ok := d.prods[name]
	if !ok {
		panic(fmt.Sprintf("dtd: element type %q is not declared", name))
	}
	return c
}

// Has reports whether the element type is declared.
func (d *DTD) Has(name string) bool {
	_, ok := d.prods[name]
	return ok
}

// Types returns all declared element types in declaration order.
func (d *DTD) Types() []string {
	return append([]string(nil), d.order...)
}

// Len returns the number of declared element types.
func (d *DTD) Len() int { return len(d.prods) }

// Size returns |D| as used in the paper's complexity bounds: the total
// number of productions plus content-model positions plus attribute
// declarations.
func (d *DTD) Size() int {
	n := len(d.prods)
	for _, c := range d.prods {
		n += len(c.Items)
	}
	for _, defs := range d.attlists {
		n += len(defs)
	}
	return n
}

// Children returns the distinct child element types of A, in content-model
// order.
func (d *DTD) Children(name string) []string {
	c, ok := d.prods[name]
	if !ok {
		return nil
	}
	seen := make(map[string]bool, len(c.Items))
	var out []string
	for _, it := range c.Items {
		if !seen[it.Name] {
			seen[it.Name] = true
			out = append(out, it.Name)
		}
	}
	return out
}

// HasChild reports whether B appears in A's content model.
func (d *DTD) HasChild(a, b string) bool {
	c, ok := d.prods[a]
	return ok && c.Contains(b)
}

// Reachable returns the set of element types reachable from start
// (inclusive) through the parent/child relation.
func (d *DTD) Reachable(start string) map[string]bool {
	seen := make(map[string]bool)
	var walk func(string)
	walk = func(a string) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, b := range d.Children(a) {
			walk(b)
		}
	}
	if d.Has(start) {
		walk(start)
	}
	return seen
}

// IsRecursive reports whether any element type is defined in terms of
// itself, directly or indirectly (i.e. the DTD graph has a cycle reachable
// from the root).
func (d *DTD) IsRecursive() bool {
	return len(d.RecursiveTypes()) > 0
}

// RecursiveTypes returns the set of element types that lie on a cycle of
// the DTD graph.
func (d *DTD) RecursiveTypes() map[string]bool {
	// Tarjan SCC: a type is recursive when its SCC has size > 1 or it has a
	// self-loop.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	recursive := make(map[string]bool)

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range d.Children(v) {
			if !d.Has(w) {
				continue
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				for _, w := range comp {
					recursive[w] = true
				}
			} else if d.HasChild(comp[0], comp[0]) {
				recursive[comp[0]] = true
			}
		}
	}
	for _, v := range d.order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return recursive
}

// Clone returns a deep copy of the DTD.
func (d *DTD) Clone() *DTD {
	cp := New(d.root)
	for _, name := range d.order {
		cp.SetProduction(name, d.prods[name].clone())
	}
	for elem, defs := range d.attlists {
		cp.SetAttlist(elem, defs)
	}
	return cp
}

// Check validates internal consistency: the root is declared, and every
// element type referenced from a content model is declared.
func (d *DTD) Check() error {
	if !d.Has(d.root) {
		return fmt.Errorf("dtd: root element type %q is not declared", d.root)
	}
	var missing []string
	seen := make(map[string]bool)
	for _, a := range d.order {
		c := d.prods[a]
		switch c.Kind {
		case Empty, Text:
			if len(c.Items) != 0 {
				return fmt.Errorf("dtd: %s production of %q must not reference element types", c.Kind, a)
			}
		case Star:
			if len(c.Items) != 1 {
				return fmt.Errorf("dtd: star production of %q must reference exactly one element type", a)
			}
		case Seq, Choice:
			if len(c.Items) == 0 {
				return fmt.Errorf("dtd: %s production of %q has no element types", c.Kind, a)
			}
		default:
			return fmt.Errorf("dtd: production of %q has invalid kind %d", a, int(c.Kind))
		}
		for _, it := range c.Items {
			if !d.Has(it.Name) && !seen[it.Name] {
				seen[it.Name] = true
				missing = append(missing, fmt.Sprintf("%s (referenced by %s)", it.Name, a))
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("dtd: undeclared element types: %s", strings.Join(missing, ", "))
	}
	return d.checkAttlists()
}

// IsStrictNormalForm reports whether the DTD is in the strict normal form
// of the paper's Section 2 (no starred items inside sequences or choices).
func (d *DTD) IsStrictNormalForm() bool {
	for _, a := range d.order {
		c := d.prods[a]
		if c.Kind == Seq || c.Kind == Choice {
			for _, it := range c.Items {
				if it.Starred {
					return false
				}
			}
		}
	}
	return true
}

// String renders the DTD in the package's compact text syntax, parseable
// by Parse.
func (d *DTD) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "root %s\n", d.root)
	for _, a := range d.order {
		fmt.Fprintf(&b, "%s -> %s\n", a, d.prods[a])
	}
	b.WriteString(d.attlistString())
	return b.String()
}
