package dtd

import (
	"fmt"
	"strings"
)

// TextLabel is the pseudo-label carried by text nodes when a child-label
// sequence is matched against a content model.
const TextLabel = "#text"

// Regex is a general regular expression over element-type names, used to
// represent arbitrary <!ELEMENT> content models before normalization and
// to match child sequences during document validation. The paper's normal
// form is the subset produced by Content.Regex.
type Regex interface {
	isRegex()
	String() string
}

// RNone is the empty language (matches nothing).
type RNone struct{}

// REpsilon matches only the empty sequence.
type REpsilon struct{}

// RText matches a single text node (#PCDATA).
type RText struct{}

// RName matches a single element of the given type.
type RName struct{ Name string }

// RSeq matches the concatenation of its parts.
type RSeq struct{ Parts []Regex }

// RAlt matches any one of its alternatives.
type RAlt struct{ Alts []Regex }

// RStar matches zero or more repetitions of Sub.
type RStar struct{ Sub Regex }

// RPlus matches one or more repetitions of Sub.
type RPlus struct{ Sub Regex }

// ROpt matches zero or one occurrence of Sub.
type ROpt struct{ Sub Regex }

func (RNone) isRegex()    {}
func (REpsilon) isRegex() {}
func (RText) isRegex()    {}
func (RName) isRegex()    {}
func (RSeq) isRegex()     {}
func (RAlt) isRegex()     {}
func (RStar) isRegex()    {}
func (RPlus) isRegex()    {}
func (ROpt) isRegex()     {}

func (RNone) String() string    { return "∅" }
func (REpsilon) String() string { return "EMPTY" }
func (RText) String() string    { return "#PCDATA" }
func (r RName) String() string  { return r.Name }

func (r RSeq) String() string {
	parts := make([]string, len(r.Parts))
	for i, p := range r.Parts {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func (r RAlt) String() string {
	parts := make([]string, len(r.Alts))
	for i, p := range r.Alts {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, "|") + ")"
}

func (r RStar) String() string { return r.Sub.String() + "*" }
func (r RPlus) String() string { return r.Sub.String() + "+" }
func (r ROpt) String() string  { return r.Sub.String() + "?" }

// Regex converts a normal-form content model into its regular expression,
// honouring starred items inside sequences/choices (the view-DTD compact
// form).
func (c Content) Regex() Regex {
	item := func(it Item) Regex {
		var r Regex = RName{Name: it.Name}
		if it.Starred {
			r = RStar{Sub: r}
		}
		return r
	}
	switch c.Kind {
	case Empty:
		return REpsilon{}
	case Text:
		return RText{}
	case Star:
		return RStar{Sub: RName{Name: c.Items[0].Name}}
	case Seq:
		if len(c.Items) == 1 {
			return item(c.Items[0])
		}
		parts := make([]Regex, len(c.Items))
		for i, it := range c.Items {
			parts[i] = item(it)
		}
		return RSeq{Parts: parts}
	case Choice:
		if len(c.Items) == 1 {
			return item(c.Items[0])
		}
		alts := make([]Regex, len(c.Items))
		for i, it := range c.Items {
			alts[i] = item(it)
		}
		return RAlt{Alts: alts}
	default:
		return RNone{}
	}
}

// Nullable reports whether the regular expression matches the empty
// sequence.
func Nullable(r Regex) bool {
	switch r := r.(type) {
	case RNone:
		return false
	case REpsilon:
		return true
	case RText, RName:
		return false
	case RSeq:
		for _, p := range r.Parts {
			if !Nullable(p) {
				return false
			}
		}
		return true
	case RAlt:
		for _, a := range r.Alts {
			if Nullable(a) {
				return true
			}
		}
		return false
	case RStar, ROpt:
		return true
	case RPlus:
		return Nullable(r.Sub)
	default:
		return false
	}
}

// Derive returns the Brzozowski derivative of r with respect to the label:
// the language of suffixes of words in L(r) that begin with the label.
// Text nodes use TextLabel.
func Derive(r Regex, label string) Regex {
	switch r := r.(type) {
	case RNone, REpsilon:
		return RNone{}
	case RText:
		if label == TextLabel {
			return REpsilon{}
		}
		return RNone{}
	case RName:
		if r.Name == label {
			return REpsilon{}
		}
		return RNone{}
	case RSeq:
		if len(r.Parts) == 0 {
			return RNone{}
		}
		head, tail := r.Parts[0], r.Parts[1:]
		d := seq(Derive(head, label), seqOf(tail))
		if Nullable(head) {
			d = alt(d, Derive(seqOf(tail), label))
		}
		return d
	case RAlt:
		var out Regex = RNone{}
		for _, a := range r.Alts {
			out = alt(out, Derive(a, label))
		}
		return out
	case RStar:
		return seq(Derive(r.Sub, label), r)
	case RPlus:
		return seq(Derive(r.Sub, label), RStar{Sub: r.Sub})
	case ROpt:
		return Derive(r.Sub, label)
	default:
		return RNone{}
	}
}

func seqOf(parts []Regex) Regex {
	switch len(parts) {
	case 0:
		return REpsilon{}
	case 1:
		return parts[0]
	default:
		return RSeq{Parts: parts}
	}
}

func seq(a, b Regex) Regex {
	if isNone(a) || isNone(b) {
		return RNone{}
	}
	if _, ok := a.(REpsilon); ok {
		return b
	}
	if _, ok := b.(REpsilon); ok {
		return a
	}
	return RSeq{Parts: []Regex{a, b}}
}

func alt(a, b Regex) Regex {
	if isNone(a) {
		return b
	}
	if isNone(b) {
		return a
	}
	return RAlt{Alts: []Regex{a, b}}
}

func isNone(r Regex) bool {
	_, ok := r.(RNone)
	return ok
}

// MatchLabels reports whether the sequence of child labels is in the
// language of the regular expression.
func MatchLabels(r Regex, labels []string) bool {
	for _, l := range labels {
		r = Derive(r, l)
		if isNone(r) {
			return false
		}
	}
	return Nullable(r)
}

// MatchContent reports whether the sequence of child labels conforms to
// the content model.
func (c Content) MatchContent(labels []string) bool {
	return MatchLabels(c.Regex(), labels)
}

// ensure interface completeness at compile time
var _ = []Regex{RNone{}, REpsilon{}, RText{}, RName{}, RSeq{}, RAlt{}, RStar{}, RPlus{}, ROpt{}}

// FormatSeqError renders a helpful validation error message.
func FormatSeqError(parent string, c Content, labels []string) error {
	return fmt.Errorf("dtd: children of %s do not match %s: got [%s]",
		parent, c, strings.Join(labels, " "))
}
