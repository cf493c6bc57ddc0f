package secview

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xpath"
)

// TypeDisposition says what the derivation did with one document element
// type.
type TypeDisposition string

const (
	// Exposed: the type appears in the view under its own name.
	Exposed TypeDisposition = "exposed"
	// Renamed: the type is inaccessible but structurally retained behind a
	// dummy label.
	Renamed TypeDisposition = "renamed"
	// ShortCut: the type is inaccessible; its accessible descendants were
	// pulled up into its parents' productions.
	ShortCut TypeDisposition = "short-cut"
	// Pruned: the type is inaccessible with no accessible descendants; it
	// vanished entirely.
	Pruned TypeDisposition = "pruned"
	// Unreachable: the type is not reachable from the document root and
	// never considered.
	Unreachable TypeDisposition = "unreachable"
)

// Report explains a derived view: the fate of every document element
// type. It is the human-readable counterpart of the view definition,
// intended for administrators reviewing a policy (the paper's Fig. 3
// administrator loop).
func (v *View) Report() string {
	dummyByHidden := make(map[string]string, len(v.DummyOf))
	for x, hidden := range v.DummyOf {
		dummyByHidden[hidden] = x
	}
	reach := v.Doc.Reachable(v.Doc.Root())

	// A hidden type was short-cut (rather than pruned) when some σ of the
	// view mentions it on an access path.
	mentioned := make(map[string]bool)
	for _, p := range v.sigma {
		for _, l := range xpath.Labels(p) {
			mentioned[l] = true
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "security view over document DTD rooted at %s\n", v.Doc.Root())
	types := v.Doc.Types()
	sort.Strings(types)
	for _, t := range types {
		disp := v.dispositionOf(t, reach, dummyByHidden, mentioned)
		switch disp {
		case Renamed:
			fmt.Fprintf(&b, "  %-20s %s as %s\n", t, disp, dummyByHidden[t])
		default:
			fmt.Fprintf(&b, "  %-20s %s\n", t, disp)
		}
	}
	visible := 0
	for _, t := range v.DTD.Types() {
		if !v.IsDummy(t) {
			visible++
		}
	}
	fmt.Fprintf(&b, "view DTD: %d element types (%d visible, %d dummies) of %d document types\n",
		v.DTD.Len(), visible, len(v.DummyOf), v.Doc.Len())
	return b.String()
}

func (v *View) dispositionOf(t string, reach map[string]bool, dummyByHidden map[string]string, mentioned map[string]bool) TypeDisposition {
	switch {
	case !reach[t]:
		return Unreachable
	case v.DTD.Has(t) && !v.IsDummy(t):
		return Exposed
	default:
		if _, ok := dummyByHidden[t]; ok {
			return Renamed
		}
		if mentioned[t] {
			return ShortCut
		}
		return Pruned
	}
}
