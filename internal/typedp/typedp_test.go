package typedp

import (
	"strings"
	"testing"

	"repro/internal/xpath"
)

// labelDP is a DP over a small graph whose edges are walked by their
// child labels, as in Algorithm optimize; kids lists each type's
// children and text the types with text content.
func labelDP(kids map[string][]string, text ...string) *DP {
	var dp *DP
	dp = New(Lang{
		Edges: func(a string) ([]Edge, xpath.Path) {
			var es []Edge
			for _, b := range kids[a] {
				es = append(es, Edge{To: b, Label: b, Query: xpath.L(b)})
			}
			for _, t := range text {
				if t == a {
					return es, xpath.L(xpath.TextName)
				}
			}
			return es, nil
		},
		Cyclic: func(a, b string) xpath.Path { return xpath.MakeDescend(xpath.L(b)) },
		Qual:   func(q xpath.Qual, a string) Cell { return Cell{} },
		Case: func(p xpath.Path, a string) Cell {
			if u, ok := p.(xpath.Union); ok {
				return Union(dp.Cell(u.Left, a), dp.Cell(u.Right, a))
			}
			return Cell{}
		},
	})
	return dp
}

func TestRecProcDAG(t *testing.T) {
	// r → a, b; a → c, y; b → c; c and y hold text.
	dp := labelDP(map[string][]string{"r": {"a", "b"}, "a": {"c", "y"}, "b": {"c"}}, "y", "c")
	if got, want := strings.Join(dp.ReachDescend("r"), " "), "#text a b c r y"; got != want {
		t.Fatalf("reach(//, r) = %s, want %s", got, want)
	}
	for b, want := range map[string]string{
		"r": ".",
		"c": "b/c | a/c",
		// Text types in sorted order: c before y.
		Text: "(b/c | a/c)/text() | a/y/text()",
		"x":  "∅",
	} {
		if got := xpath.String(dp.Recrw("r", b)); got != want {
			t.Errorf("recrw(r, %s) = %s, want %s", b, got, want)
		}
	}
	// //c composes recrw(r, x)/c for each x with a c child, in sorted
	// order of x.
	cell := dp.Cell(xpath.MustParse("//c"), "r")
	dp.EndCall()
	if got, want := xpath.String(cell.Total()), "a/c | b/c"; got != want {
		t.Errorf("//c at r = %s, want %s", got, want)
	}
}

func TestRecProcCyclic(t *testing.T) {
	// r → a; a → r, c: every target of r takes the Cyclic query.
	dp := labelDP(map[string][]string{"r": {"a"}, "a": {"r", "c"}}, "c")
	if got, want := strings.Join(dp.ReachDescend("r"), " "), "#text a c r"; got != want {
		t.Fatalf("reach(//, r) = %s, want %s", got, want)
	}
	if got, want := xpath.String(dp.Recrw("r", Text)), "//text()"; got != want {
		t.Errorf("recrw(r, #text) = %s, want %s", got, want)
	}
	// c's own region is acyclic and keeps the expansion.
	if got, want := xpath.String(dp.Recrw("c", "c")), "."; got != want {
		t.Errorf("recrw(c, c) = %s, want %s", got, want)
	}
}
