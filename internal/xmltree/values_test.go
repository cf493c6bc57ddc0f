package xmltree

import "testing"

// TestValuesExact: over every node, two ids are equal exactly when the
// Text() values are equal (mixed content included), ID agrees with the
// column, and an absent value gets NoValue; the same holds after a text
// edit followed by Renumber.
func TestValuesExact(t *testing.T) {
	doc, err := ParseString(`<r><a>x</a><a>y</a><a>x</a><b>x</b><a>x<c/>y</a><a>xy</a><a/><b>z</b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		v := doc.Values()
		col := v.Column()
		nodes := doc.Nodes()
		if len(col) != len(nodes) {
			t.Fatalf("%s: column has %d entries for %d nodes", stage, len(col), len(nodes))
		}
		for i, n := range nodes {
			for j, m := range nodes {
				if same := n.Text() == m.Text(); (col[i] == col[j]) != same {
					t.Errorf("%s: nodes %d (%q) and %d (%q): ids %d and %d", stage, i, n.Text(), j, m.Text(), col[i], col[j])
				}
			}
			if col[i] != v.ID(n.Text()) {
				t.Errorf("%s: node %d: column id %d, ID(%q) = %d", stage, i, col[i], n.Text(), v.ID(n.Text()))
			}
		}
		if v.ID("absent") != NoValue {
			t.Errorf("%s: a value no node carries got id %d", stage, v.ID("absent"))
		}
	}
	check("parsed")

	z := doc.Nodes()[doc.Labeled(TextLabel)[len(doc.Labeled(TextLabel))-1]]
	if z.Data != "z" {
		t.Fatalf("last text node holds %q, want z", z.Data)
	}
	z.Data = "y"
	doc.Renumber()
	check("edited")
	if doc.Values().ID("z") != NoValue {
		t.Error("Renumber kept the edited-away value z")
	}
}
