package xmltree

import "testing"

// TestValuesExact: a built label's nodes share an id exactly when their
// Text() values are equal (mixed content included), nodes of other
// labels stay Unbuilt, an absent value gets NoValue, and Renumber drops
// the dictionary.
func TestValuesExact(t *testing.T) {
	doc, err := ParseString(`<r><a>x</a><a>y</a><a>x</a><b>x</b><a>x<c/>y</a><a>xy</a><a/><b>z</b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Values() != nil {
		t.Fatal("a fresh document has a value dictionary")
	}
	v := doc.BuildValues([]string{"a"}, false)
	if !v.Covers([]string{"a"}, false) || v.Covers([]string{"a", "b"}, false) || v.Covers(nil, true) {
		t.Fatal("BuildValues(a) covers more or less than a")
	}
	col := v.Column()
	as := doc.Labeled("a")
	for _, i := range as {
		for _, j := range as {
			same := doc.Nodes()[i].Text() == doc.Nodes()[j].Text()
			if (col[i] == col[j]) != same {
				t.Errorf("nodes %d (%q) and %d (%q): ids %d and %d", i, doc.Nodes()[i].Text(), j, doc.Nodes()[j].Text(), col[i], col[j])
			}
		}
		if col[i] != v.ID(doc.Nodes()[i].Text()) {
			t.Errorf("node %d: column id %d, ID(%q) = %d", i, col[i], doc.Nodes()[i].Text(), v.ID(doc.Nodes()[i].Text()))
		}
	}
	for _, i := range doc.Labeled("b") {
		if col[i] != Unbuilt {
			t.Errorf("unbuilt b node %d has id %d", i, col[i])
		}
	}
	if v.ID("z") != NoValue || v.ID("absent") != NoValue {
		t.Errorf("values only unbuilt or no nodes carry got ids %d, %d", v.ID("z"), v.ID("absent"))
	}
	if doc.Values() != v || doc.BuildValues([]string{"a"}, false) != v {
		t.Error("an already built label was rebuilt")
	}

	w := doc.BuildValues([]string{"b"}, false)
	if !w.Covers([]string{"a", "b"}, false) || w.ID("x") != v.ID("x") || w.ID("z") == NoValue {
		t.Errorf("adding b lost a or renumbered ids: x %d → %d, z %d", v.ID("x"), w.ID("x"), w.ID("z"))
	}
	all := doc.BuildValues(nil, true)
	if !all.Covers([]string{"r", "c"}, true) || all.Column()[doc.Root.Ord()] == Unbuilt {
		t.Error("BuildValues(all) left nodes unbuilt")
	}

	doc.Renumber()
	if doc.Values() != nil {
		t.Error("Renumber kept the value dictionary")
	}
}
