package xpath

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

func TestIndexBasics(t *testing.T) {
	doc := hospitalDoc()
	idx := NewIndex(doc)
	if got := len(idx.Labeled("patient")); got != 3 {
		t.Errorf("Labeled(patient) = %d, want 3", got)
	}
	if got := len(idx.Labeled("nosuch")); got != 0 {
		t.Errorf("Labeled(nosuch) = %d", got)
	}
	// Posting lists are in document order and hold exactly the
	// document's nodes of their label.
	counts := map[string]int{}
	for _, n := range doc.Nodes() {
		counts[n.Label]++
	}
	for l, want := range counts {
		nodes := idx.Labeled(l)
		if len(nodes) != want {
			t.Errorf("Labeled(%s) = %d nodes, want %d", l, len(nodes), want)
		}
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1].Ord() >= nodes[i].Ord() {
				t.Errorf("posting list for %s out of order", l)
			}
		}
	}
	// The index is a view over the document's own posting lists.
	if &idx.Labeled("patient")[0] != &doc.Labeled("patient")[0] {
		t.Errorf("index copied the document's posting list")
	}
}

// TestIndexWalkFallback: a tree without a node table is indexed by a
// walk and evaluates like a renumbered copy of itself.
func TestIndexWalkFallback(t *testing.T) {
	numbered := hospitalDoc()
	bare := &xmltree.Document{Root: hospitalDoc().Root}
	if bare.Nodes() != nil {
		t.Fatalf("bare document has a node table")
	}
	idx := NewIndex(bare)
	for _, l := range []string{"hospital", "patient", "bill", xmltree.TextLabel, "nosuch"} {
		if got, want := len(idx.Labeled(l)), len(numbered.Labeled(l)); got != want {
			t.Errorf("Labeled(%s) = %d nodes, want %d", l, got, want)
		}
	}
	// Unnumbered nodes share ord 0, so compare answers as sets.
	got := texts(EvalIndexed(MustParse("//patient/name"), idx))
	want := texts(EvalDoc(MustParse("//patient/name"), numbered))
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walk-indexed //patient/name = %v, want %v", got, want)
	}
}

func TestEvalIndexedMatchesEval(t *testing.T) {
	doc := hospitalDoc()
	idx := NewIndex(doc)
	queries := []string{
		"//patient/name",
		"//dept//patientInfo/patient/name",
		"//bill",
		"//patient[wardNo = \"6\"]/name",
		"dept/*",
		"//(trial | regular)/bill",
		"//name/text()",
		"//dept[staffInfo/staff/doctor]//bill",
		".",
		"//.",
		"nonexistent",
		"//patient[not(treatment/trial)]",
	}
	for _, q := range queries {
		p := MustParse(q)
		want := EvalDoc(p, doc)
		got := EvalIndexed(p, idx)
		if len(got) != len(want) {
			t.Errorf("%q: indexed %d nodes, tree %d", q, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%q: node %d differs", q, i)
			}
		}
	}
}

func TestEvalIndexedAtSubcontext(t *testing.T) {
	doc := hospitalDoc()
	idx := NewIndex(doc)
	depts := EvalDoc(MustParse("dept"), doc)
	// Evaluate //bill at the second dept only.
	got := EvalIndexedAt(MustParse("//bill"), idx, depts[1:])
	want := EvalAt(MustParse("//bill"), depts[1:])
	if !reflect.DeepEqual(got, want) {
		t.Errorf("subcontext: indexed %v, tree %v", texts(got), texts(want))
	}
	if len(got) != 1 || got[0].Text() != "70" {
		t.Errorf("subcontext bills = %v", texts(got))
	}
}

// TestEvalIndexedProperty: the indexed evaluator agrees with the tree
// evaluator on random queries.
func TestEvalIndexedProperty(t *testing.T) {
	doc := hospitalDoc()
	idx := NewIndex(doc)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randHospitalPath(r, 3)
		want := EvalDoc(p, doc)
		got := EvalIndexed(p, idx)
		if len(got) != len(want) {
			t.Logf("seed %d: %s: %d vs %d", seed, String(p), len(got), len(want))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
