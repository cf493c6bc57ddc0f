package xpath

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

// TestIndexBasics: a whole-document //l step answers from the label
// index exactly the document's posting list for l, minus the root (the
// descendant step starts below the context's children's parents).
func TestIndexBasics(t *testing.T) {
	doc := hospitalDoc()
	labels := map[string]bool{}
	for _, n := range doc.Nodes() {
		labels[n.Label] = true
	}
	labels["nosuch"] = true
	for l := range labels {
		got := EvalDoc(Descend{Sub: Label{Name: l}}, doc)
		var want []*xmltree.Node
		for _, ord := range doc.Labeled(l) {
			if n := doc.Nodes()[ord]; n != doc.Root {
				want = append(want, n)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("//%s = %d nodes, posting list has %d", l, len(got), len(want))
		}
	}
	if got := len(EvalDoc(MustParse("//patient"), doc)); got != 3 {
		t.Errorf("//patient = %d, want 3", got)
	}
}

// refDoc evaluates p at the document root with the reference evaluator.
func refDoc(t *testing.T, p Path, doc *xmltree.Document) []*xmltree.Node {
	t.Helper()
	out, err := EvalRef(p, []*xmltree.Node{doc.Root})
	if err != nil {
		t.Fatalf("EvalRef(%s): %v", String(p), err)
	}
	return out
}

// TestEvalIndexedMatchesEval: the serving evaluator, with its label
// index, agrees with the reference evaluator on hand-picked queries.
func TestEvalIndexedMatchesEval(t *testing.T) {
	doc := hospitalDoc()
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
		want := refDoc(t, p, doc)
		got := EvalDoc(p, doc)
		if len(got) != len(want) {
			t.Errorf("%q: served %d nodes, reference %d", q, len(got), len(want))
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
	depts := EvalDoc(MustParse("dept"), doc)
	// Evaluate //bill at the second dept only.
	got := mustEvalAt(MustParse("//bill"), depts[1:])
	want, err := EvalRef(MustParse("//bill"), depts[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("subcontext: served %v, reference %v", texts(got), texts(want))
	}
	if len(got) != 1 || got[0].Text() != "70" {
		t.Errorf("subcontext bills = %v", texts(got))
	}
}

// TestEvalIndexedProperty: the serving evaluator agrees with the
// reference evaluator on random queries.
func TestEvalIndexedProperty(t *testing.T) {
	doc := hospitalDoc()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randHospitalPath(r, 3)
		want := refDoc(t, p, doc)
		got := EvalDoc(p, doc)
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
