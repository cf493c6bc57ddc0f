package secview

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/dtd"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// hospitalInstance builds the two-department instance used across the
// secview tests: ward 6 with a clinical-trial patient, ward 7 without.
func hospitalInstance() *xmltree.Document {
	e, tx := xmltree.E, xmltree.T
	return xmltree.NewDocument(e("hospital",
		e("dept", // ward 6
			e("clinicalTrial",
				e("patientInfo",
					e("patient", tx("name", "Carol"), tx("wardNo", "6"),
						e("treatment", e("trial", tx("bill", "900")))))),
			e("patientInfo",
				e("patient", tx("name", "Alice"), tx("wardNo", "6"),
					e("treatment", e("regular", tx("bill", "100"), tx("medication", "aspirin"))))),
			e("staffInfo", e("staff", e("nurse", tx("name", "Nina")))),
		),
		e("dept", // ward 7
			e("clinicalTrial", e("patientInfo")),
			e("patientInfo",
				e("patient", tx("name", "Bob"), tx("wardNo", "7"),
					e("treatment", e("regular", tx("bill", "70"), tx("medication", "ibuprofen"))))),
			e("staffInfo", e("staff", e("doctor", tx("name", "Dan")))),
		),
	))
}

func viewStrings(m *Materialized, query string) []string {
	var out []string
	for _, n := range xpath.EvalDoc(xpath.MustParse(query), m.View) {
		out = append(out, n.Text())
	}
	return out
}

// TestMaterializeNurse plays out the paper's Example 3.3.
func TestMaterializeNurse(t *testing.T) {
	v := nurseView(t, "6")
	doc := hospitalInstance()
	m, err := Materialize(v, doc)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if err := xmltree.Validate(m.View, v.DTD); err != nil {
		t.Fatalf("view does not conform to view DTD: %v", err)
	}

	// Only the ward-6 dept survives the qualifier.
	depts := xpath.EvalDoc(xpath.MustParse("dept"), m.View)
	if len(depts) != 1 {
		t.Fatalf("view has %d depts, want 1", len(depts))
	}
	// Both Carol (via clinicalTrial) and Alice appear as patientInfo
	// children of dept, in document order.
	if got := viewStrings(m, "dept/patientInfo/patient/name"); !reflect.DeepEqual(got, []string{"Carol", "Alice"}) {
		t.Errorf("patient names in view = %v", got)
	}
	// clinicalTrial never appears.
	if got := xpath.EvalDoc(xpath.MustParse("//clinicalTrial"), m.View); len(got) != 0 {
		t.Errorf("clinicalTrial leaked into the view")
	}
	// Carol's treatment holds dummy1 (trial hidden) with her bill;
	// Alice's holds dummy2 with bill and medication.
	if got := viewStrings(m, "//patient[name = \"Carol\"]/treatment/dummy1/bill"); !reflect.DeepEqual(got, []string{"900"}) {
		t.Errorf("Carol's bill = %v", got)
	}
	if got := viewStrings(m, "//patient[name = \"Alice\"]/treatment/dummy2/medication"); !reflect.DeepEqual(got, []string{"aspirin"}) {
		t.Errorf("Alice's medication = %v", got)
	}
	// Bob (ward 7) is absent.
	if got := viewStrings(m, "//name"); len(got) != 3 { // Carol, Alice, Nina
		t.Errorf("view names = %v", got)
	}
	// Dummy bookkeeping: dummies map to the hidden document nodes.
	dummies := xpath.EvalDoc(xpath.MustParse("//dummy1 | //dummy2"), m.View)
	if len(dummies) != 2 {
		t.Fatalf("found %d dummy nodes, want 2", len(dummies))
	}
	for _, dn := range dummies {
		if !m.IsDummy[dn] {
			t.Errorf("dummy node not marked")
		}
		hidden := m.DocOf[dn]
		if hidden == nil || (hidden.Label != "trial" && hidden.Label != "regular") {
			t.Errorf("dummy maps to %v", hidden)
		}
	}
}

func TestMaterializeWard7(t *testing.T) {
	v := nurseView(t, "7")
	m, err := Materialize(v, hospitalInstance())
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if got := viewStrings(m, "//patient/name"); !reflect.DeepEqual(got, []string{"Bob"}) {
		t.Errorf("ward-7 view patients = %v", got)
	}
}

func TestCheckSoundCompleteNurse(t *testing.T) {
	v := nurseView(t, "6")
	if _, err := CheckSoundComplete(v, hospitalInstance()); err != nil {
		t.Errorf("CheckSoundComplete: %v", err)
	}
}

func TestCheckSoundCompleteIdentity(t *testing.T) {
	d := dtd.MustParse(hospitalDTD)
	v, err := Derive(access.NewSpec(d))
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	doc := hospitalInstance()
	m, err := CheckSoundComplete(v, doc)
	if err != nil {
		t.Fatalf("CheckSoundComplete: %v", err)
	}
	if m.View.Size() != doc.Size() {
		t.Errorf("identity view has %d nodes, document %d", m.View.Size(), doc.Size())
	}
}

func TestMaterializeAbortMissingRequired(t *testing.T) {
	// A conditional annotation on a required concatenation child aborts
	// when the condition fails (Section 3.3 case 3).
	d := dtd.MustParse(`
root r
r -> a, b
a -> flag
flag -> #PCDATA
b -> #PCDATA
`)
	s := access.MustParseAnnotations(d, `ann(r, a) = [flag = "on"]`)
	v, err := Derive(s)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	bad := xmltree.NewDocument(xmltree.E("r",
		xmltree.E("a", xmltree.T("flag", "off")), xmltree.T("b", "data")))
	_, err = Materialize(v, bad)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("Materialize = %v, want AbortError", err)
	}
	good := xmltree.NewDocument(xmltree.E("r",
		xmltree.E("a", xmltree.T("flag", "on")), xmltree.T("b", "data")))
	if _, err := Materialize(v, good); err != nil {
		t.Errorf("Materialize(good): %v", err)
	}
}

func TestMaterializeRecursiveDummyChain(t *testing.T) {
	d := dtd.MustParse(`
root a
a -> b, c
b -> #PCDATA
c -> a*
`)
	s := access.MustParseAnnotations(d, "ann(a, c) = N\n")
	v, err := Derive(s)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	e, tx := xmltree.E, xmltree.T
	// a(b=1, c(a(b=2, c(a(b=3))))).
	doc := xmltree.NewDocument(e("a", tx("b", "1"),
		e("c", e("a", tx("b", "2"), e("c", e("a", tx("b", "3")))))))
	m, err := CheckSoundComplete(v, doc)
	if err != nil {
		t.Fatalf("CheckSoundComplete: %v", err)
	}
	// View: a -> b, dummy1*; the dummy chain relabels the c spine but
	// exposes no b values beyond the root's.
	if got := viewStrings(m, "b"); !reflect.DeepEqual(got, []string{"1"}) {
		t.Errorf("root b = %v", got)
	}
	if got := viewStrings(m, "//b"); !reflect.DeepEqual(got, []string{"1"}) {
		t.Errorf("all b in view = %v (hidden b leaked)", got)
	}
	// The outermost c is short-cut (its reg inlines into the root
	// production); dummies stand for the *retained* recursive c
	// occurrences, i.e. σ(a, dummy1) = c/a/c reaches c nodes at depth 2.
	dummies := xpath.EvalDoc(xpath.MustParse("//dummy1"), m.View)
	if len(dummies) != 1 {
		t.Errorf("dummy chain has %d nodes, want 1", len(dummies))
	}
	if hidden := m.DocOf[dummies[0]]; hidden == nil || hidden.Label != "c" {
		t.Errorf("dummy1 maps to %v, want a c node", m.DocOf[dummies[0]])
	}
}

func TestMaterializeWrongRoot(t *testing.T) {
	v := nurseView(t, "6")
	doc := xmltree.NewDocument(xmltree.E("notahospital"))
	if _, err := Materialize(v, doc); err == nil {
		t.Errorf("wrong root accepted")
	}
}

func TestCheckDetectsUnsoundView(t *testing.T) {
	// Hand-build a broken view whose σ over-extracts an inaccessible
	// node; CheckSoundComplete must flag it.
	d := dtd.MustParse(`
root r
r -> a, b
a -> #PCDATA
b -> #PCDATA
`)
	s := access.MustParseAnnotations(d, "ann(r, b) = N\n")
	v, err := Derive(s)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	// Sabotage: make the view's r production also expose b.
	v.DTD.SetProduction("r", dtd.SeqContent("a", "b"))
	v.DTD.SetProduction("b", dtd.TextContent())
	v.setSigma("r", "b", xpath.L("b"))
	v.setSigma("b", dtd.TextLabel, xpath.Label{Name: xpath.TextName})
	doc := xmltree.NewDocument(xmltree.E("r", xmltree.T("a", "1"), xmltree.T("b", "2")))
	_, err = CheckSoundComplete(v, doc)
	if err == nil {
		t.Fatalf("broken view passed the checker")
	}
}

func TestCheckDetectsIncompleteView(t *testing.T) {
	d := dtd.MustParse(`
root r
r -> a, b
a -> #PCDATA
b -> #PCDATA
`)
	v, err := Derive(access.NewSpec(d))
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	// Sabotage: drop b from the view even though it is accessible.
	v.DTD.SetProduction("r", dtd.SeqContent("a"))
	doc := xmltree.NewDocument(xmltree.E("r", xmltree.T("a", "1"), xmltree.T("b", "2")))
	if _, err := CheckSoundComplete(v, doc); err == nil {
		t.Fatalf("incomplete view passed the checker")
	}
}

// TestMaterializeAbortsWithoutAView: where no view instance fits the
// document (Theorem 3.2's abort conditions), materialization fails with
// an AbortError instead of guessing — for a required concatenation
// child whose condition fails, and for a disjunction none of whose
// alternatives is accessible.
func TestMaterializeAbortsWithoutAView(t *testing.T) {
	for _, tc := range []struct {
		name, dtd, ann string
		doc            *xmltree.Document
	}{
		{"concatenation", "root r\nr -> a, b\na -> flag\nflag -> #PCDATA\nb -> #PCDATA\n",
			`ann(r, a) = [flag = "on"]`,
			xmltree.NewDocument(xmltree.E("r", xmltree.E("a", xmltree.T("flag", "off")), xmltree.T("b", "data")))},
		{"disjunction", "root r\nr -> t\nt -> x + y\nx -> #PCDATA\ny -> #PCDATA\n",
			"ann(t, x) = [. = \"never\"]\nann(t, y) = [. = \"never\"]\n",
			xmltree.NewDocument(xmltree.E("r", xmltree.E("t", xmltree.T("x", "value"))))},
	} {
		v, err := Derive(access.MustParseAnnotations(dtd.MustParse(tc.dtd), tc.ann))
		if err != nil {
			t.Fatalf("%s: Derive: %v", tc.name, err)
		}
		var abort *AbortError
		if _, err := Materialize(v, tc.doc); !errors.As(err, &abort) {
			t.Errorf("%s: Materialize = %v, want AbortError", tc.name, err)
		}
	}
}
