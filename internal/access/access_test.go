package access

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const hospitalDTD = `
root hospital
hospital -> dept*
dept -> clinicalTrial, patientInfo, staffInfo
clinicalTrial -> patientInfo
patientInfo -> patient*
patient -> name, wardNo, treatment
treatment -> trial + regular
trial -> bill
regular -> bill, medication
staffInfo -> staff*
staff -> doctor + nurse
doctor -> name
nurse -> name
name -> #PCDATA
wardNo -> #PCDATA
bill -> #PCDATA
medication -> #PCDATA
`

// nurseSpec is the paper's Example 3.1 specification.
const nurseSpec = `
ann(hospital, dept) = [*/patient/wardNo = $wardNo]
ann(dept, clinicalTrial) = N
ann(clinicalTrial, patientInfo) = Y
ann(treatment, trial) = N
ann(treatment, regular) = N
ann(trial, bill) = Y
ann(regular, bill) = Y
ann(regular, medication) = Y
`

func nurse(t *testing.T) (*dtd.DTD, *Spec) {
	t.Helper()
	d := dtd.MustParse(hospitalDTD)
	s, err := ParseAnnotations(d, nurseSpec)
	if err != nil {
		t.Fatalf("ParseAnnotations: %v", err)
	}
	return d, s
}

func TestParseAnnotations(t *testing.T) {
	_, s := nurse(t)
	if got := len(s.Edges()); got != 8 {
		t.Fatalf("edges = %d, want 8", got)
	}
	a, ok := s.Ann("dept", "clinicalTrial")
	if !ok || a.Kind != Deny {
		t.Errorf("ann(dept, clinicalTrial) = %v, %v", a, ok)
	}
	a, ok = s.Ann("hospital", "dept")
	if !ok || a.Kind != Cond {
		t.Fatalf("ann(hospital, dept) = %v, %v", a, ok)
	}
	if _, ok := s.Ann("dept", "patientInfo"); ok {
		t.Errorf("unannotated edge reported explicit")
	}
	if got := s.Vars(); !reflect.DeepEqual(got, []string{"wardNo"}) {
		t.Errorf("Vars = %v", got)
	}
}

func TestParseAnnotationErrors(t *testing.T) {
	d := dtd.MustParse(hospitalDTD)
	cases := []string{
		"ann(hospital, dept) = MAYBE",
		"ann(hospital, patient) = Y",     // not an edge
		"ann(nosuch, dept) = Y",          // unknown parent
		"ann(hospital, dept) Y",          // missing '='
		"annotate(hospital, dept) = Y",   // wrong keyword
		"ann(hospital) = Y",              // one name
		"ann(hospital, dept) = [***bad]", // bad qualifier
		"ann(hospital, str) = N",         // hospital has no text content
	}
	for _, src := range cases {
		if _, err := ParseAnnotations(d, src); err == nil {
			t.Errorf("ParseAnnotations(%q) succeeded, want error", src)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	d, s := nurse(t)
	s2, err := ParseAnnotations(d, s.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if s2.String() != s.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", s.String(), s2.String())
	}
}

func TestTextAnnotation(t *testing.T) {
	d := dtd.MustParse("root a\na -> b\nb -> #PCDATA\n")
	s, err := ParseAnnotations(d, "ann(b, str) = N\n")
	if err != nil {
		t.Fatalf("ParseAnnotations: %v", err)
	}
	if a, ok := s.Ann("b", dtd.TextLabel); !ok || a.Kind != Deny {
		t.Errorf("text annotation = %v, %v", a, ok)
	}
	if !strings.Contains(s.String(), "ann(b, str) = N") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestBind(t *testing.T) {
	_, s := nurse(t)
	bound, err := s.Bind(map[string]string{"wardNo": "6"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if got := bound.Vars(); len(got) != 0 {
		t.Errorf("bound spec still has vars %v", got)
	}
	a, _ := bound.Ann("hospital", "dept")
	if !strings.Contains(xpath.QualString(a.Cond), `"6"`) {
		t.Errorf("bound qualifier = %s", xpath.QualString(a.Cond))
	}
	if _, err := s.Bind(nil); err == nil {
		t.Errorf("Bind without bindings succeeded")
	}
}

// hospitalInstance builds a two-department instance: ward 6 (with a
// clinical trial patient) and ward 7.
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

func find(doc *xmltree.Document, query string) []*xmltree.Node {
	return xpath.EvalDoc(xpath.MustParse(query), doc)
}

func TestAccessibilityNurse(t *testing.T) {
	_, s := nurse(t)
	bound, err := s.Bind(map[string]string{"wardNo": "6"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	doc := hospitalInstance()
	acc := Accessibility(bound, doc)

	if !acc[doc.Root] {
		t.Errorf("root inaccessible")
	}
	depts := find(doc, "dept")
	if len(depts) != 2 {
		t.Fatalf("depts = %d", len(depts))
	}
	if !acc[depts[0]] {
		t.Errorf("ward-6 dept inaccessible")
	}
	if acc[depts[1]] {
		t.Errorf("ward-7 dept accessible")
	}

	// clinicalTrial is denied, but its patientInfo is explicitly allowed.
	ct := find(doc, "dept/clinicalTrial")[0]
	if acc[ct] {
		t.Errorf("clinicalTrial accessible")
	}
	ctPI := find(doc, "dept/clinicalTrial/patientInfo")[0]
	if !acc[ctPI] {
		t.Errorf("patientInfo under clinicalTrial inaccessible (explicit Y override)")
	}

	// Patients inherit accessibility; Carol (trial, ward 6) is accessible
	// through the explicit Y, Alice via inheritance, Bob blocked by the
	// ward qualifier on his dept.
	for _, tc := range []struct {
		name string
		want bool
	}{{"Carol", true}, {"Alice", true}, {"Bob", false}} {
		nodes := find(doc, "//patient[name = \""+tc.name+"\"]")
		if len(nodes) != 1 {
			t.Fatalf("patient %s: found %d", tc.name, len(nodes))
		}
		if acc[nodes[0]] != tc.want {
			t.Errorf("patient %s accessible = %v, want %v", tc.name, acc[nodes[0]], tc.want)
		}
	}

	// treatment is inherited-accessible for ward-6 patients; trial and
	// regular are denied; bill and medication are explicitly allowed.
	aliceTreatment := find(doc, "//patient[name = \"Alice\"]/treatment")[0]
	if !acc[aliceTreatment] {
		t.Errorf("Alice's treatment inaccessible")
	}
	aliceRegular := aliceTreatment.Children[0]
	if acc[aliceRegular] {
		t.Errorf("Alice's regular accessible")
	}
	for _, c := range aliceRegular.Children {
		if !acc[c] {
			t.Errorf("Alice's %s inaccessible", c.Label)
		}
	}

	// Bob's bill: explicit Y, but the ward qualifier on his dept ancestor
	// fails, so it must stay inaccessible (ancestor-qualifier condition).
	bobBill := find(doc, "//patient[name = \"Bob\"]/treatment/regular/bill")[0]
	if acc[bobBill] {
		t.Errorf("Bob's bill accessible despite failing ward qualifier upstream")
	}

	// Text nodes inherit from their element.
	carolNameText := find(doc, "//patient[name = \"Carol\"]/name")[0].Children[0]
	if !acc[carolNameText] {
		t.Errorf("Carol's name text inaccessible")
	}
}

func TestAccessibilityDefaultAllAccessible(t *testing.T) {
	d := dtd.MustParse(hospitalDTD)
	s := NewSpec(d)
	doc := hospitalInstance()
	acc := Accessibility(s, doc)
	count := 0
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if !acc[n] {
			t.Errorf("node %s inaccessible under empty spec", n.Path())
		}
		count++
		return true
	})
	if count != doc.Size() {
		t.Errorf("walked %d nodes, size %d", count, doc.Size())
	}
}

func TestAccessibilityDenySubtreeInheritance(t *testing.T) {
	d := dtd.MustParse(hospitalDTD)
	s := MustParseAnnotations(d, "ann(dept, patientInfo) = N\n")
	doc := hospitalInstance()
	acc := Accessibility(s, doc)
	// Direct patientInfo children of dept and everything below are
	// inaccessible; the one under clinicalTrial is unaffected.
	for _, pi := range find(doc, "dept/patientInfo") {
		pi.Walk(func(n *xmltree.Node) bool {
			if acc[n] {
				t.Errorf("node %s accessible under denied patientInfo", n.Path())
			}
			return true
		})
	}
	for _, pi := range find(doc, "dept/clinicalTrial/patientInfo") {
		if !acc[pi] {
			t.Errorf("clinicalTrial/patientInfo inaccessible")
		}
	}
}

// accessibleNodes returns the accessible nodes of the document in
// document order.
func accessibleNodes(s *Spec, doc *xmltree.Document) []*xmltree.Node {
	acc := Accessibility(s, doc)
	var out []*xmltree.Node
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if acc[n] {
			out = append(out, n)
		}
		return true
	})
	return out
}

func TestAccessibleNodesOrder(t *testing.T) {
	_, s := nurse(t)
	bound, _ := s.Bind(map[string]string{"wardNo": "6"})
	doc := hospitalInstance()
	nodes := accessibleNodes(bound, doc)
	if len(nodes) == 0 {
		t.Fatalf("no accessible nodes")
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].Ord() >= nodes[i].Ord() {
			t.Errorf("accessible nodes out of document order at %d", i)
		}
	}
	if nodes[0] != doc.Root {
		t.Errorf("first accessible node is not the root")
	}
}

func TestConditionalOverridesDeny(t *testing.T) {
	// A conditional annotation under a denied parent: condition holds →
	// accessible (override), condition fails → inaccessible.
	d := dtd.MustParse(`
root r
r -> a
a -> b
b -> flag, c
flag -> #PCDATA
c -> #PCDATA
`)
	s := MustParseAnnotations(d, `
ann(r, a) = N
ann(a, b) = [flag = "on"]
`)
	on := xmltree.NewDocument(xmltree.E("r", xmltree.E("a", xmltree.E("b", xmltree.T("flag", "on"), xmltree.T("c", "data")))))
	off := xmltree.NewDocument(xmltree.E("r", xmltree.E("a", xmltree.E("b", xmltree.T("flag", "off"), xmltree.T("c", "data")))))
	accOn := Accessibility(s, on)
	accOff := Accessibility(s, off)
	bOn := find(on, "a/b")[0]
	bOff := find(off, "a/b")[0]
	if !accOn[bOn] {
		t.Errorf("b with flag=on inaccessible")
	}
	if accOff[bOff] {
		t.Errorf("b with flag=off accessible")
	}
	// c inherits from b in both cases.
	if !accOn[bOn.Children[1]] || accOff[bOff.Children[1]] {
		t.Errorf("c inheritance wrong")
	}
}

func TestPossibleAccessibility(t *testing.T) {
	d := dtd.MustParse(hospitalDTD)
	s := MustParseAnnotations(d, nurseSpec)
	poss := PossibleAccessibility(s)
	// The root is always accessible.
	if got := poss["hospital"]; !got.CanBeAccessible || got.CanBeInaccessible {
		t.Errorf("hospital = %+v", got)
	}
	// dept sits below a conditional edge: both possibilities.
	if got := poss["dept"]; !got.CanBeAccessible || !got.CanBeInaccessible {
		t.Errorf("dept = %+v", got)
	}
	// bill has explicit Y annotations, but the ancestor ward qualifier can
	// fail — it must remain possibly-inaccessible (the Section 3.2
	// ancestor-qualifier condition).
	if got := poss["bill"]; !got.CanBeAccessible || !got.CanBeInaccessible {
		t.Errorf("bill = %+v", got)
	}
	// trial is denied everywhere.
	if got := poss["trial"]; got.CanBeAccessible || !got.CanBeInaccessible {
		t.Errorf("trial = %+v", got)
	}

	// Without the ward qualifier, an explicit Y is firmly accessible.
	s2 := MustParseAnnotations(d, `
ann(dept, clinicalTrial) = N
ann(clinicalTrial, patientInfo) = Y
`)
	poss2 := PossibleAccessibility(s2)
	if got := poss2["patientInfo"]; !got.CanBeAccessible || got.CanBeInaccessible {
		t.Errorf("patientInfo without conditionals = %+v", got)
	}
	if got := poss2["clinicalTrial"]; got.CanBeAccessible || !got.CanBeInaccessible {
		t.Errorf("clinicalTrial = %+v", got)
	}
	// patient is reachable both through the accessible dept path and the
	// re-exposed clinicalTrial path: accessible either way.
	if got := poss2["patient"]; !got.CanBeAccessible || got.CanBeInaccessible {
		t.Errorf("patient = %+v", got)
	}
}
