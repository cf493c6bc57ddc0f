package rewrite

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/dtd"
	"repro/internal/secview"
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

func nurseView(t *testing.T) *secview.View {
	t.Helper()
	d := dtd.MustParse(hospitalDTD)
	s := access.MustParseAnnotations(d, nurseSpec)
	bound, err := s.Bind(map[string]string{"wardNo": "6"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	v, err := secview.Derive(bound)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return v
}

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

// checkRewrite verifies the defining property of Rewrite: p over the
// materialized view equals p_t over the document (node-for-node through
// the materialization correspondence).
func checkRewrite(t *testing.T, v *secview.View, doc *xmltree.Document, query string) {
	t.Helper()
	m, err := secview.Materialize(v, doc)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	r, err := ForViewWithHeight(v, doc.Height())
	if err != nil {
		t.Fatalf("rewriter: %v", err)
	}
	p := xpath.MustParse(query)
	pt, _ := r.Rewrite(p)
	viewRes := xpath.EvalDoc(p, m.View)
	docRes := xpath.EvalDoc(pt, doc)
	// Map view results to their document counterparts.
	want := make(map[*xmltree.Node]bool, len(viewRes))
	for _, n := range viewRes {
		want[m.DocOf[n]] = true
	}
	got := make(map[*xmltree.Node]bool, len(docRes))
	for _, n := range docRes {
		got[n] = true
	}
	if len(want) != len(got) {
		t.Errorf("%q: view returned %d distinct doc nodes, rewritten %q returned %d",
			query, len(want), xpath.String(pt), len(got))
		return
	}
	for n := range want {
		if !got[n] {
			t.Errorf("%q: rewritten query missed %s", query, n.Path())
		}
	}
}

// TestRewriteExample41 pins the paper's Example 4.1: //patient//bill over
// the nurse view rewrites to a query over the document that finds exactly
// the accessible bills.
func TestRewriteExample41(t *testing.T) {
	v := nurseView(t)
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	pt, _ := r.Rewrite(xpath.MustParse("//patient//bill"))
	doc := hospitalInstance()
	res := xpath.EvalDoc(pt, doc)
	// Accessible bills: Carol's 900 and Alice's 100 (ward 6 only).
	if len(res) != 2 {
		t.Fatalf("rewritten //patient//bill returned %d nodes (%s)", len(res), xpath.String(pt))
	}
	if res[0].Text() != "900" || res[1].Text() != "100" {
		t.Errorf("bills = %q, %q", res[0].Text(), res[1].Text())
	}
}

func TestRewriteEquivalenceSuite(t *testing.T) {
	v := nurseView(t)
	doc := hospitalInstance()
	queries := []string{
		".",
		"dept",
		"dept/patientInfo",
		"dept/patientInfo/patient/name",
		"//patient",
		"//patient/name",
		"//patient//bill",
		"//bill",
		"//treatment/*",
		"//treatment/*/bill",
		"dept/*",
		"//patient[name = \"Carol\"]",
		"//patient[treatment/dummy2]/name",
		"//patient[not(treatment/dummy2)]/name",
		"//name | //bill",
		"//patient[wardNo = \"6\" and treatment//medication]",
		"dept/staffInfo/staff/*/name",
		"//dummy1",
		"//dummy2/medication",
		"//patient[treatment/dummy1 or treatment/dummy2]",
		"nonexistent",
		"//patient/clinicalTrial",
		"∅",
		"//name/text()",
		"dept[staffInfo]",
	}
	for _, q := range queries {
		checkRewrite(t, v, doc, q)
	}
}

// TestRewriteBlocksInferenceAttack reproduces Example 1.1: over the
// security view the two queries of the inference attack return the same
// answer, so the attack is defeated.
func TestRewriteBlocksInferenceAttack(t *testing.T) {
	v := nurseView(t)
	doc := hospitalInstance()
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	run := func(q string) []string {
		pt, _ := r.Rewrite(xpath.MustParse(q))
		var out []string
		for _, n := range xpath.EvalDoc(pt, doc) {
			out = append(out, n.Text())
		}
		return out
	}
	p1 := run("//dept//patientInfo/patient/name")
	p2 := run("//dept/patientInfo/patient/name")
	if len(p1) != len(p2) {
		t.Fatalf("inference attack still works: p1=%v p2=%v", p1, p2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Errorf("p1[%d]=%q p2[%d]=%q", i, p1[i], i, p2[i])
		}
	}
	// Both must see Carol and Alice (all ward-6 patients), hiding whether
	// either is in a clinical trial.
	if len(p1) != 2 {
		t.Errorf("p1 = %v, want Carol and Alice", p1)
	}
}

func TestRewriteHiddenLabelYieldsEmpty(t *testing.T) {
	v := nurseView(t)
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	for _, q := range []string{"//clinicalTrial", "//trial", "dept/clinicalTrial", "//regular"} {
		pt, _ := r.Rewrite(xpath.MustParse(q))
		if !xpath.IsEmpty(pt) {
			t.Errorf("Rewrite(%q) = %s, want ∅", q, xpath.String(pt))
		}
	}
}

func TestRewriteQualifierCases(t *testing.T) {
	v := nurseView(t)
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	// A qualifier over a hidden label is false; conjunction with it
	// collapses the branch, negation flips it to true.
	pt, _ := r.Rewrite(xpath.MustParse("//patient[trial]"))
	if !xpath.IsEmpty(pt) {
		t.Errorf("//patient[trial] = %s, want ∅", xpath.String(pt))
	}
	pt, _ = r.Rewrite(xpath.MustParse("//patient[not(trial)]/name"))
	if xpath.IsEmpty(pt) {
		t.Errorf("//patient[not(trial)]/name rewrote to ∅")
	}
	res := xpath.EvalDoc(pt, hospitalInstance())
	if len(res) != 2 {
		t.Errorf("//patient[not(trial)]/name returned %d nodes, want 2", len(res))
	}
}

func TestRewriteUndeclaredAttrQualifierIsEmpty(t *testing.T) {
	// Attribute qualifiers over attributes the view does not expose (here:
	// not even declared in the DTD) rewrite to ∅ — a user can never probe
	// hidden attributes.
	v := nurseView(t)
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	pt, _ := r.Rewrite(xpath.MustParse(`//patient[@accessibility = "1"]`))
	if !xpath.IsEmpty(pt) {
		t.Errorf("undeclared attribute qualifier = %s, want ∅", xpath.String(pt))
	}
}

func TestForViewRecursiveIsHeightFree(t *testing.T) {
	d := dtd.MustParse("root a\na -> b, c\nb -> #PCDATA\nc -> a*\n")
	s := access.MustParseAnnotations(d, "ann(a, c) = N\n")
	v, err := secview.Derive(s)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView on recursive view: %v", err)
	}
	if got := r.Mode(); got != "height-free" {
		t.Errorf("Mode() = %q, want height-free", got)
	}
	if _, err := ForViewWithHeight(v, -1); err == nil {
		t.Errorf("negative height accepted")
	}
}

// recursiveViewFixture builds the Fig. 7(b)-style recursive view: the
// document DTD a -> b, c; c -> a* with c inaccessible and a, b exposed.
func recursiveViewFixture(t *testing.T) (*secview.View, *xmltree.Document) {
	t.Helper()
	d := dtd.MustParse(`
root a
a -> b, c
b -> #PCDATA
c -> a*
`)
	s := access.MustParseAnnotations(d, `
ann(a, c) = N
ann(c, a) = Y
`)
	v, err := secview.Derive(s)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	e, tx := xmltree.E, xmltree.T
	doc := xmltree.NewDocument(e("a", tx("b", "1"),
		e("c",
			e("a", tx("b", "2"), e("c", e("a", tx("b", "3"), e("c")))),
			e("a", tx("b", "4"), e("c")))))
	return v, doc
}

// TestRewriteRecursiveUnfolded exercises Section 4.2: //b over the
// recursive view (a -> b, a*) rewrites through unfolding and finds every
// accessible b, skipping the hidden c spine.
func TestRewriteRecursiveUnfolded(t *testing.T) {
	v, doc := recursiveViewFixture(t)
	if !v.IsRecursive() {
		t.Fatalf("fixture view is not recursive")
	}
	r, err := ForViewWithHeight(v, doc.Height())
	if err != nil {
		t.Fatalf("ForViewWithHeight: %v", err)
	}
	pt, _ := r.Rewrite(xpath.MustParse("//b"))
	res := xpath.EvalDoc(pt, doc)
	if len(res) != 4 {
		t.Fatalf("//b returned %d nodes (%s), want 4", len(res), xpath.String(pt))
	}
	for i, want := range []string{"1", "2", "3", "4"} {
		if res[i].Text() != want {
			t.Errorf("b[%d] = %q, want %q", i, res[i].Text(), want)
		}
	}
	// c never appears even via wildcard or descendant steps.
	for _, q := range []string{"//c", "//*[not(b)]"} {
		pt, _ := r.Rewrite(xpath.MustParse(q))
		for _, n := range xpath.EvalDoc(pt, doc) {
			if n.Label == "c" {
				t.Errorf("%q leaked a c node", q)
			}
		}
	}
}

func TestRewriteRecursiveEquivalence(t *testing.T) {
	v, doc := recursiveViewFixture(t)
	for _, q := range []string{".", "b", "a", "a/b", "//b", "//a", "//a[b = \"3\"]", "a/a/b", "//a[not(a)]"} {
		checkRewrite(t, v, doc, q)
	}
}

// TestRewriteEquivalenceProperty: random queries over view labels are
// equivalent under rewriting.
func TestRewriteEquivalenceProperty(t *testing.T) {
	v := nurseView(t)
	doc := hospitalInstance()
	m, err := secview.Materialize(v, doc)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	labels := append(v.DTD.Types(), "nonexistent")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randViewPath(rng, labels, 3)
		pt, _ := r.Rewrite(p)
		viewRes := xpath.EvalDoc(p, m.View)
		docRes := xpath.EvalDoc(pt, doc)
		want := make(map[*xmltree.Node]bool)
		for _, n := range viewRes {
			want[m.DocOf[n]] = true
		}
		if len(docRes) != len(want) {
			t.Logf("seed %d: %s -> %s: view %d docnodes, doc %d", seed, xpath.String(p), xpath.String(pt), len(want), len(docRes))
			return false
		}
		for _, n := range docRes {
			if !want[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func randViewPath(r *rand.Rand, labels []string, depth int) xpath.Path {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return xpath.Self{}
		case 1:
			return xpath.Wildcard{}
		default:
			return xpath.Label{Name: labels[r.Intn(len(labels))]}
		}
	}
	switch r.Intn(7) {
	case 0, 1:
		return xpath.Seq{Left: randViewPath(r, labels, depth-1), Right: randViewPath(r, labels, depth-1)}
	case 2:
		return xpath.Descend{Sub: randViewPath(r, labels, depth-1)}
	case 3:
		return xpath.Union{Left: randViewPath(r, labels, depth-1), Right: randViewPath(r, labels, depth-1)}
	case 4:
		var q xpath.Qual = xpath.QPath{Path: randViewPath(r, labels, depth-1)}
		if r.Intn(3) == 0 {
			q = xpath.QNot{Sub: q}
		}
		return xpath.Qualified{Sub: randViewPath(r, labels, depth-1), Cond: q}
	default:
		return randViewPath(r, labels, 0)
	}
}

func TestRewriteString(t *testing.T) {
	v := nurseView(t)
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	pt, _ := r.Rewrite(xpath.MustParse("//patient//bill"))
	if out := xpath.String(pt); out == "" || out == "∅" {
		t.Errorf("Rewrite printed %q", out)
	}
}
