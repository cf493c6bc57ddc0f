package optimize

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// fig8 builds the three mini DTDs of the paper's Example 5.1 / Fig. 8.
func fig8a() *dtd.DTD {
	return dtd.MustParse("root r\nr -> a*\na -> b, c\nb -> #PCDATA\nc -> #PCDATA\n")
}

func fig8b() *dtd.DTD {
	return dtd.MustParse("root r\nr -> a*\na -> b + c\nb -> #PCDATA\nc -> #PCDATA\n")
}

func fig8c() *dtd.DTD {
	return dtd.MustParse("root r\nr -> a, b\na -> c\nb -> d\nc -> #PCDATA\nd -> #PCDATA\n")
}

// optimized is Optimize's plan without its counts.
func optimized(o *Optimizer, p xpath.Path) xpath.Path {
	out, _, _ := o.Optimize(p)
	return out
}

func optString(t *testing.T, d *dtd.DTD, query string) string {
	t.Helper()
	out, _, _ := New(d).Optimize(xpath.MustParse(query))
	return xpath.String(out)
}

// TestExample51 pins the paper's Example 5.1.
func TestExample51(t *testing.T) {
	// Co-existence: //a[b and c] ≡ //a when a -> b, c.
	got := optString(t, fig8a(), "//a[b and c]")
	if got != "a" { // expanded: the only a position is r/a
		t.Errorf("co-existence: got %q, want %q", got, "a")
	}
	// Exclusive: //a[b and c] ≡ ∅ when a -> b + c.
	got = optString(t, fig8b(), "//a[b and c]")
	if got != "∅" {
		t.Errorf("exclusive: got %q, want ∅", got)
	}
	// Non-existence: (a | b)/c ≡ a/c when b has no c child.
	got = optString(t, fig8c(), "(a | b)/c")
	if got != "a/c" {
		t.Errorf("non-existence: got %q, want a/c", got)
	}
}

// fig9 is the DTD of the paper's Fig. 9(a): a -> b?, c?; b -> d; c -> d;
// d -> e?, f?; e -> g; f -> g, expressed in normal form with choices over
// the children a query mentions. The paper draws it as a DAG with a
// having b,c children, both reaching d, d reaching e,f, both reaching g.
func fig9() *dtd.DTD {
	return dtd.MustParse(`
root a
a -> b, c
b -> d
c -> d
d -> e, f
e -> g
f -> g
g -> #PCDATA
`)
}

// TestExample52And53 pins the image-graph containment relations of the
// paper's Examples 5.2/5.3.
func TestExample52And53(t *testing.T) {
	o := New(fig9())
	p1 := xpath.MustParse("a[b]/*/d/*/g")
	p2 := xpath.MustParse("a[b]/(b | c)/d/(e | f)/g")
	p3 := xpath.MustParse("a[b]/b/d/e/g | a/b/d/f/g")
	// Images are computed at the node a; in our DTD a is the root, so use
	// a query context of the root type itself. Build the images at "a" by
	// wrapping: the paper's context node is an a element.
	at := "a"
	// The paths start with label a, so evaluate their tails at a: strip
	// the leading a[...] by evaluating images of the full paths at a
	// pseudo-parent. Simpler: compare the tails at a.
	t1 := xpath.MustParse(".[b]/*/d/*/g")
	t2 := xpath.MustParse(".[b]/(b | c)/d/(e | f)/g")
	t3 := xpath.MustParse(".[b]/b/d/e/g | ./b/d/f/g")
	_ = []xpath.Path{p1, p2, p3}
	g1, ok1 := o.image(t1, at)
	g2, ok2 := o.image(t2, at)
	g3, ok3 := o.image(t3, at)
	if !ok1 || !ok2 || !ok3 || g1 == nil || g2 == nil || g3 == nil {
		t.Fatalf("images empty: %v %v %v", g1, g2, g3)
	}
	// Example 5.3: p2, p3 ⊑ p1; p3 ⊑ p2; but p2's image is NOT simulated
	// by p3's.
	if !o.simulate(g2, g1) {
		t.Errorf("image(p2) not simulated by image(p1)")
	}
	if !o.simulate(g3, g1) {
		t.Errorf("image(p3) not simulated by image(p1)")
	}
	if !o.simulate(g3, g2) {
		t.Errorf("image(p3) not simulated by image(p2)")
	}
	if o.simulate(g2, g3) {
		t.Errorf("image(p2) simulated by image(p3); the approximation should miss this direction")
	}
	// The qualifier [b] is true at a (concatenation production) and must
	// have been removed from all three images: no qual nodes anywhere.
	for i, g := range []*inode{g1, g2, g3} {
		if countQuals(g, make(map[*inode]bool)) != 0 {
			t.Errorf("image %d kept qualifiers", i+1)
		}
	}
}

func countQuals(n *inode, seen map[*inode]bool) int {
	if seen[n] {
		return 0
	}
	seen[n] = true
	total := len(n.quals)
	for _, k := range n.kids {
		total += countQuals(k, seen)
	}
	return total
}

// TestUnionPruning: redundant union branches are removed via simulation.
func TestUnionPruning(t *testing.T) {
	// p3 ⊑ p2 at a, so p2 ∪ p3 reduces to p2's optimization.
	got := optString(t, fig9(), ".[b]/(b | c)/d/(e | f)/g | .[b]/b/d/e/g")
	want := optString(t, fig9(), ".[b]/(b | c)/d/(e | f)/g")
	if got != want {
		t.Errorf("union not pruned: got %q, want %q", got, want)
	}
}

// TestExample54 reproduces the paper's Example 5.4 on the hospital DTD:
// //patient ∪ //(patient|staff)[//medication] reduces to the expansion of
// //patient alone.
func TestExample54(t *testing.T) {
	d := dtd.MustParse(`
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
`)
	got := optString(t, d, "//patient | //(patient | staff)[//medication]")
	want := optString(t, d, "//patient")
	if got != want {
		t.Errorf("Example 5.4: got %q, want %q", got, want)
	}
	// And the expansion itself is the precise root path of the paper.
	if want != "dept/(clinicalTrial | .)/patientInfo/patient" &&
		want != "dept/(. | clinicalTrial)/patientInfo/patient" {
		t.Logf("note: expansion rendered as %q", want)
	}
}

// adexMini is a cut-down Adex-like DTD with the constraints Section 6
// exploits.
func adexMini() *dtd.DTD {
	return dtd.MustParse(`
root adex
adex -> head, body
head -> buyer-info*
buyer-info -> company-id, contact-info
company-id -> #PCDATA
contact-info -> #PCDATA
body -> ad-instance*
ad-instance -> real-estate
real-estate -> house + apartment
house -> r-e.asking-price, r-e.warranty
apartment -> r-e.unit-type
r-e.asking-price -> #PCDATA
r-e.warranty -> #PCDATA
r-e.unit-type -> #PCDATA
`)
}

// TestSection6Queries pins the optimizer behaviour Table 1 relies on.
func TestSection6Queries(t *testing.T) {
	d := adexMini()
	// Q1: '//' expansion to the precise root path.
	if got := optString(t, d, "//buyer-info/contact-info"); got != "head/buyer-info/contact-info" {
		t.Errorf("Q1 = %q", got)
	}
	// Q2: the apartment branch is pruned (non-existence).
	got := optString(t, d, "//house/r-e.warranty | //apartment/r-e.warranty")
	if got != "body/ad-instance/real-estate/house/r-e.warranty" {
		t.Errorf("Q2 = %q", got)
	}
	// Q3: the co-existence constraint removes the qualifier entirely.
	if got := optString(t, d, "//buyer-info[company-id and contact-info]"); got != "head/buyer-info" {
		t.Errorf("Q3 = %q", got)
	}
	// Q4: the exclusive constraint proves the query empty.
	if got := optString(t, d, "//real-estate[house/r-e.asking-price and apartment/r-e.unit-type]"); got != "∅" {
		t.Errorf("Q4 = %q", got)
	}
}

// TestOptimizeRecursiveFallback: '//' over a recursive DTD keeps the
// descendant step but still prunes impossible branches.
func TestOptimizeRecursiveFallback(t *testing.T) {
	d := dtd.MustParse(`
root a
a -> b, c
b -> #PCDATA
c -> a*
`)
	got := optString(t, d, "//b | //nosuch")
	// The recursive fallback keeps descendant steps: (. | //a)/b is the
	// per-target form of //b here (b's parents are self or descendant a's).
	if got != "//b" && got != "(. | //a)/b" {
		t.Errorf("recursive //: got %q", got)
	}
	if got := optString(t, d, "//c/b"); got != "∅" {
		t.Errorf("//c/b over recursive DTD = %q, want ∅ (c has no b child)", got)
	}
	if got := optString(t, d, "//c/a/b"); got == "∅" {
		t.Errorf("//c/a/b over recursive DTD pruned incorrectly")
	}
}

func hospitalInstanceDoc() *xmltree.Document {
	e, tx := xmltree.E, xmltree.T
	return xmltree.NewDocument(e("hospital",
		e("dept",
			e("clinicalTrial",
				e("patientInfo",
					e("patient", tx("name", "Carol"), tx("wardNo", "6"),
						e("treatment", e("trial", tx("bill", "900")))))),
			e("patientInfo",
				e("patient", tx("name", "Alice"), tx("wardNo", "6"),
					e("treatment", e("regular", tx("bill", "100"), tx("medication", "aspirin"))))),
			e("staffInfo", e("staff", e("nurse", tx("name", "Nina")))),
		),
		e("dept",
			e("clinicalTrial", e("patientInfo")),
			e("patientInfo",
				e("patient", tx("name", "Bob"), tx("wardNo", "7"),
					e("treatment", e("regular", tx("bill", "70"), tx("medication", "ibuprofen"))))),
			e("staffInfo", e("staff", e("doctor", tx("name", "Dan")))),
		),
	))
}

var hospitalLabels = []string{"hospital", "dept", "clinicalTrial", "patientInfo", "patient", "name", "wardNo", "treatment", "trial", "regular", "bill", "medication", "staffInfo", "staff", "doctor", "nurse", "nosuch"}

func randDocPath(r *rand.Rand, depth int) xpath.Path {
	if depth <= 0 {
		switch r.Intn(7) {
		case 0:
			return xpath.Self{}
		case 1:
			return xpath.Wildcard{}
		case 2:
			return anyDescendant
		default:
			return xpath.Label{Name: hospitalLabels[r.Intn(len(hospitalLabels))]}
		}
	}
	switch r.Intn(8) {
	case 0, 1:
		return xpath.Seq{Left: randDocPath(r, depth-1), Right: randDocPath(r, depth-1)}
	case 2:
		return xpath.Descend{Sub: randDocPath(r, depth-1)}
	case 3:
		return xpath.Union{Left: randDocPath(r, depth-1), Right: randDocPath(r, depth-1)}
	case 4:
		return xpath.Union{Left: guarded(randDocQual(r, depth-1), randDocPath(r, depth-1)), Right: randDocPath(r, depth-1)}
	case 5:
		return xpath.Qualified{Sub: randDocPath(r, depth-1), Cond: randDocQual(r, depth-1)}
	default:
		return randDocPath(r, 0)
	}
}

// anyDescendant is //., which selects text nodes as well as elements.
var anyDescendant = xpath.Descend{Sub: xpath.Self{}}

// guarded is the qualifier-guarded union branch .[q]/p: the guard holds
// at the branch's context only, not for the union's other branches.
func guarded(q xpath.Qual, p xpath.Path) xpath.Path {
	return xpath.Seq{Left: xpath.Qualified{Sub: xpath.Self{}, Cond: q}, Right: p}
}

func randDocQual(r *rand.Rand, depth int) xpath.Qual {
	switch r.Intn(5) {
	case 0:
		return xpath.QAnd{Left: xpath.QPath{Path: randDocPath(r, depth)}, Right: xpath.QPath{Path: randDocPath(r, depth)}}
	case 1:
		return xpath.QNot{Sub: xpath.QPath{Path: randDocPath(r, depth)}}
	case 2:
		return xpath.QEq{Path: randDocPath(r, depth), Value: "6"}
	case 3:
		return xpath.QOr{Left: xpath.QPath{Path: randDocPath(r, depth)}, Right: xpath.QPath{Path: randDocPath(r, depth)}}
	default:
		return xpath.QPath{Path: randDocPath(r, depth)}
	}
}

// TestOptimizePreservesSemantics: optimization must never change query
// results on a conforming document, for random queries of the full
// fragment C.
func TestOptimizePreservesSemantics(t *testing.T) {
	d := dtd.MustParse(`
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
`)
	doc := hospitalInstanceDoc()
	if err := xmltree.Validate(doc, d); err != nil {
		t.Fatalf("fixture does not conform: %v", err)
	}
	o := New(d)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randDocPath(r, 3)
		po, _, _ := o.Optimize(p)
		before := xpath.EvalDoc(p, doc)
		after := xpath.EvalDoc(po, doc)
		if len(before) != len(after) {
			t.Logf("seed %d: %s -> %s: %d vs %d nodes", seed, xpath.String(p), xpath.String(po), len(before), len(after))
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				t.Logf("seed %d: %s -> %s: node mismatch", seed, xpath.String(p), xpath.String(po))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestOptimizeQualifierCases covers the qualifier simplifier.
func TestOptimizeQualifierCases(t *testing.T) {
	d := fig8a() // r -> a*; a -> b, c
	cases := []struct {
		in, want string
	}{
		{"a[b]", "a"},                    // guaranteed
		{"a[nosuch]", "∅"},               // impossible
		{"a[not(nosuch)]", "a"},          // ¬false
		{"a[not(b)]", "∅"},               // ¬true
		{"a[b or nosuch]", "a"},          // true ∨ _
		{"a[nosuch or nosuch]", "∅"},     // false ∨ false
		{"a[b and nosuch]", "∅"},         // _ ∧ false
		{"a[b = \"1\"]", "a[b = \"1\"]"}, // content-based: kept
		{"a[nosuch = \"1\"]", "∅"},       // impossible comparison
	}
	for _, tc := range cases {
		if got := optString(t, d, tc.in); got != tc.want {
			t.Errorf("optimize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestQualContainment: [b and b/...] style redundant conjuncts collapse.
func TestQualContainment(t *testing.T) {
	d := dtd.MustParse(`
root r
r -> a*
a -> b*
b -> c*
c -> #PCDATA
`)
	// [b/c] implies [b]; the conjunction keeps only the stronger.
	got := optString(t, d, "a[b/c and b]")
	if got != "a[b/c]" {
		t.Errorf("containment conjunction = %q, want a[b/c]", got)
	}
	// Different constants must not collapse.
	got = optString(t, d, `a[b/c = "1" and b/c = "2"]`)
	if got != `a[b/c = "1" and b/c = "2"]` {
		t.Errorf("distinct constants collapsed: %q", got)
	}
}

func TestOptimizeAtNonRoot(t *testing.T) {
	d := fig8a()
	o := New(d)
	po, _, _ := o.OptimizeAt(xpath.MustParse(".[b and c]"), "a")
	if got := xpath.String(po); got != "." {
		t.Errorf("OptimizeAt(a) = %q, want .", got)
	}
	po, _, _ = o.OptimizeAt(xpath.MustParse(".[b and c]"), "r")
	if got := xpath.String(po); got != "∅" {
		t.Errorf("OptimizeAt(r) = %q, want ∅ (r has no b/c children)", got)
	}
}

// TestUnionKeepsDescendSelfBranch is a regression test: image
// construction for (//.)/wardNo over a DTD with a shared spine node
// (patientInfo under both dept and clinicalTrial) used to consume the
// frontier of spliced continuations on the second visit, judging the
// branch empty and letting union pruning drop it.
func TestUnionKeepsDescendSelfBranch(t *testing.T) {
	d := dtd.MustParse(`
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
`)
	o := New(d)
	left := xpath.MustParse("(//.)/wardNo")
	g1, ok := o.image(left, "hospital")
	if !ok || g1 == nil {
		t.Fatalf("image of a live query is empty")
	}
	doc := hospitalInstanceDoc()
	p := xpath.Union{Left: left, Right: xpath.Wildcard{}}
	po, _, _ := o.Optimize(p)
	before := xpath.EvalDoc(p, doc)
	after := xpath.EvalDoc(po, doc)
	if len(before) != len(after) {
		t.Fatalf("union branch dropped: %d vs %d (%s)", len(before), len(after), xpath.String(po))
	}
}

// TestUnionRootQualifiersNotPooled: a qualifier guarding one union
// branch holds for that branch's nodes only. Pooled at the merged root
// of the union's image, it let .[a/d]/a/b | a/c prove itself contained
// in .[a/d]/a/(b | c), and the optimizer then dropped the unguarded a/c.
func TestUnionRootQualifiersNotPooled(t *testing.T) {
	d := dtd.MustParse("root r\nr -> a*\na -> b*, c*, d*\nb -> #PCDATA\nc -> #PCDATA\nd -> #PCDATA\n")
	doc, err := xmltree.ParseString("<r><a><b>x</b><c>y</c><c>z</c></a></r>")
	if err != nil {
		t.Fatal(err)
	}
	p := xpath.MustParse("(.[a/d]/a/b | a/c) | .[a/d]/a/(b | c)")
	po, _, _ := New(d).Optimize(p)
	want, err := xpath.EvalRef(p, []*xmltree.Node{doc.Root})
	if err != nil {
		t.Fatal(err)
	}
	got, err := xpath.EvalRef(po, []*xmltree.Node{doc.Root})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || len(got) != len(want) {
		t.Errorf("%s selects %d nodes, optimized %s selects %d", xpath.String(p), len(want), xpath.String(po), len(got))
	}
}

// TestGuardedUnionSemantics: unions in which a guarded branch sits next
// to an unguarded one, and next to a guarded branch that covers both,
// optimize to equivalent queries. The reference evaluator checks them on
// generated documents where the guards sometimes fail.
func TestGuardedUnionSemantics(t *testing.T) {
	d := dtd.MustParse("root r\nr -> a*\na -> b*, c*, d*\nb -> #PCDATA\nc -> #PCDATA\nd -> #PCDATA\n")
	o := New(d)
	var docs []*xmltree.Document
	for seed := int64(0); seed < 6; seed++ {
		docs = append(docs, xmlgen.Generate(d, xmlgen.Config{Seed: seed, MaxRepeat: 2}))
	}
	labels := []string{"a", "b", "c", "d"}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		g := xpath.QPath{Path: randAdexPath(r, labels, 1)}
		y, z := randAdexPath(r, labels, 2), randAdexPath(r, labels, 2)
		var w xpath.Path = xpath.Union{Left: y, Right: z}
		if r.Intn(3) == 0 {
			w = randAdexPath(r, labels, 2)
		}
		var p xpath.Path = xpath.Union{Left: xpath.Union{Left: guarded(g, y), Right: z}, Right: guarded(g, w)}
		if r.Intn(2) == 0 {
			p = xpath.Union{Left: guarded(g, w), Right: xpath.Union{Left: z, Right: guarded(g, y)}}
		}
		po, _, _ := o.Optimize(p)
		for j, doc := range docs {
			want, err1 := xpath.EvalRef(p, []*xmltree.Node{doc.Root})
			got, err2 := xpath.EvalRef(po, []*xmltree.Node{doc.Root})
			if err1 != nil || err2 != nil || len(want) != len(got) {
				t.Fatalf("doc %d: %s selects %d nodes, optimized %s selects %d (%v, %v)",
					j, xpath.String(p), len(want), xpath.String(po), len(got), err1, err2)
			}
			for k := range want {
				if want[k] != got[k] {
					t.Fatalf("doc %d: %s and optimized %s differ at node %d", j, xpath.String(p), xpath.String(po), k)
				}
			}
		}
	}
}

// TestDescendSelfKeepsText: //. selects the text nodes below a context
// as well as its elements, so its image must carry them and //. is not
// contained in ".". When the image left them out, the union pass
// dropped the //. branch of //name/(//. | .) and the query returned 12
// of its 24 nodes on this document.
func TestDescendSelfKeepsText(t *testing.T) {
	doc := dtds.GenerateHospital(3, 3)
	o := New(dtds.Hospital())
	for _, tc := range []struct {
		q    string
		want int
	}{
		{"//name/(//. | .)", 24},
		{"(//(.[clinicalTrial or .]/staffInfo | .))[not(//. | dept[bill])]", -1},
	} {
		p := xpath.MustParse(tc.q)
		po, _, _ := o.Optimize(p)
		before, after := xpath.EvalDoc(p, doc), xpath.EvalDoc(po, doc)
		if tc.want >= 0 && len(before) != tc.want {
			t.Fatalf("%s selects %d nodes unoptimized, want %d", tc.q, len(before), tc.want)
		}
		if !reflect.DeepEqual(before, after) {
			t.Errorf("%s -> %s: %d nodes, want %d", tc.q, xpath.String(po), len(after), len(before))
		}
	}
}
