package optimize

import (
	"math/rand"
	"testing"

	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestContains(t *testing.T) {
	o := New(dtds.Hospital())
	// Paths are evaluated at the document root element (a hospital node),
	// so steps are root-relative: "dept", not "hospital/dept".
	cases := []struct {
		p1, p2 string
		want   bool
	}{
		{"dept", "dept", true},
		{"dept", "*", true},
		{"//patient/name", "//patient/*", true},
		{"//patient/*", "//patient/name", false},
		{"//patient[.//trial]", "//patient", true}, // qualifier strengthens
		{"//patient", "//patient[.//trial]", false},
		{"//bill", "//bill", true},
		{"//trial//bill", "//bill", true},
		{"//bill", "//dept//bill", true}, // every bill sits under a dept in this DTD
		{"//patientInfo//name", "//dept//name", true},
		{"//dept//name", "//patientInfo//name", false}, // staff names escape patientInfo
		{"dept/staffInfo", "dept/staffInfo | //patient", true},
		{"dept/staffInfo | //patient", "dept/staffInfo", false},
		{"//treatment/trial", "//treatment/*", true},
		{"nosuchlabel", "dept", true}, // ∅ contained in everything
		{"dept", "nosuchlabel", false},
	}
	for _, tc := range cases {
		got := o.contains(xpath.MustParse(tc.p1), xpath.MustParse(tc.p2))
		if got != tc.want {
			t.Errorf("contains(%q, %q) = %v, want %v", tc.p1, tc.p2, got, tc.want)
		}
	}
}

// TestEquivalent: containment in both directions proves equivalence
// under the DTD, and fails where one side selects nodes the other
// cannot.
func TestEquivalent(t *testing.T) {
	o := New(dtds.Hospital())
	cases := []struct {
		p1, p2 string
		want   bool
	}{
		{"//patient/name", "//patient/name", true},
		{"dept | //bill", "//bill | dept", true}, // commuted union
		{"dept", "*", true},                      // hospital's only child type is dept
		{"//patient", "//patient[name]", true},   // name is a required child
		{"//patient", "//patient[.//trial]", false},
		{"//patient/name", "//patient/*", false},
	}
	for _, tc := range cases {
		p1, p2 := xpath.MustParse(tc.p1), xpath.MustParse(tc.p2)
		got := o.contains(p1, p2) && o.contains(p2, p1)
		if got != tc.want {
			t.Errorf("contains both ways (%q, %q) = %v, want %v", tc.p1, tc.p2, got, tc.want)
		}
	}
}

// TestContainsNeverModelsRec: plans carrying Rec automata must never be
// proved contained (the image abstraction cannot see inside them), with
// the one exception of a provably-empty left-hand side.
func TestContainsNeverModelsRec(t *testing.T) {
	o := New(dtd.MustParse("root a\na -> b\nb -> b + c\nc -> #PCDATA\n"))
	rec := xpath.Rec{ResultLabel: "b"}
	if o.contains(rec, rec) {
		t.Errorf("Rec proved contained in itself")
	}
	if o.contains(rec, xpath.MustParse("//b")) || o.contains(xpath.MustParse("//b"), rec) {
		t.Errorf("Rec compared against a plain query was proved contained")
	}
	if !o.contains(xpath.MustParse("nosuchlabel"), rec) {
		t.Errorf("provably-empty query not contained in a Rec plan")
	}
}

// TestContainsSoundOnDocuments is the semantic gate: whenever contains
// proves p1 ⊆ p2 for random query pairs, the result sets on generated
// documents must actually be subsets. (False negatives are fine; a false
// positive here would let the union rule drop a branch that selects
// nodes.)
func TestContainsSoundOnDocuments(t *testing.T) {
	d := dtds.Adex()
	o := New(d)
	labels := append(d.Types(), "nosuch")
	adexDocs := []*xmltree.Document{
		dtds.GenerateAdex(3, 3),
		dtds.GenerateAdex(5, 2),
		dtds.GenerateAdex(9, 4),
	}
	proved := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		p1 := randAdexPath(r, labels, 3)
		p2 := randAdexPath(r, labels, 3)
		if !o.contains(p1, p2) {
			continue
		}
		proved++
		for di, doc := range adexDocs {
			in := make(map[*xmltree.Node]bool)
			for _, n := range xpath.EvalDoc(p2, doc) {
				in[n] = true
			}
			for _, n := range xpath.EvalDoc(p1, doc) {
				if !in[n] {
					t.Fatalf("seed %d: contains(%s, %s) proved, but a selected node is missing from the container on doc %d",
						seed, xpath.String(p1), xpath.String(p2), di)
				}
			}
		}
	}
	if proved < 20 {
		t.Fatalf("only %d/400 random pairs were proved contained; generator too adversarial for the test to mean anything", proved)
	}

	// Also gate the recursive Fig. 7 DTD, where the cycle a -> c -> a*
	// makes image graphs loop back on themselves.
	fo := New(dtds.Fig7())
	fqueries := []string{"//b", "//a/b", "//a//b", "b", "c/a", "//a[b]", "//a", "//c/a/b", ".", "//*", "c/a/c"}
	fdoc := xmlgen.Generate(dtds.Fig7(), xmlgen.Config{Seed: 2, MaxRepeat: 2, MaxDepth: 8})
	for _, q1 := range fqueries {
		for _, q2 := range fqueries {
			p1, p2 := xpath.MustParse(q1), xpath.MustParse(q2)
			if !fo.contains(p1, p2) {
				continue
			}
			in := make(map[*xmltree.Node]bool)
			for _, n := range xpath.EvalDoc(p2, fdoc) {
				in[n] = true
			}
			for _, n := range xpath.EvalDoc(p1, fdoc) {
				if !in[n] {
					t.Errorf("fig7: contains(%q, %q) proved but violated on a document", q1, q2)
				}
			}
		}
	}
}

// TestContainsGuardedUnion: a union is contained only if every branch
// is. The union rule drops a branch on the same simulation, so a guard
// on one branch must not be credited to the others, at the root or
// below it.
func TestContainsGuardedUnion(t *testing.T) {
	o := New(dtd.MustParse("root r\nr -> a*\na -> b*, c*, d*\nb -> #PCDATA\nc -> #PCDATA\nd -> #PCDATA\n"))
	cases := []struct {
		p1, p2 string
		want   bool
	}{
		{".[a/d]/a/b | a/c", ".[a/d]/a/(b | c)", false},
		{".[a/d]/a/b | .[a/d]/a/c", ".[a/d]/a/(b | c)", true},
		{"a/(.[d]/b | c)", "a[d]/(b | c)", false},
		{"a/(.[d]/b | .[d]/c)", "a[d]/(b | c)", true},
	}
	for _, c := range cases {
		if got := o.contains(xpath.MustParse(c.p1), xpath.MustParse(c.p2)); got != c.want {
			t.Errorf("contains(%s, %s) = %v, want %v", c.p1, c.p2, got, c.want)
		}
	}
}
