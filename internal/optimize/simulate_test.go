package optimize

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

func TestPathPrefixImplies(t *testing.T) {
	cases := []struct {
		p1, p2 string
		want   bool
	}{
		{"b/c", "b", true},        // prefix
		{"b/c/d", "b/c", true},    // longer prefix
		{"b", "b/c", false},       // wrong direction
		{"b/c", "c", false},       // not a prefix
		{"b", "b", true},          // equal
		{"b/c", "*", true},        // wildcard weaker
		{"*", "b", false},         // label stronger than wildcard
		{"(b | c)/d", "b", false}, // a c/d witness has no b
		{"(b | b)/d", "b", true},  // all branches imply b
		{"b/c", "b | x", true},    // union consequent: one side suffices
		{"b[d]/c", "b", true},     // qualifier on antecedent strengthens
		{"b/c", "b[d]", false},    // qualifier on consequent must be implied
		{"b[d]/c", "b[d]", true},  // identical qualified step
		{"//b", "b", false},       // descendant steps not modeled
		{"text()", "*", false},    // text is not an element child
	}
	for _, tc := range cases {
		got := pathPrefixImplies(xpath.MustParse(tc.p1), xpath.MustParse(tc.p2))
		if got != tc.want {
			t.Errorf("pathPrefixImplies(%q, %q) = %v, want %v", tc.p1, tc.p2, got, tc.want)
		}
	}
}

func TestQualImplies(t *testing.T) {
	o := New(dtd.MustParse("root r\nr -> a*\na -> b*\nb -> c*\nc -> #PCDATA\n"))
	cases := []struct {
		q1, q2 string
		want   bool
	}{
		{"b/c", "b", true},
		{"b", "b/c", false},
		{"b and c", "b", true},        // conjunct implies
		{"b", "b or c", true},         // consequent disjunction
		{"b or c", "b", false},        // c-witness has no b
		{"b or b/c", "b", true},       // all antecedent branches imply
		{"b", "b and b", true},        // consequent conjunction
		{`b = "1"`, "b", true},        // equality implies existence
		{`b = "1"`, `b = "1"`, true},  // identical comparison
		{`b = "1"`, `b = "2"`, false}, // different constants
		{"not(b)", "not(b)", true},    // identical negations
		{"not(b)", "b", false},        // negation is opaque
		{"b", "true()", true},         // everything implies true
		{"false()", "b", true},        // false implies everything
	}
	for _, tc := range cases {
		q1 := xpath.MustParseQual(tc.q1)
		q2 := xpath.MustParseQual(tc.q2)
		if got := o.qualImplies(q1, q2, "a"); got != tc.want {
			t.Errorf("qualImplies(%q, %q) = %v, want %v", tc.q1, tc.q2, got, tc.want)
		}
	}
}

func TestFirstRequired(t *testing.T) {
	cases := []struct {
		q    string
		want []string
		ok   bool
	}{
		{"b/c", []string{"b"}, true},
		{"b | c", []string{"b", "c"}, true},
		{"(b | c)/d", []string{"b", "c"}, true},
		{"b[x]/y", []string{"b"}, true},
		{`b = "1"`, []string{"b"}, true},
		{"//b", nil, false},
		{".", nil, false},
		{"*", nil, false},
		{"text()", nil, false},
	}
	for _, tc := range cases {
		q, err := xpath.ParseQual(tc.q)
		if err != nil {
			t.Fatalf("ParseQual(%q): %v", tc.q, err)
		}
		got, ok := firstRequired(q)
		if ok != tc.ok {
			t.Errorf("firstRequired(%q) ok = %v, want %v", tc.q, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("firstRequired(%q) = %v, want %v", tc.q, got, tc.want)
			continue
		}
		for _, w := range tc.want {
			if !got[w] {
				t.Errorf("firstRequired(%q) missing %s", tc.q, w)
			}
		}
	}
}

func TestImageBudgetOverflow(t *testing.T) {
	// A query with many frontier occurrences and deep continuations can
	// exceed the budget; the optimizer must then skip containment and
	// leave the union intact, never collapse or error.
	var wide string
	for i := 0; i < 14; i++ {
		if i > 0 {
			wide += "/"
		}
		wide += "(b | b | b | b)"
	}
	d := dtd.MustParse("root a\na -> b\nb -> b + c\nc -> #PCDATA\n")
	o := New(d)
	p := xpath.MustParse(wide + " | nosuchlabel")
	po, _, _ := o.Optimize(p)
	if xpath.IsEmpty(po) {
		t.Fatalf("overflow turned a live query into ∅")
	}

	// Branches that each fit the budget but together exceed it: the
	// range holding both must overflow, as the image of their union
	// built at once does, while each branch alone is still compared.
	x := strings.Repeat("(b | b | b | b)/", 4) + "(b | b)/"
	left := xpath.Union{Left: xpath.MustParse(x + "c"), Right: xpath.MustParse(x + "(c | b)")}
	u := o.newUnionPass(xpath.Union{Left: left, Right: xpath.MustParse(x + "b")}, "a")
	for i, b := range u.branches {
		if b.overflow || b.size > imageBudget {
			t.Fatalf("branch %d alone overflows (size %d); shrink the test query", i, b.size)
		}
	}
	if _, ok := u.image(0, 2); ok {
		t.Errorf("branches of sizes %d and %d composed within the budget %d", u.branches[0].size, u.branches[1].size, imageBudget)
	}
	if _, ok := o.image(left, "a"); ok {
		t.Errorf("image of the union built at once fits the budget; the test no longer straddles it")
	}
	for _, r := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if _, ok := u.image(r[0], r[1]); !ok {
			t.Errorf("branch range %v overflowed alone", r)
		}
	}
}

// TestOptimizeRecursiveSemantics: optimization over a recursive DTD must
// preserve results on generated documents.
func TestOptimizeRecursiveSemantics(t *testing.T) {
	d := dtds.Fig7()
	o := New(d)
	queries := []string{
		"//b", "//a/b", "//c/a", "a | //a", "//a[b]", "//a[not(c)]",
		"c/a/b", "//c[a/b]", "//a[b and c]", "//*",
	}
	for seed := int64(0); seed < 4; seed++ {
		doc := xmlgen.Generate(d, xmlgen.Config{Seed: seed, MaxRepeat: 2, MaxDepth: 6})
		for _, q := range queries {
			p := xpath.MustParse(q)
			po, _, _ := o.Optimize(p)
			a := xpath.EvalDoc(p, doc)
			b := xpath.EvalDoc(po, doc)
			if len(a) != len(b) {
				t.Errorf("seed %d %q -> %q: %d vs %d nodes", seed, q, xpath.String(po), len(a), len(b))
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("seed %d %q: node %d differs", seed, q, i)
				}
			}
		}
	}
}

// TestOptimizeAdexSemanticsProperty fuzzes the optimizer over the Adex
// DTD with generated documents.
func TestOptimizeAdexSemanticsProperty(t *testing.T) {
	d := dtds.Adex()
	o := New(d)
	doc := dtds.GenerateAdex(5, 4)
	labels := append(d.Types(), "nosuch")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randAdexPath(r, labels, 3)
		po, _, _ := o.Optimize(p)
		a := xpath.EvalDoc(p, doc)
		b := xpath.EvalDoc(po, doc)
		if len(a) != len(b) {
			t.Logf("seed %d: %s -> %s: %d vs %d", seed, xpath.String(p), xpath.String(po), len(a), len(b))
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func randAdexPath(r *rand.Rand, labels []string, depth int) xpath.Path {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return xpath.Self{}
		case 1:
			return xpath.Wildcard{}
		case 2:
			return anyDescendant
		default:
			return xpath.Label{Name: labels[r.Intn(len(labels))]}
		}
	}
	switch r.Intn(8) {
	case 0, 1:
		return xpath.Seq{Left: randAdexPath(r, labels, depth-1), Right: randAdexPath(r, labels, depth-1)}
	case 2:
		return xpath.Descend{Sub: randAdexPath(r, labels, depth-1)}
	case 3:
		return xpath.Union{Left: randAdexPath(r, labels, depth-1), Right: randAdexPath(r, labels, depth-1)}
	case 4:
		guard := xpath.QPath{Path: randAdexPath(r, labels, depth-1)}
		return xpath.Union{Left: guarded(guard, randAdexPath(r, labels, depth-1)), Right: randAdexPath(r, labels, depth-1)}
	case 5:
		var q xpath.Qual = xpath.QPath{Path: randAdexPath(r, labels, depth-1)}
		switch r.Intn(3) {
		case 0:
			q = xpath.QAnd{Left: q, Right: xpath.QPath{Path: randAdexPath(r, labels, depth-1)}}
		case 1:
			q = xpath.QNot{Sub: q}
		}
		return xpath.Qualified{Sub: randAdexPath(r, labels, depth-1), Cond: q}
	default:
		return randAdexPath(r, labels, 0)
	}
}
