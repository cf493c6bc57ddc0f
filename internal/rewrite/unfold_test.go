package rewrite

import (
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/secview"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestUnfoldShape(t *testing.T) {
	v, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	unfolded, orig, sigma := unfold(v, 3)
	if unfolded.IsRecursive() {
		t.Fatalf("unfolded DTD still recursive")
	}
	if unfolded.Root() != "a" {
		t.Errorf("root = %q", unfolded.Root())
	}
	// Levels 0..3 of a exist; the frontier level has no element children.
	for _, typ := range []string{"a", "a@1", "a@2", "a@3"} {
		if !unfolded.Has(typ) {
			t.Errorf("missing level copy %s", typ)
		}
	}
	if unfolded.Has("a@4") {
		t.Errorf("unfolding went past the height")
	}
	frontier := unfolded.MustProduction("a@3")
	if frontier.Kind != dtd.Empty {
		t.Errorf("frontier production = %v, want EMPTY", frontier)
	}
	// orig maps copies back to view labels.
	if orig["a@2"] != "a" || orig["a"] != "a" {
		t.Errorf("orig mapping wrong: %v", orig)
	}
	// σ edges carry over per level.
	if _, ok := sigma[[2]string{"a", "a@1"}]; !ok {
		t.Errorf("missing σ(a, a@1)")
	}
	if _, ok := sigma[[2]string{"a@1", "a@2"}]; !ok {
		t.Errorf("missing σ(a@1, a@2)")
	}
}

func TestUnfoldHeightZero(t *testing.T) {
	v, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	r, err := ForViewWithHeight(v, 0)
	if err != nil {
		t.Fatalf("ForViewWithHeight(0): %v", err)
	}
	// A height-0 document is a lone root; //b rewrites to ∅... except b is
	// a direct child in the view, whose unfolding at height 0 has no
	// children at all.
	pt, _ := r.Rewrite(xpath.MustParse("//b"))
	if !xpath.IsEmpty(pt) {
		t.Errorf("//b at height 0 = %s", xpath.String(pt))
	}
}

// TestRecursiveEquivalenceGenerated checks p(T_v) = p_t(T) on generated
// recursive documents of varying depth.
func TestRecursiveEquivalenceGenerated(t *testing.T) {
	v, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	queries := []string{"//b", "//a/b", "a/b", "a/a/b", "//a[b]", "//a[not(a)]/b", "*", "//*"}
	for seed := int64(0); seed < 6; seed++ {
		doc := xmlgen.Generate(dtds.Fig7(), xmlgen.Config{Seed: seed, MinRepeat: 0, MaxRepeat: 2, MaxDepth: 7})
		m, err := secview.Materialize(v, doc)
		if err != nil {
			t.Fatalf("seed %d: Materialize: %v", seed, err)
		}
		r, err := ForViewWithHeight(v, doc.Height())
		if err != nil {
			t.Fatalf("seed %d: rewriter: %v", seed, err)
		}
		for _, q := range queries {
			p := xpath.MustParse(q)
			pt, _ := r.Rewrite(p)
			want := make(map[*xmltree.Node]bool)
			for _, n := range xpath.EvalDoc(p, m.View) {
				want[m.DocOf[n]] = true
			}
			got := xpath.EvalDoc(pt, doc)
			if len(got) != len(want) {
				t.Errorf("seed %d: %q: view %d docnodes, rewritten %d", seed, q, len(want), len(got))
				continue
			}
			for _, n := range got {
				if !want[n] {
					t.Errorf("seed %d: %q: extra node %s", seed, q, n.Path())
				}
			}
		}
	}
}

// TestAdexEquivalenceGenerated pins the rewriting correctness on the
// Section 6 scenario with generated data.
func TestAdexEquivalenceGenerated(t *testing.T) {
	v, err := secview.Derive(dtds.AdexSpec())
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	doc := dtds.GenerateAdex(21, 6)
	m, err := secview.Materialize(v, doc)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	queries := []string{
		"//buyer-info/contact-info",
		"//house/r-e.warranty | //apartment/r-e.warranty",
		"//buyer-info[//company-id and //contact-info]",
		"//real-estate[house/r-e.asking-price and apartment/r-e.unit-type]",
		"buyer-info",
		"real-estate/*",
		"//location/city",
		"//house[//garage]",
		"//billing-info", // hidden
	}
	for _, q := range queries {
		p := xpath.MustParse(q)
		pt, _ := r.Rewrite(p)
		want := make(map[*xmltree.Node]bool)
		for _, n := range xpath.EvalDoc(p, m.View) {
			want[m.DocOf[n]] = true
		}
		got := xpath.EvalDoc(pt, doc)
		if len(got) != len(want) {
			t.Errorf("%q: view %d docnodes, rewritten %d (%s)", q, len(want), len(got), xpath.String(pt))
			continue
		}
		for _, n := range got {
			if !want[n] {
				t.Errorf("%q: extra node %s", q, n.Path())
			}
		}
	}
}

// TestRecrwSharing: recrw over a diamond-heavy DAG must stay linear in
// memory thanks to shared sub-expressions; a panic or timeout here would
// indicate exponential expansion.
func TestRecrwSharing(t *testing.T) {
	// Build a chain of diamonds: d0 -> (l1|r1) -> d1 -> (l2|r2) -> d2 ...
	// The number of label paths doubles per diamond (2^20 total) but the
	// shared representation stays small.
	const diamonds = 20
	d := dtd.New("d0")
	for i := 0; i < diamonds; i++ {
		l := namef("l%d", i+1)
		rr := namef("r%d", i+1)
		next := namef("d%d", i+1)
		d.SetProduction(namef("d%d", i), dtd.ChoiceContent(l, rr))
		d.SetProduction(l, dtd.SeqContent(next))
		d.SetProduction(rr, dtd.SeqContent(next))
	}
	d.SetProduction(namef("d%d", diamonds), dtd.TextContent())
	if err := d.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	v, err := secview.Derive(access.NewSpec(d))
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	pt, _ := r.Rewrite(xpath.MustParse("//" + namef("d%d", diamonds)))
	if xpath.IsEmpty(pt) {
		t.Fatalf("deep target not reached")
	}
}

func namef(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// TestForumRecursiveRewriting exercises Section 4.2 on the realistic
// recursive forum scenario: guests query nested threads, moderation
// notes never appear, and rewriting is equivalent to querying the view.
func TestForumRecursiveRewriting(t *testing.T) {
	v, err := secview.Derive(dtds.ForumGuestSpec())
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	doc := dtds.GenerateForum(4, 2, 7)
	m, err := secview.Materialize(v, doc)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	r, err := ForViewWithHeight(v, doc.Height())
	if err != nil {
		t.Fatalf("rewriter: %v", err)
	}
	for _, q := range []string{
		"//post/body",
		"//thread/replies/thread/post/author",
		"//modnote",
		"//thread[not(replies/thread)]",
		"thread/post",
	} {
		p := xpath.MustParse(q)
		pt, _ := r.Rewrite(p)
		want := make(map[*xmltree.Node]bool)
		for _, n := range xpath.EvalDoc(p, m.View) {
			want[m.DocOf[n]] = true
		}
		got := xpath.EvalDoc(pt, doc)
		if len(got) != len(want) {
			t.Errorf("%q: view %d docnodes, rewritten %d", q, len(want), len(got))
			continue
		}
		for _, n := range got {
			if !want[n] {
				t.Errorf("%q: extra node %s", q, n.Path())
			}
			if n.Label == "modnote" {
				t.Errorf("%q: moderation note leaked", q)
			}
		}
	}
}
