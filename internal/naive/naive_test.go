package naive

import (
	"testing"

	"repro/internal/access"
	"repro/internal/dtds"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestRewriteQueryRules(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"a/b", `((//a)//b)[@accessibility = "1"]`},
		{"//a", `(//a)[@accessibility = "1"]`},
		{"a[b]", `(//a)[//b][@accessibility = "1"]`},
		{"a | b", `(//a | //b)[@accessibility = "1"]`},
		{"∅", "∅"},
	}
	for _, tc := range cases {
		p, err := RewriteQuery(xpath.MustParse(tc.in))
		if err != nil {
			t.Fatalf("RewriteQuery(%q): %v", tc.in, err)
		}
		if got := xpath.String(p); got != tc.want {
			t.Errorf("RewriteQuery(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestAnnotate(t *testing.T) {
	spec := dtds.AdexSpec()
	doc := dtds.GenerateAdex(1, 3)
	Annotate(spec, doc)
	acc := access.Accessibility(spec, doc)
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if n.Kind != xmltree.ElementNode {
			return true
		}
		v, ok := n.Attr(AttrName)
		if !ok {
			t.Fatalf("element %s not annotated", n.Path())
		}
		want := "0"
		if acc[n] {
			want = "1"
		}
		if v != want {
			t.Errorf("element %s annotated %q, accessibility %q", n.Path(), v, want)
		}
		return true
	})
}

// TestNaiveAgreesWithRewrite: on the prune-only Adex view the naive
// baseline and the security-view rewriting must return identical results
// for the benchmark queries.
func TestNaiveAgreesWithRewrite(t *testing.T) {
	spec := dtds.AdexSpec()
	view, err := secview.Derive(spec)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	r, err := rewrite.ForView(view)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	doc := dtds.GenerateAdex(7, 4)
	Annotate(spec, doc)
	for name, q := range dtds.AdexQueries {
		p := xpath.MustParse(q)
		nv, err := Query(p, doc)
		if err != nil {
			t.Fatalf("%s: naive Query: %v", name, err)
		}
		pt, _ := r.Rewrite(p)
		rv := xpath.EvalDoc(pt, doc)
		if len(nv) != len(rv) {
			t.Fatalf("%s: naive %d nodes, rewrite %d nodes", name, len(nv), len(rv))
		}
		for i := range nv {
			if nv[i] != rv[i] {
				t.Errorf("%s: result %d differs", name, i)
			}
		}
	}
}

// TestNaiveFiltersInaccessible: the attribute qualifier must keep hidden
// elements out of results.
func TestNaiveFiltersInaccessible(t *testing.T) {
	spec := dtds.AdexSpec()
	doc := dtds.GenerateAdex(3, 3)
	Annotate(spec, doc)
	// employment ads are hidden by the policy.
	res, err := Query(xpath.MustParse("//employment"), doc)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res) != 0 {
		t.Errorf("naive returned %d hidden employment nodes", len(res))
	}
	// buyer-info is visible.
	res, err = Query(xpath.MustParse("//buyer-info"), doc)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res) == 0 {
		t.Errorf("naive returned no buyer-info nodes")
	}
}

func TestWidenQualifierForms(t *testing.T) {
	cases := []struct{ in, want string }{
		{`a[b = "1"]`, `(//a)[//b = "1"][@accessibility = "1"]`},
		{"a[b and c]", `(//a)[//b and //c][@accessibility = "1"]`},
		{"a[b or not(c)]", `(//a)[//b or not(//c)][@accessibility = "1"]`},
		{"a[true() and .[false()]]", `(//a)[true() and .[false()]][@accessibility = "1"]`},
		{`a[@x = "v"]`, `(//a)[@x = "v"][@accessibility = "1"]`},
		{"a[@x]", `(//a)[@x][@accessibility = "1"]`},
		{"a[. | b]", `(//a)[. | //b][@accessibility = "1"]`},
		{"a//b", `((//a)//b)[@accessibility = "1"]`},
	}
	for _, tc := range cases {
		p, err := RewriteQuery(xpath.MustParse(tc.in))
		if err != nil {
			t.Fatalf("RewriteQuery(%q): %v", tc.in, err)
		}
		if got := xpath.String(p); got != tc.want {
			t.Errorf("RewriteQuery(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNaiveQueryEndToEnd(t *testing.T) {
	spec := dtds.AdexSpec()
	doc := dtds.GenerateAdex(13, 3)
	Annotate(spec, doc)
	res, err := Query(xpath.MustParse(`//buyer-info[company-id]/contact-info`), doc)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for _, n := range res {
		if n.Label != "contact-info" {
			t.Errorf("unexpected label %s", n.Label)
		}
		if v, _ := n.Attr(AttrName); v != "1" {
			t.Errorf("inaccessible node returned")
		}
	}
	if len(res) == 0 {
		t.Errorf("no results")
	}
}
