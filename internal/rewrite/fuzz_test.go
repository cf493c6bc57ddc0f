package rewrite

// FuzzRewriteRecursive feeds arbitrary parsed queries to both rewriting
// treatments for recursive views — the height-free Rec-automaton path
// and the Section 4.2 unfolding oracle — and fails on a panic in either
// or on any divergence: acceptance (one path rejecting a query the
// other rewrites) or answers (different node sets over a conforming
// document). It is the open-ended complement of the bounded
// differential suite in recdiff_test.go. Run with
// go test -fuzz=FuzzRewriteRecursive$ ./internal/rewrite.

import (
	"math/rand"
	"testing"

	"repro/internal/dtds"
	"repro/internal/secview"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// fuzzFixtures returns two recursive views with a conforming document
// each: the paper's Fig. 7 DTD and one generator-drawn recursive DTD
// under a randomized policy (fixed seed, so the corpus stays stable).
// Documents stay shallow enough that the unfold oracle is affordable
// per fuzz execution.
func fuzzFixtures(f *testing.F) []struct {
	view *secview.View
	doc  *xmltree.Document
} {
	fig7, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		f.Fatalf("Derive(fig7): %v", err)
	}
	fig7Doc := xmlgen.Generate(dtds.Fig7(), xmlgen.Config{
		Seed: 7, MinRepeat: 1, MaxRepeat: 2, MaxDepth: 10,
	})

	var rv *secview.View
	var rdoc *xmltree.Document
	for seed := int64(7); ; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := dtds.RandomRecursiveSpec(rng, dtds.RecursiveGen{Depth: 3, Branching: 2, Density: 0.5})
		v, err := secview.Derive(s)
		if err != nil || !v.IsRecursive() {
			continue
		}
		rv = v
		rdoc = xmlgen.Generate(s.D, xmlgen.Config{
			Seed: seed, MinRepeat: 1, MaxRepeat: 2, MaxDepth: 8, MaxNodes: 400,
		})
		break
	}
	return []struct {
		view *secview.View
		doc  *xmltree.Document
	}{{fig7, fig7Doc}, {rv, rdoc}}
}

func FuzzRewriteRecursive(f *testing.F) {
	fixtures := fuzzFixtures(f)

	// Seed corpus: hand-picked shapes covering every operator, plus a
	// sample from the same random-query generator the differential
	// suite draws from, over the union of both views' vocabularies.
	for _, seed := range []string{
		"//b", "//a/b", "a//a//b", ".", "*", "//a[b]", "//a[not(a)]/b",
		"//text()", "b | //a/b", "//n1", "n1/n2[v2]", "//v0 | n1//v1",
		"(a | .)//b[not(c)]", "∅",
	} {
		f.Add(seed)
	}
	var labels []string
	for _, fx := range fixtures {
		labels = append(labels, fx.view.DTD.Types()...)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 20; i++ {
		f.Add(xpath.String(randViewPath(rng, labels, 3)))
	}

	f.Fuzz(func(t *testing.T, src string) {
		p, err := xpath.Parse(src)
		if err != nil {
			return // parser rejection is fine; rewriter panics are not
		}
		if len(xpath.Vars(p)) > 0 || xpath.Size(p) > 60 || countDescends(p) > 2 {
			return // unbound parameters, or oracle-intractable shapes
		}
		for _, fx := range fixtures {
			hf, err := ForView(fx.view)
			if err != nil {
				t.Fatalf("ForView: %v", err)
			}
			oracle, err := ForViewWithHeight(fx.view, fx.doc.Height())
			if err != nil {
				t.Fatalf("ForViewWithHeight(%d): %v", fx.doc.Height(), err)
			}
			ptHF, _ := hf.Rewrite(p)
			ptOr, _ := oracle.Rewrite(p)
			want, errW := xpath.EvalRef(ptOr, []*xmltree.Node{fx.doc.Root})
			got, _, errG := xpath.Evaluate(nil, ptHF, []*xmltree.Node{fx.doc.Root}, xpath.Env{})
			if (errW == nil) != (errG == nil) {
				t.Fatalf("evaluation errors diverge for %q: unfold %v, height-free %v", src, errW, errG)
			}
			if errW != nil {
				return
			}
			w := make(map[*xmltree.Node]bool, len(want))
			for _, n := range want {
				w[n] = true
			}
			g := make(map[*xmltree.Node]bool, len(got))
			for _, n := range got {
				g[n] = true
			}
			if len(w) != len(g) {
				t.Fatalf("answers diverge for %q: unfold %d distinct nodes, height-free %d", src, len(w), len(g))
			}
			for n := range w {
				if !g[n] {
					t.Fatalf("answers diverge for %q: height-free missed %s", src, n.Path())
				}
			}
		}
	})
}
