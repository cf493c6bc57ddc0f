package core

// Security-invariant suite over deep recursive documents: for randomized
// recursive DTDs and policies, the default height-free pipeline (derive
// → Rec-automaton rewrite → optimize → evaluate) must return exactly
// what the view contains on documents of height ≥ 20 — the regime where
// per-height unfolding is at its most expensive and a depth-dependent
// bug in the automaton evaluation would surface. The same two baselines
// as the hospital sweep pin the answer down: the materialized view
// (definitional, any query) and the §6 naive annotation semantics
// (sound here for descendant-axis queries; the generated DTDs also have
// unique element labels). A third comparison checks the engine against
// the Section 4.2 unfold oracle — the view unfolded to the document's
// height, evaluated by the reference evaluator — closing the loop with
// the rewrite-level differential harness at the engine level.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dtds"
	"repro/internal/naive"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// unfoldOracle answers p over doc the Section 4.2 way: rewrite through
// the view unfolded to doc's height, then evaluate with the reference
// evaluator. No engine, plan cache, optimizer or bitset evaluation is
// involved, so it checks the height-free serving path end to end.
func unfoldOracle(t *testing.T, view *secview.View, doc *xmltree.Document, p xpath.Path) []*xmltree.Node {
	t.Helper()
	r, err := rewrite.ForViewWithHeight(view, doc.Height())
	if err != nil {
		t.Fatalf("ForViewWithHeight(%d): %v", doc.Height(), err)
	}
	pt, _ := r.Rewrite(p)
	out, err := xpath.EvalRef(pt, []*xmltree.Node{doc.Root})
	if err != nil {
		t.Fatalf("reference eval of %s: %v", xpath.String(pt), err)
	}
	return out
}

// assertSameNodes fails unless got and want are the same nodes in the
// same order.
func assertSameNodes(t *testing.T, label string, got, want []*xmltree.Node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d nodes, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d is %s, want %s", label, i, got[i].Path(), want[i].Path())
		}
	}
}

// deepViewQueries are posed over random recursive views for the
// materialization baseline; n0..n2 and v0..v2 exist for every generated
// DTD (layer count is at least 3). Descendant-free shapes keep the
// unfold-oracle cross-check tractable at height 20+.
var deepViewQueries = []string{
	"/n0/*",
	"n1",
	"n1/n2",
	"n2[v2]",
	"n1/v1 | v0",
	".",
}

// deepDescendantQueries use descendant axes exclusively — the fragment
// where the §6 naive widening is the identity — and are cheap for every
// baseline except the unfold oracle, which is skipped for them.
var deepDescendantQueries = []string{
	"//n1",
	"//n2",
	"//v0",
	"//v2",
}

// TestInvariantDeepRecursivePolicies sweeps randomized recursive
// (DTD, policy) pairs on documents of height ≥ 20 and checks the
// height-free engine against the materialized view, the naive
// annotation baseline, and the unfold oracle.
func TestInvariantDeepRecursivePolicies(t *testing.T) {
	const trials = 60
	tested, deep, derivationFailed, materializeFailed := 0, 0, 0, 0
	for trial := int64(0); trial < trials; trial++ {
		rng := rand.New(rand.NewSource(9000 + trial))
		spec := dtds.RandomRecursiveSpec(rng, dtds.RecursiveGen{
			Depth:     3 + rng.Intn(3),
			Branching: 1 + rng.Intn(2),
			Density:   0.3 + rng.Float64()*0.4,
			// The materialization baseline needs required children to stay
			// visible; the starred items carry the recursion.
			StarredOnly: true,
		})
		e, err := New(spec)
		if err != nil {
			derivationFailed++
			continue
		}
		if e.RewriteMode() != "height-free" {
			t.Fatalf("trial %d: recursive view rewrites %q, want height-free", trial, e.RewriteMode())
		}
		doc := xmlgen.Generate(spec.D, xmlgen.Config{
			Seed: trial, MinRepeat: 1, MaxRepeat: 2, MaxDepth: 24, MaxNodes: 2500,
		})
		if doc.Height() >= 20 {
			deep++
		}
		m, err := e.Materialize(doc)
		if err != nil {
			materializeFailed++
			continue
		}
		tested++

		queries := append(append([]string{}, deepViewQueries...), deepDescendantQueries...)
		for _, q := range queries {
			p := xpath.MustParse(q)
			want := docSet(xpath.EvalDoc(p, m.View), m.DocOf)
			res, err := e.QueryString(doc, q)
			if err != nil {
				t.Fatalf("trial %d (h=%d): height-free query %q: %v\nspec:\n%s", trial, doc.Height(), q, err, spec)
			}
			if got := docSet(res, nil); !sameSet(want, got) {
				t.Errorf("trial %d (h=%d): %q diverges from materialized view: view→doc %d nodes, height-free %d\nspec:\n%s",
					trial, doc.Height(), q, len(want), len(got), spec)
			}
		}
		// Engine-level unfold cross-check on the descendant-free shapes
		// (unfolding a // at height 20+ is the very blowup the default
		// mode exists to avoid).
		for _, q := range deepViewQueries {
			want := unfoldOracle(t, e.View(), doc, xpath.MustParse(q))
			got, err := e.QueryString(doc, q)
			if err != nil {
				t.Fatalf("trial %d (h=%d): height-free query %q: %v", trial, doc.Height(), q, err)
			}
			if !sameSet(docSet(want, nil), docSet(got, nil)) {
				t.Errorf("trial %d (h=%d): %q: unfold oracle %d nodes, height-free %d\nspec:\n%s",
					trial, doc.Height(), q, len(want), len(got), spec)
			}
		}
		// §6 naive baseline. Annotate mutates the document (adds
		// accessibility attributes only), so it runs last.
		naive.Annotate(spec, doc)
		for _, q := range deepDescendantQueries {
			want, err := naive.Query(xpath.MustParse(q), doc)
			if err != nil {
				t.Fatalf("trial %d: naive query %q: %v", trial, q, err)
			}
			got, err := e.QueryString(doc, q)
			if err != nil {
				t.Fatalf("trial %d: engine query %q: %v", trial, q, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d (h=%d): %q diverges from naive baseline: naive %d nodes, height-free %d\nspec:\n%s",
					trial, doc.Height(), q, len(want), len(got), spec)
			}
		}
	}
	t.Logf("%d/%d policies tested, %d on documents of height ≥ 20 (%d derivations rejected, %d materializations aborted)",
		tested, trials, deep, derivationFailed, materializeFailed)
	if tested < 20 {
		t.Fatalf("only %d/%d random recursive policies were testable; generator is too aggressive", tested, trials)
	}
	if deep < 15 {
		t.Fatalf("only %d trials reached height 20; depth sweep degenerated", deep)
	}
}
