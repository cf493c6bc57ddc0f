package rewrite

// The height-free differential harness: the Rec-automaton rewriting
// (ForView on a recursive view) must answer exactly like the Section 4.2
// unfolding oracle (ForViewWithHeight at the concrete document height)
// on every document — node for node, before and after DTD optimization.
// The suite sweeps ~300 randomized (recursive DTD, policy, query)
// triples at varying document depths plus the repo's fixed recursive
// fixtures, and pins the plan-size property the whole change exists for:
// unfold plans grow with height, the height-free plan does not.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dtds"
	"repro/internal/optimize"
	"repro/internal/secview"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Oracle cost budgets. Unfolding multiplies plan size by roughly the
// document height per // in the query, so a deep document and a
// descend-heavy query together make the Section 4.2 oracle's plan — and
// especially the DTD optimizer pass over it — explode combinatorially
// (tens of millions of plan nodes at height ~20). That blowup is the
// very pathology height-free rewriting removes; the harness skips the
// oracle where the oracle itself is intractable. Every query shape still
// gets full oracle coverage on the shallow documents in the sweep.
const (
	oraclePlanBudget = 2_000_000 // estimated unfold plan nodes before skipping the triple
	oracleOptBudget  = 200_000   // actual unfold plan nodes before skipping its optimizer pass
)

// diffOne rewrites p through both paths, optimizes both against the
// document DTD, evaluates the plans over doc — the unfold rewrite with
// the reference evaluator, the others with the serving one — and
// reports the first divergence. Reports false when the unfold oracle was skipped as over
// budget for this (query, document) pair.
func diffOne(t *testing.T, v *secview.View, doc *xmltree.Document, p xpath.Path, tag string) bool {
	t.Helper()
	hf, err := ForView(v)
	if err != nil {
		t.Fatalf("%s: ForView: %v", tag, err)
	}
	oracle, err := ForViewWithHeight(v, doc.Height())
	if err != nil {
		t.Fatalf("%s: ForViewWithHeight(%d): %v", tag, doc.Height(), err)
	}
	ptHF, _ := hf.Rewrite(p)
	est := xpath.Size(ptHF)
	for i := 0; i < countDescends(p); i++ {
		est *= doc.Height()
		if est > oraclePlanBudget {
			return false
		}
	}
	ptOr, _ := oracle.Rewrite(p)
	want, err := xpath.EvalRef(ptOr, []*xmltree.Node{doc.Root})
	if err != nil {
		t.Fatalf("%s: reference eval of the unfold rewrite of %s: %v", tag, xpath.String(p), err)
	}
	got := xpath.EvalDoc(ptHF, doc)
	assertSameNodes(t, want, got, fmt.Sprintf("%s: raw rewrite of %s", tag, xpath.String(p)))

	opt := optimize.New(v.Doc)
	gotOpt := xpath.EvalDoc(optimized(opt, ptHF), doc)
	assertSameNodes(t, want, gotOpt, fmt.Sprintf("%s: optimized height-free rewrite of %s", tag, xpath.String(p)))
	if xpath.Size(ptOr) <= oracleOptBudget {
		wantOpt := xpath.EvalDoc(optimized(opt, ptOr), doc)
		assertSameNodes(t, want, wantOpt, fmt.Sprintf("%s: optimized unfold rewrite of %s", tag, xpath.String(p)))
	}
	return true
}

// optimized is Optimize's plan without its counts.
func optimized(o *optimize.Optimizer, p xpath.Path) xpath.Path {
	out, _, _ := o.Optimize(p)
	return out
}

// countDescends counts // steps anywhere in p, qualifiers included —
// the exponent of the unfold oracle's plan-size growth in document
// height.
func countDescends(p xpath.Path) int {
	n := 0
	var walk func(xpath.Path)
	var walkQ func(xpath.Qual)
	walk = func(p xpath.Path) {
		switch p := p.(type) {
		case xpath.Descend:
			n++
			walk(p.Sub)
		case xpath.Seq:
			walk(p.Left)
			walk(p.Right)
		case xpath.Union:
			walk(p.Left)
			walk(p.Right)
		case xpath.Qualified:
			walk(p.Sub)
			walkQ(p.Cond)
		}
	}
	walkQ = func(q xpath.Qual) {
		switch q := q.(type) {
		case xpath.QPath:
			walk(q.Path)
		case xpath.QEq:
			walk(q.Path)
		case xpath.QAnd:
			walkQ(q.Left)
			walkQ(q.Right)
		case xpath.QOr:
			walkQ(q.Left)
			walkQ(q.Right)
		case xpath.QNot:
			walkQ(q.Sub)
		}
	}
	walk(p)
	return n
}

func assertSameNodes(t *testing.T, want, got []*xmltree.Node, tag string) {
	t.Helper()
	w := make(map[*xmltree.Node]bool, len(want))
	for _, n := range want {
		w[n] = true
	}
	g := make(map[*xmltree.Node]bool, len(got))
	for _, n := range got {
		g[n] = true
	}
	if len(w) != len(g) {
		t.Errorf("%s: oracle selected %d distinct nodes, height-free %d", tag, len(w), len(g))
		return
	}
	for n := range w {
		if !g[n] {
			t.Errorf("%s: height-free missed %s", tag, n.Path())
			return
		}
	}
}

// TestHeightFreeDifferentialFixtures sweeps the repo's fixed recursive
// views (Fig. 7 and the forum schema) across document depths with a
// hand-picked query set, plus the non-recursive hospital/Adex fixtures
// (where height-free and unfold share the flat path by construction —
// kept in the sweep so a regression that accidentally recursivizes them
// is caught here too).
func TestHeightFreeDifferentialFixtures(t *testing.T) {
	type fixture struct {
		name    string
		view    *secview.View
		docs    []*xmltree.Document
		queries []string
	}
	var fixtures []fixture

	fig7, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("Derive(fig7): %v", err)
	}
	var fig7Docs []*xmltree.Document
	for _, depth := range []int{4, 8, 16, 32} {
		fig7Docs = append(fig7Docs, xmlgen.Generate(dtds.Fig7(), xmlgen.Config{
			Seed: int64(depth), MinRepeat: 1, MaxRepeat: 2, MaxDepth: depth,
		}))
	}
	fixtures = append(fixtures, fixture{
		name: "fig7", view: fig7, docs: fig7Docs,
		queries: []string{"//b", "//a/b", "a//a//b", ".", "//a[b]", "//a[not(a)]/b", "//text()", "b | //a/b"},
	})

	forum, err := secview.Derive(dtds.ForumGuestSpec())
	if err != nil {
		t.Fatalf("Derive(forum): %v", err)
	}
	var forumDocs []*xmltree.Document
	for _, depth := range []int{6, 12, 24} {
		forumDocs = append(forumDocs, dtds.GenerateForum(int64(depth), 2, depth))
	}
	fixtures = append(fixtures, fixture{
		name: "forum", view: forum, docs: forumDocs,
		queries: []string{"//post/author", "//thread//body", "//replies/thread/post", "//thread[post/author]", "//post[not(body)]"},
	})

	nurseSpec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatalf("Bind(nurse): %v", err)
	}
	hospital, err := secview.Derive(nurseSpec)
	if err != nil {
		t.Fatalf("Derive(hospital): %v", err)
	}
	fixtures = append(fixtures, fixture{
		name: "hospital", view: hospital,
		docs:    []*xmltree.Document{dtds.GenerateHospital(3, 3)},
		queries: []string{"//patient/name", "//bill", "dept//patient[wardNo]"},
	})

	adex, err := secview.Derive(dtds.AdexSpec())
	if err != nil {
		t.Fatalf("Derive(adex): %v", err)
	}
	adexFix := fixture{
		name: "adex", view: adex,
		docs: []*xmltree.Document{dtds.GenerateAdex(3, 4)},
	}
	for _, q := range dtds.AdexQueries {
		adexFix.queries = append(adexFix.queries, q)
	}
	fixtures = append(fixtures, adexFix)

	for _, fx := range fixtures {
		for di, doc := range fx.docs {
			for _, q := range fx.queries {
				tag := fmt.Sprintf("%s/doc%d(h=%d)/%s", fx.name, di, doc.Height(), q)
				if !diffOne(t, fx.view, doc, xpath.MustParse(q), tag) {
					t.Errorf("%s: fixture query skipped as over the oracle budget", tag)
				}
			}
		}
	}
}

// TestHeightFreeDifferentialRandom is the randomized harness: ~300
// (recursive DTD, policy, query) triples, each evaluated on a document
// whose depth cycles from shallow to deep. Queries on shallow documents
// draw from the full fragment; on deep documents they are descend-free,
// because unfolding a // multiplies the oracle's plan by a factor
// polynomial in height and types — minutes of work per query at height
// 20 — while descend-free rewriting stays near-linear. Deep documents
// with // queries are covered by the fixed fixtures (small type sets
// keep their oracle tractable) and, without an oracle, by the fuzz
// target. Policies that fail derivation are skipped (the generator
// draws unconstrained annotation sets); minimum counts of tested
// triples, recursive views, and deep documents guard against the sweep
// silently degenerating.
func TestHeightFreeDifferentialRandom(t *testing.T) {
	const triples = 300
	depths := []int{3, 4, 5, 8, 16, 24}
	recursiveTested, tested, deepTested, skippedQueries := 0, 0, 0, 0
	for seed := int64(0); seed < triples; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := dtds.RecursiveGen{
			Depth:     3 + rng.Intn(3),
			Branching: 1 + rng.Intn(2),
			Density:   0.3 + rng.Float64()*0.5,
		}
		spec := dtds.RandomRecursiveSpec(rng, cfg)
		v, err := secview.Derive(spec)
		if err != nil {
			continue
		}
		// MaxNodes keeps supercritical DTDs (several starred recursive
		// positions per production) from exploding: depth, not bulk, is
		// what the harness is after.
		depth := depths[seed%int64(len(depths))]
		doc := xmlgen.Generate(spec.D, xmlgen.Config{
			Seed: seed, MinRepeat: 1, MaxRepeat: 2,
			MaxDepth: depth, MaxNodes: 2000,
		})
		descends := depth <= 5
		labels := append(v.DTD.Types(), "nonexistent")
		ran := 0
		for i := 0; i < 3; i++ {
			p := randDiffPath(rng, labels, 3, descends)
			if diffOne(t, v, doc, p, fmt.Sprintf("seed%d/q%d(h=%d)", seed, i, doc.Height())) {
				ran++
			} else {
				skippedQueries++
			}
		}
		if ran == 0 {
			continue
		}
		tested++
		if v.IsRecursive() {
			recursiveTested++
		}
		if doc.Height() >= 16 {
			deepTested++
		}
	}
	t.Logf("tested %d triples (%d recursive views, %d documents of height ≥ 16), %d over-budget queries skipped",
		tested, recursiveTested, deepTested, skippedQueries)
	if deepTested < 30 {
		t.Errorf("only %d random triples ran on documents of height ≥ 16; depth sweep degenerated", deepTested)
	}
	if tested < 150 {
		t.Errorf("only %d/%d random triples tested; generator or derivation degenerated", tested, triples)
	}
	if recursiveTested < 60 {
		t.Errorf("only %d random triples derived recursive views; harness lost its subject", recursiveTested)
	}
}

// randDiffPath draws a random query for the differential sweep:
// randViewPath's full fragment when descends are affordable, and a
// descend-free variant (child steps, unions, qualifiers) otherwise.
func randDiffPath(r *rand.Rand, labels []string, depth int, descends bool) xpath.Path {
	if descends {
		return randViewPath(r, labels, depth)
	}
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
	case 0, 1, 2:
		return xpath.Seq{Left: randDiffPath(r, labels, depth-1, false), Right: randDiffPath(r, labels, depth-1, false)}
	case 3:
		return xpath.Union{Left: randDiffPath(r, labels, depth-1, false), Right: randDiffPath(r, labels, depth-1, false)}
	case 4:
		var q xpath.Qual = xpath.QPath{Path: randDiffPath(r, labels, depth-1, false)}
		if r.Intn(3) == 0 {
			q = xpath.QNot{Sub: q}
		}
		return xpath.Qualified{Sub: randDiffPath(r, labels, depth-1, false), Cond: q}
	default:
		return randDiffPath(r, labels, 0, false)
	}
}

// TestHeightFreePlanSizeFlat pins the acceptance criterion: across
// document heights 4 → 32 the height-free plan for a recursive view is
// one constant-size plan, while the unfold oracle's plans grow strictly
// with height.
func TestHeightFreePlanSizeFlat(t *testing.T) {
	v, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	p := xpath.MustParse("//b")
	hf, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	ptHF, _ := hf.Rewrite(p)
	hfSize := xpath.Size(ptHF)

	prev := 0
	for _, h := range []int{4, 8, 16, 32} {
		oracle, err := ForViewWithHeight(v, h)
		if err != nil {
			t.Fatalf("ForViewWithHeight(%d): %v", h, err)
		}
		pt, _ := oracle.Rewrite(p)
		size := xpath.Size(pt)
		if size <= prev {
			t.Errorf("unfold plan size at height %d = %d, not larger than previous %d", h, size, prev)
		}
		prev = size
	}
	if hfSize >= prev {
		t.Errorf("height-free plan size %d not below unfold size %d at height 32", hfSize, prev)
	}
	t.Logf("height-free plan size %d; unfold at height 32: %d", hfSize, prev)
}
