package xpath_test

// Differential property suite for the ordinal (bitset) evaluation path:
// on randomized (DTD, document, query) triples, evaluating over a
// compacted document — which takes the bitset path — must agree exactly
// with evaluating over an uncompacted structural twin of the same tree,
// which takes the pointer-slice path. Structural twins get identical
// preorder numbering, so agreement is checked ordinal by ordinal. The
// suite also pins the two safety edges of the representation gate: a
// detached (never-renumbered) context falls back to the slice path with
// the same answers, and ordinal answer-cache entries die with the
// numbering that defined them when the arena is swapped out underneath
// them (Document.Generation).

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// sliceTwin builds an uncompacted document with the exact node
// structure of doc. Renumbering assigns both trees the same preorder
// ordinals, but the twin fails the Compacted() gate, so it always
// evaluates over node slices.
func sliceTwin(t *testing.T, doc *xmltree.Document) *xmltree.Document {
	t.Helper()
	twin := xmltree.NewDocument(doc.Root.Clone())
	if twin.Size() != doc.Size() {
		t.Fatalf("twin size %d != doc size %d", twin.Size(), doc.Size())
	}
	if xpath.OrdinalApplicable(twin) {
		t.Fatal("structural twin must not pass the ordinal gate")
	}
	if !xpath.OrdinalApplicable(doc) {
		t.Fatal("generated document must pass the ordinal gate")
	}
	return twin
}

// assertSameOrds fails unless got and want are the same nodes by
// preorder ordinal and label — the cross-document equality for
// structural twins.
func assertSameOrds(t *testing.T, label string, got, want []*xmltree.Node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d nodes, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Ord() != want[i].Ord() || got[i].Label != want[i].Label {
			t.Fatalf("%s: node %d is ord %d (%s), want ord %d (%s)",
				label, i, got[i].Ord(), got[i].Label, want[i].Ord(), want[i].Label)
		}
	}
}

// TestDifferentialBitsetVsSlice sweeps ~200 randomized (DTD, document,
// query) triples through both representations: the compacted document
// takes the bitset path for sequential and indexed evaluation, its
// uncompacted twin takes the slice path, and the two must agree at the
// root and at random subcontexts.
func TestDifferentialBitsetVsSlice(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	triples := 0
	for triples < 200 {
		src := randomDTDSource(r)
		d, err := dtd.Parse(src)
		if err != nil {
			t.Fatalf("random DTD does not parse: %v\n%s", err, src)
		}
		doc := xmlgen.Generate(d, xmlgen.Config{
			Seed:      r.Int63(),
			MinRepeat: 1,
			MaxRepeat: 2 + r.Intn(3),
			MaxDepth:  6,
		})
		if doc.Size() > 1500 {
			continue // see TestDifferentialParallelVsSequential
		}
		twin := sliceTwin(t, doc)
		idx := xpath.NewIndex(doc)
		labels := append(d.Types(), xpath.TextName)
		for q := 0; q < 5; q++ {
			triples++
			p := randPath(r, labels, 3)
			want, err := xpath.EvalDocErr(p, twin)
			if err != nil {
				t.Fatalf("slice eval error on %s: %v", xpath.String(p), err)
			}
			assertSortedUnique(t, "slice "+xpath.String(p), want)

			got, err := xpath.EvalDocErr(p, doc)
			if err != nil {
				t.Fatalf("bitset eval error on %s: %v", xpath.String(p), err)
			}
			assertSortedUnique(t, "bitset "+xpath.String(p), got)
			assertSameOrds(t, "bitset ≠ slice on "+xpath.String(p)+"\nDTD:\n"+src, got, want)

			gotIdx, err := xpath.EvalIndexedErr(p, idx)
			if err != nil {
				t.Fatalf("indexed bitset eval error on %s: %v", xpath.String(p), err)
			}
			assertSameOrds(t, "indexed bitset ≠ slice on "+xpath.String(p), gotIdx, want)

			// Subcontext leg: the same random ordinals as context in both
			// documents (duplicates and ancestor/descendant overlap
			// included) exercise the interval fills away from the root.
			ctx := make([]*xmltree.Node, 1+r.Intn(4))
			twinCtx := make([]*xmltree.Node, len(ctx))
			for i := range ctx {
				ord := r.Intn(doc.Size())
				ctx[i] = doc.Nodes()[ord]
				twinCtx[i] = twin.Nodes()[ord]
			}
			wantAt, err := xpath.EvalAtErr(p, twinCtx)
			if err != nil {
				t.Fatalf("slice EvalAt error on %s: %v", xpath.String(p), err)
			}
			gotAt, err := xpath.EvalAtErr(p, ctx)
			if err != nil {
				t.Fatalf("bitset EvalAt error on %s: %v", xpath.String(p), err)
			}
			assertSameOrds(t, "bitset@ctx ≠ slice@ctx on "+xpath.String(p), gotAt, wantAt)
		}
	}
}

// TestDifferentialRecBitsetVsSlice runs randomized recursive-view plans
// (Rec product search) through both representations. The automaton
// descends through arbitrary labels and accepts at a randomly chosen
// one, so the per-state bitset visited rows see real sharing and
// re-visits.
func TestDifferentialRecBitsetVsSlice(t *testing.T) {
	r := rand.New(rand.NewSource(20260809))
	for trial := 0; trial < 40; trial++ {
		src := randomDTDSource(r)
		d, err := dtd.Parse(src)
		if err != nil {
			t.Fatalf("random DTD does not parse: %v\n%s", err, src)
		}
		doc := xmlgen.Generate(d, xmlgen.Config{
			Seed:      r.Int63(),
			MinRepeat: 1,
			MaxRepeat: 2 + r.Intn(3),
			MaxDepth:  6,
		})
		if doc.Size() > 1500 {
			continue
		}
		twin := sliceTwin(t, doc)
		labels := append(d.Types(), xpath.TextName)
		accept := labels[r.Intn(len(labels))]
		g := xpath.NewRecGraph(map[string][]xpath.RecEdge{
			"walk": {
				{To: "walk", Sig: xpath.Wildcard{}},
				{To: "hit", Sig: xpath.Label{Name: accept}},
			},
			"hit": nil,
		})
		rec := xpath.Rec{G: g, Start: "walk", Accept: "hit", ResultLabel: accept}
		var plan xpath.Path = rec
		if r.Intn(2) == 0 {
			plan = xpath.Seq{Left: randPath(r, labels, 1), Right: rec}
		}
		want, err := xpath.EvalDocErr(plan, twin)
		if err != nil {
			t.Fatalf("slice rec eval: %v", err)
		}
		got, err := xpath.EvalDocErr(plan, doc)
		if err != nil {
			t.Fatalf("bitset rec eval: %v", err)
		}
		assertSameOrds(t, fmt.Sprintf("rec accept=%s trial %d", accept, trial), got, want)
	}
}

// TestBitsetDetachedNodeFallback: context nodes that were never part of
// a renumbered document (Owner nil) must fall back to the slice path
// and still produce the slice path's answers. Detached nodes carry no
// usable ordinals, so equality is checked as a multiset of label paths.
func TestBitsetDetachedNodeFallback(t *testing.T) {
	r := rand.New(rand.NewSource(20260810))
	for trial := 0; trial < 30; trial++ {
		src := randomDTDSource(r)
		d, err := dtd.Parse(src)
		if err != nil {
			t.Fatalf("random DTD does not parse: %v\n%s", err, src)
		}
		doc := xmlgen.Generate(d, xmlgen.Config{
			Seed:      r.Int63(),
			MinRepeat: 1,
			MaxRepeat: 2,
			MaxDepth:  5,
		})
		if doc.Size() > 800 {
			continue
		}
		// Clone the tree and never hand it to a Document: every node is
		// detached (Owner nil), so ordinalDoc must reject the context.
		detached := doc.Root.Clone()
		if detached.Owner() != nil {
			t.Fatal("clone unexpectedly owned")
		}
		labels := append(d.Types(), xpath.TextName)
		for q := 0; q < 5; q++ {
			p := randPath(r, labels, 2)
			want, err := xpath.EvalDocErr(p, doc)
			if err != nil {
				t.Fatalf("doc eval error on %s: %v", xpath.String(p), err)
			}
			got, err := xpath.EvalAtErr(p, []*xmltree.Node{detached})
			if err != nil {
				t.Fatalf("detached eval error on %s: %v", xpath.String(p), err)
			}
			// Without document-order numbering the slice path cannot
			// dedup by position, so a union may repeat a pointer; the
			// node set underneath must still match.
			gotPaths := labelPaths(uniqueNodes(got))
			wantPaths := labelPaths(want)
			if len(gotPaths) != len(wantPaths) {
				t.Fatalf("detached ≠ doc on %s: got %d nodes, want %d", xpath.String(p), len(got), len(want))
			}
			for i := range wantPaths {
				if gotPaths[i] != wantPaths[i] {
					t.Fatalf("detached ≠ doc on %s: path %d is %s, want %s",
						xpath.String(p), i, gotPaths[i], wantPaths[i])
				}
			}
		}
	}
}

func uniqueNodes(nodes []*xmltree.Node) []*xmltree.Node {
	seen := make(map[*xmltree.Node]bool, len(nodes))
	out := nodes[:0:0]
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func labelPaths(nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Path()
	}
	sort.Strings(out)
	return out
}

// TestBitsetSurvivesArenaSwap: evaluation stays correct across
// Compact/Renumber cycles that swap the arena and bump the generation —
// results obtained before a swap refer to the old (still valid) nodes,
// results after the swap to the new arena, and both agree with the
// slice twin.
func TestBitsetSurvivesArenaSwap(t *testing.T) {
	r := rand.New(rand.NewSource(20260811))
	src := randomDTDSource(r)
	d, err := dtd.Parse(src)
	if err != nil {
		t.Fatalf("random DTD does not parse: %v", err)
	}
	doc := xmlgen.Generate(d, xmlgen.Config{Seed: 11, MinRepeat: 1, MaxRepeat: 3, MaxDepth: 5})
	twin := sliceTwin(t, doc)
	labels := append(d.Types(), xpath.TextName)
	p := xpath.Descend{Sub: xpath.Label{Name: labels[0]}}

	want, err := xpath.EvalDocErr(p, twin)
	if err != nil {
		t.Fatal(err)
	}
	before, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOrds(t, "pre-swap", before, want)

	gen := doc.Generation()
	doc.Compact() // swap the arena out from under any held ordinals
	if doc.Generation() == gen {
		t.Fatal("Compact did not advance the generation")
	}
	after, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOrds(t, "post-swap", after, want)
	// The pre-swap results still point at the old tree's nodes; their
	// labels (though not their ownership) must be unchanged.
	for i := range before {
		if before[i].Label != after[i].Label {
			t.Fatalf("node %d label changed across swap: %s vs %s", i, before[i].Label, after[i].Label)
		}
	}
}

// randQualPath draws a path whose qualifiers carry every shape the
// set-at-a-time qualifier evaluation treats separately: qualifiers
// nested inside qualifier paths, and/or/not, // inside qualifiers, and
// equality tests whose constants come from texts, the document's own
// text values, so that equality often holds.
func randQualPath(r *rand.Rand, labels, texts []string, depth int) xpath.Path {
	label := func() xpath.Path { return xpath.Label{Name: labels[r.Intn(len(labels))]} }
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return xpath.Wildcard{}
		case 1:
			return xpath.Self{}
		case 2:
			return label()
		default:
			return xpath.Descend{Sub: label()}
		}
	}
	switch r.Intn(8) {
	case 0:
		return label()
	case 1:
		return xpath.Seq{Left: randQualPath(r, labels, texts, depth-1), Right: randQualPath(r, labels, texts, depth-1)}
	case 2:
		return xpath.Descend{Sub: randQualPath(r, labels, texts, depth-1)}
	case 3:
		return xpath.Union{Left: randQualPath(r, labels, texts, depth-1), Right: randQualPath(r, labels, texts, depth-1)}
	default:
		return xpath.Qualified{Sub: randQualPath(r, labels, texts, depth-1), Cond: randHeavyQual(r, labels, texts, depth-1)}
	}
}

// climbPlan draws //*[h//t]: the pre-image of //t climbs above the h
// children, to nodes the step h must then reject by label, by kind, or
// (on documents where h's label nests) by h's own qualifier.
func climbPlan(r *rand.Rand, labels []string) xpath.Path {
	label := func() xpath.Path { return xpath.Label{Name: labels[r.Intn(len(labels))]} }
	heads := []xpath.Path{label(), xpath.Wildcard{}, xpath.Qualified{Sub: label(), Cond: xpath.QPath{Path: label()}}}
	tails := []xpath.Path{label(), xpath.Self{}}
	return xpath.Descend{Sub: xpath.Qualified{
		Sub: xpath.Wildcard{},
		Cond: xpath.QPath{Path: xpath.Seq{
			Left:  heads[r.Intn(len(heads))],
			Right: xpath.Descend{Sub: tails[r.Intn(len(tails))]},
		}},
	}}
}

// randHeavyQual draws the qualifier half of randQualPath.
func randHeavyQual(r *rand.Rand, labels, texts []string, depth int) xpath.Qual {
	text := func() string { return texts[r.Intn(len(texts))] }
	if depth <= 0 {
		var l xpath.Path = xpath.Label{Name: labels[r.Intn(len(labels))]}
		if r.Intn(2) == 0 {
			l = xpath.Descend{Sub: l}
		}
		if r.Intn(2) == 0 {
			return xpath.QEq{Path: l, Value: text()}
		}
		return xpath.QPath{Path: l}
	}
	sub := func() xpath.Path { return randQualPath(r, labels, texts, depth-1) }
	switch r.Intn(8) {
	case 0:
		return xpath.QAnd{Left: randHeavyQual(r, labels, texts, depth-1), Right: randHeavyQual(r, labels, texts, depth-1)}
	case 1:
		return xpath.QOr{Left: randHeavyQual(r, labels, texts, depth-1), Right: randHeavyQual(r, labels, texts, depth-1)}
	case 2:
		return xpath.QNot{Sub: randHeavyQual(r, labels, texts, depth-1)}
	case 3:
		return xpath.QEq{Path: sub(), Value: text()}
	case 4:
		return xpath.QEq{Path: xpath.Descend{Sub: sub()}, Value: text()}
	case 5:
		return xpath.QPath{Path: xpath.Descend{Sub: sub()}}
	default:
		return xpath.QPath{Path: sub()}
	}
}

// textValues returns the distinct text values of doc, plus one that no
// node carries.
func textValues(doc *xmltree.Document) []string {
	seen := map[string]bool{}
	out := []string{"no-such-text"}
	for _, n := range doc.Nodes() {
		if n.Kind == xmltree.TextNode && !seen[n.Data] {
			seen[n.Data] = true
			out = append(out, n.Data)
		}
	}
	return out
}

// assertBitsetMatchesSlice evaluates p at the root and at a random
// overlapping subcontext, over doc (bitset path, with and without the
// label index) and over its slice twin (the reference), and fails on
// any difference.
func assertBitsetMatchesSlice(t *testing.T, r *rand.Rand, p xpath.Path, doc, twin *xmltree.Document, idx *xpath.Index) {
	t.Helper()
	q := xpath.String(p)
	want, err := xpath.EvalDocErr(p, twin)
	if err != nil {
		t.Fatalf("slice eval error on %s: %v", q, err)
	}
	got, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatalf("bitset eval error on %s: %v", q, err)
	}
	assertSameOrds(t, "bitset ≠ slice on "+q, got, want)
	gotIdx, err := xpath.EvalIndexedErr(p, idx)
	if err != nil {
		t.Fatalf("indexed bitset eval error on %s: %v", q, err)
	}
	assertSameOrds(t, "indexed bitset ≠ slice on "+q, gotIdx, want)

	ctx := make([]*xmltree.Node, 1+r.Intn(4))
	twinCtx := make([]*xmltree.Node, len(ctx))
	for i := range ctx {
		ord := r.Intn(doc.Size())
		if i > 0 && r.Intn(2) == 0 {
			// A descendant of an earlier member: overlapping subtrees.
			prev := ctx[r.Intn(i)]
			ord = prev.Ord() + r.Intn(prev.DescendantCount()+1)
		}
		ctx[i] = doc.Nodes()[ord]
		twinCtx[i] = twin.Nodes()[ord]
	}
	wantAt, err := xpath.EvalAtErr(p, twinCtx)
	if err != nil {
		t.Fatalf("slice EvalAt error on %s: %v", q, err)
	}
	gotAt, err := xpath.EvalAtErr(p, ctx)
	if err != nil {
		t.Fatalf("bitset EvalAt error on %s: %v", q, err)
	}
	assertSameOrds(t, "bitset@ctx ≠ slice@ctx on "+q, gotAt, wantAt)
	gotIdxAt, err := xpath.EvalIndexedAtCtx(nil, p, idx, ctx)
	if err != nil {
		t.Fatalf("indexed bitset EvalAt error on %s: %v", q, err)
	}
	assertSameOrds(t, "indexed bitset@ctx ≠ slice@ctx on "+q, gotIdxAt, wantAt)
}

// TestDifferentialQualifiersBitsetVsSlice sweeps qualifier-heavy random
// plans (see randQualPath) through the set-at-a-time qualifier
// evaluation and the per-node slice reference.
func TestDifferentialQualifiersBitsetVsSlice(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	plans, held := 0, 0
	for plans < 1000 {
		src := randomDTDSource(r)
		d, err := dtd.Parse(src)
		if err != nil {
			t.Fatalf("random DTD does not parse: %v\n%s", err, src)
		}
		doc := xmlgen.Generate(d, xmlgen.Config{
			Seed:      r.Int63(),
			MinRepeat: 1,
			MaxRepeat: 2 + r.Intn(3),
			MaxDepth:  6,
		})
		if doc.Size() < 50 || doc.Size() > 1500 {
			continue // too flat for qualifiers to discriminate, or too slow
		}
		twin := sliceTwin(t, doc)
		idx := xpath.NewIndex(doc)
		labels := append(d.Types(), xpath.TextName)
		texts := textValues(doc)
		for i := 0; i < 5; i++ {
			plans++
			p := randQualPath(r, labels, texts, 4)
			if i%2 == 0 {
				// The served shape: //*[q], optionally continued.
				p = xpath.Descend{Sub: xpath.Qualified{
					Sub:  xpath.Wildcard{},
					Cond: randHeavyQual(r, labels, texts, 2),
				}}
				if r.Intn(2) == 0 {
					p = xpath.Seq{Left: p, Right: randQualPath(r, labels, texts, 2)}
				}
			}
			if i == 4 {
				p = climbPlan(r, labels)
			}
			if len(xpath.EvalDoc(p, twin)) > 0 {
				held++
			}

			assertBitsetMatchesSlice(t, r, p, doc, twin, idx)
		}
	}
	// A sweep whose plans all select nothing would compare nothing.
	if held < plans/10 {
		t.Fatalf("only %d of %d plans selected any node", held, plans)
	}
}

// TestDifferentialRecQualifiersBitsetVsSlice runs view queries with
// qualifiers through the height-free rewriting of recursive views, so
// Rec automata land inside qualifier paths, where the bitset evaluator
// runs them backwards, and checks the plans against the slice
// reference.
func TestDifferentialRecQualifiersBitsetVsSlice(t *testing.T) {
	r := rand.New(rand.NewSource(20261018))
	type fixture struct {
		view *secview.View
		doc  *xmltree.Document
	}
	fig7, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("Derive(fig7): %v", err)
	}
	fixtures := []fixture{
		{fig7, xmlgen.Generate(dtds.Fig7(), xmlgen.Config{Seed: 7, MinRepeat: 1, MaxRepeat: 3, MaxDepth: 10, MaxNodes: 600})},
	}
	for seed := int64(1); len(fixtures) < 4; seed++ {
		s := dtds.RandomRecursiveSpec(rand.New(rand.NewSource(seed)), dtds.RecursiveGen{Depth: 3, Branching: 2, Density: 0.5})
		v, err := secview.Derive(s)
		if err != nil || !v.IsRecursive() {
			continue
		}
		doc := xmlgen.Generate(s.D, xmlgen.Config{Seed: seed, MinRepeat: 1, MaxRepeat: 2, MaxDepth: 8, MaxNodes: 600})
		fixtures = append(fixtures, fixture{v, doc})
	}
	recInQual := 0
	for _, f := range fixtures {
		rw, err := rewrite.ForView(f.view)
		if err != nil {
			t.Fatalf("ForView: %v", err)
		}
		twin := sliceTwin(t, f.doc)
		idx := xpath.NewIndex(f.doc)
		labels := append(f.view.DTD.Types(), xpath.TextName)
		texts := textValues(f.doc)
		for i := 0; i < 40; i++ {
			q := randQualPath(r, labels, texts, 3)
			if i%2 == 0 {
				// //l[...] is the shape that reliably puts a Rec under
				// the qualifier.
				var cond xpath.Qual = xpath.QPath{Path: xpath.Descend{Sub: randQualPath(r, labels, texts, 1)}}
				if r.Intn(2) == 0 {
					cond = xpath.QEq{Path: xpath.Descend{Sub: randQualPath(r, labels, texts, 1)}, Value: texts[r.Intn(len(texts))]}
				}
				switch r.Intn(4) {
				case 0:
					cond = xpath.QNot{Sub: cond}
				case 1:
					cond = xpath.QAnd{Left: randHeavyQual(r, labels, texts, 2), Right: cond}
				case 2:
					cond = xpath.QOr{Left: randHeavyQual(r, labels, texts, 2), Right: cond}
				}
				q = xpath.Descend{Sub: xpath.Qualified{
					Sub:  xpath.Label{Name: labels[r.Intn(len(labels))]},
					Cond: cond,
				}}
			}
			plan, err := rw.Rewrite(q)
			if err != nil {
				t.Fatalf("Rewrite(%s): %v", xpath.String(q), err)
			}
			if recUnderQualifier(plan) {
				recInQual++
			}
			assertBitsetMatchesSlice(t, r, plan, f.doc, twin, idx)
		}
		// Recursive documents nest a label under itself, which the
		// layered random DTDs of the sweep above never do.
		docLabels := append(f.view.Doc.Types(), xpath.TextName)
		for i := 0; i < 20; i++ {
			assertBitsetMatchesSlice(t, r, climbPlan(r, docLabels), f.doc, twin, idx)
		}
	}
	if recInQual < 20 {
		t.Fatalf("only %d plans put a Rec inside a qualifier", recInQual)
	}
}

// recUnderQualifier reports whether some qualifier of p contains a Rec.
func recUnderQualifier(p xpath.Path) bool {
	for _, sub := range xpath.Subqueries(p) {
		if q, ok := sub.(xpath.Qualified); ok && qualHasRec(q.Cond) {
			return true
		}
	}
	return false
}

func qualHasRec(q xpath.Qual) bool {
	var paths []xpath.Path
	switch q := q.(type) {
	case xpath.QPath:
		paths = append(paths, q.Path)
	case xpath.QEq:
		paths = append(paths, q.Path)
	case xpath.QAnd:
		return qualHasRec(q.Left) || qualHasRec(q.Right)
	case xpath.QOr:
		return qualHasRec(q.Left) || qualHasRec(q.Right)
	case xpath.QNot:
		return qualHasRec(q.Sub)
	}
	for _, p := range paths {
		for _, sub := range xpath.Subqueries(p) {
			if _, ok := sub.(xpath.Rec); ok {
				return true
			}
		}
	}
	return false
}

// TestBitsetUnboundVariableOnlyBackward: an unbound variable fails
// evaluation only where the slice reference reaches it. Here no
// patient has a nurse child, so the reference never tests the
// variable; the bitset evaluator's backward pass does reach the nurse
// branch, from the name nodes the other branch found, and must not
// fail there.
func TestBitsetUnboundVariableOnlyBackward(t *testing.T) {
	doc := dtds.GenerateHospital(1, 2)
	twin := sliceTwin(t, doc)
	p := xpath.MustParse(`//patient[(name | nurse[name = $w])/text()]`)
	want, err := xpath.EvalDocErr(p, twin)
	if err != nil {
		t.Fatalf("slice reference: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("no patient selected")
	}
	got, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatalf("bitset evaluator fails where the reference does not: %v", err)
	}
	assertSameOrds(t, "bitset ≠ slice", got, want)

	// Where the reference does reach the variable, both fail.
	reached := xpath.MustParse(`//patient[name[. = $w]]`)
	if _, err := xpath.EvalDocErr(reached, twin); err == nil {
		t.Fatal("slice reference accepts a reached unbound variable")
	}
	if _, err := xpath.EvalDocErr(reached, doc); err == nil {
		t.Fatal("bitset evaluator accepts a reached unbound variable")
	}
}
