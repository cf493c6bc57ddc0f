package xpath_test

// Differential property suite for the evaluator against the reference:
// on randomized (DTD, document, query) triples, xpath.Eval* (ordinal
// bitsets, label index, set-at-a-time qualifiers) must return exactly
// what xpath.EvalRef (node slices, per-node qualifiers, walks) returns,
// at the root and at random subcontexts. The sweeps run over parsed and
// generated documents, whose nodes live in a compacted arena, and over
// uncompacted renumbered trees, the shape secview.Materialize and
// NewDocument produce: evaluation depends on the numbering only. The
// suite also pins the numbering contract's edges: detached, stale and
// mixed-document contexts fail with ErrUnnumbered, and answers stay
// right across Compact/Renumber cycles.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// renumberedTwin builds an uncompacted document with the exact node
// structure of doc: a clone renumbered by NewDocument, never compacted.
func renumberedTwin(t *testing.T, doc *xmltree.Document) *xmltree.Document {
	t.Helper()
	twin := xmltree.NewDocument(doc.Root.Clone())
	if twin.Size() != doc.Size() {
		t.Fatalf("twin size %d != doc size %d", twin.Size(), doc.Size())
	}
	return twin
}

// randomContext draws 1-4 context nodes of doc, duplicates and
// ancestor/descendant overlap included.
func randomContext(r *rand.Rand, doc *xmltree.Document) []*xmltree.Node {
	ctx := make([]*xmltree.Node, 1+r.Intn(4))
	for i := range ctx {
		ord := r.Intn(doc.Size())
		if i > 0 && r.Intn(2) == 0 {
			// A descendant of an earlier member: overlapping subtrees.
			prev := ctx[r.Intn(i)]
			ord = prev.Ord() + r.Intn(prev.DescendantCount()+1)
		}
		ctx[i] = doc.Nodes()[ord]
	}
	return ctx
}

// assertMatchesRef evaluates p at the root and at a random subcontext of
// doc with the evaluator and with the reference, and fails on any
// difference.
func assertMatchesRef(t *testing.T, r *rand.Rand, p xpath.Path, doc *xmltree.Document) {
	t.Helper()
	q := xpath.String(p)
	got, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatalf("eval error on %s: %v", q, err)
	}
	assertSortedUnique(t, "eval "+q, got)
	assertSameNodes(t, "eval ≠ reference on "+q, got, ref(t, p, doc.Root))

	ctx := randomContext(r, doc)
	gotAt, err := xpath.EvalAtErr(p, ctx)
	if err != nil {
		t.Fatalf("EvalAt error on %s: %v", q, err)
	}
	assertSameNodes(t, "eval@ctx ≠ reference@ctx on "+q, gotAt, ref(t, p, ctx...))
}

// TestDifferentialBitsetVsSlice sweeps ~200 randomized (DTD, document,
// query) triples through the bitset evaluator and the slice reference,
// at the root and at random subcontexts.
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
			continue // see TestDifferentialIndexedVsSequential
		}
		labels := append(d.Types(), xpath.TextName)
		for q := 0; q < 5; q++ {
			triples++
			assertMatchesRef(t, r, randPath(r, labels, 3), doc)
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
		got, err := xpath.EvalDocErr(plan, doc)
		if err != nil {
			t.Fatalf("bitset rec eval: %v", err)
		}
		assertSameNodes(t, fmt.Sprintf("rec accept=%s trial %d", accept, trial), got, ref(t, plan, doc.Root))
	}
}

// TestBitsetRejectsUnnumberedContexts: evaluation reads the numbering,
// so contexts it does not cover fail closed with ErrUnnumbered instead
// of falling back: nodes never part of a document, nodes detached or
// added since the last Renumber, and contexts mixing two documents. The
// panicking wrappers panic on the same contexts, and renumbering makes
// a mutated tree evaluable again.
func TestBitsetRejectsUnnumberedContexts(t *testing.T) {
	p := xpath.MustParse("//patient/name")
	doc := dtds.GenerateHospital(1, 3)
	other := dtds.GenerateHospital(2, 3)

	patients := xpath.EvalDoc(xpath.MustParse("//patient"), doc)
	detached := patients[0]
	detached.Parent.Children = detached.Parent.Children[1:]
	detached.Parent = nil
	doc.Renumber()
	added := xmltree.E("patient", xmltree.T("name", "new"))
	doc.Root.Children[0].AppendChild(added)

	cases := map[string][]*xmltree.Node{
		"never numbered":  {xmltree.E("hospital", xmltree.E("dept"))},
		"detached":        {detached},
		"added":           {added},
		"stale and fresh": {doc.Root, added},
		"mixed documents": {doc.Root, other.Root},
	}
	for name, ctx := range cases {
		if _, err := xpath.EvalAtErr(p, ctx); !errors.Is(err, xpath.ErrUnnumbered) {
			t.Errorf("%s: err = %v, want ErrUnnumbered", name, err)
		}
		if _, err := xpath.EvalAtCtx(context.Background(), p, ctx); !errors.Is(err, xpath.ErrUnnumbered) {
			t.Errorf("%s: EvalAtCtx err = %v, want ErrUnnumbered", name, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: EvalAt did not panic", name)
				}
			}()
			xpath.EvalAt(p, ctx)
		}()
		if len(ctx) == 1 {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Eval did not panic", name)
					}
				}()
				xpath.Eval(p, ctx[0])
			}()
		}
	}
	// The document's root is still numbered; it is the added node whose
	// numbering is missing, and a Renumber supplies it.
	doc.Renumber()
	got, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatalf("after Renumber: %v", err)
	}
	assertSameNodes(t, "after Renumber", got, ref(t, p, doc.Root))
	if _, err := xpath.EvalAtErr(p, []*xmltree.Node{added}); err != nil {
		t.Errorf("renumbered added node: %v", err)
	}
	// An empty context selects nothing, without error.
	if out, err := xpath.EvalAtErr(p, nil); err != nil || out != nil {
		t.Errorf("empty context: %v, %v", out, err)
	}
}

// TestBitsetSurvivesArenaSwap: evaluation stays correct across
// Compact/Renumber cycles that swap the arena and bump the generation.
// Results obtained before a swap refer to the old nodes, which no longer
// belong to the document and fail the numbering gate; results after the
// swap refer to the new arena and match the reference.
func TestBitsetSurvivesArenaSwap(t *testing.T) {
	r := rand.New(rand.NewSource(20260811))
	src := randomDTDSource(r)
	d, err := dtd.Parse(src)
	if err != nil {
		t.Fatalf("random DTD does not parse: %v", err)
	}
	doc := xmlgen.Generate(d, xmlgen.Config{Seed: 11, MinRepeat: 1, MaxRepeat: 3, MaxDepth: 5})
	labels := append(d.Types(), xpath.TextName)
	p := xpath.Descend{Sub: xpath.Label{Name: labels[0]}}

	before, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameNodes(t, "pre-swap", before, ref(t, p, doc.Root))

	gen := doc.Generation()
	doc.Compact() // swap the arena out from under any held ordinals
	if doc.Generation() == gen {
		t.Fatal("Compact did not advance the generation")
	}
	after, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameNodes(t, "post-swap", after, ref(t, p, doc.Root))
	for i := range before {
		if before[i].Label != after[i].Label || before[i].Ord() != after[i].Ord() {
			t.Fatalf("node %d changed across swap: %s@%d vs %s@%d", i, before[i].Label, before[i].Ord(), after[i].Label, after[i].Ord())
		}
	}
	if len(before) > 0 {
		if _, err := xpath.EvalAtErr(xpath.Self{}, before[:1]); !errors.Is(err, xpath.ErrUnnumbered) {
			t.Errorf("pre-swap node evaluated after the swap: err = %v", err)
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

// randServedPlan draws the i-th plan of a five-plan round: qualifier-heavy
// paths (randQualPath), the served //*[q] shape, and at i == 4 a plan
// whose qualifier pre-image climbs (climbPlan).
func randServedPlan(r *rand.Rand, i int, labels, texts []string) xpath.Path {
	if i == 4 {
		return climbPlan(r, labels)
	}
	if i%2 == 1 {
		return randQualPath(r, labels, texts, 4)
	}
	// The served shape: //*[q], optionally continued.
	var p xpath.Path = xpath.Descend{Sub: xpath.Qualified{
		Sub:  xpath.Wildcard{},
		Cond: randHeavyQual(r, labels, texts, 2),
	}}
	if r.Intn(2) == 0 {
		p = xpath.Seq{Left: p, Right: randQualPath(r, labels, texts, 2)}
	}
	return p
}

// TestDifferentialQualifiersBitsetVsSlice sweeps qualifier-heavy random
// plans (see randServedPlan) through the set-at-a-time qualifier
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
		labels := append(d.Types(), xpath.TextName)
		texts := textValues(doc)
		for i := 0; i < 5; i++ {
			plans++
			p := randServedPlan(r, i, labels, texts)
			if len(ref(t, p, doc.Root)) > 0 {
				held++
			}
			assertMatchesRef(t, r, p, doc)
		}
	}
	// A sweep whose plans all select nothing would compare nothing.
	if held < plans/10 {
		t.Fatalf("only %d of %d plans selected any node", held, plans)
	}
}

// TestDifferentialRenumberedUncompacted sweeps 3,000+ random plans,
// qualifier-heavy ones included, over documents that were renumbered
// but never compacted: structural clones of generated documents, and
// materialized security views (secview.Materialize builds its T_v that
// way). Each plan runs at the root and at a random subcontext against
// the reference.
func TestDifferentialRenumberedUncompacted(t *testing.T) {
	r := rand.New(rand.NewSource(20261019))
	plans, held := 0, 0
	nurse, err := secview.Derive(mustBind(t, dtds.NurseSpec(), "wardNo", "1"))
	if err != nil {
		t.Fatalf("Derive(nurse): %v", err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		m, err := secview.Materialize(nurse, dtds.GenerateHospital(seed, 3))
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		labels := append(nurse.DTD.Types(), xpath.TextName)
		texts := textValues(m.View)
		for i := 0; i < 100; i++ {
			plans++
			p := randServedPlan(r, i%5, labels, texts)
			if len(ref(t, p, m.View.Root)) > 0 {
				held++
			}
			assertMatchesRef(t, r, p, m.View)
		}
	}
	for plans < 3000 {
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
		if doc.Size() < 20 || doc.Size() > 1000 {
			continue
		}
		twin := renumberedTwin(t, doc)
		labels := append(d.Types(), xpath.TextName)
		texts := textValues(twin)
		for i := 0; i < 10; i++ {
			plans++
			p := randServedPlan(r, i%5, labels, texts)
			if i >= 5 {
				p = randPath(r, labels, 3)
			}
			if len(ref(t, p, twin.Root)) > 0 {
				held++
			}
			assertMatchesRef(t, r, p, twin)
		}
	}
	// A sweep whose plans all select nothing would compare nothing.
	if held < plans/10 {
		t.Fatalf("only %d of %d plans selected any node", held, plans)
	}
	t.Logf("%d plans, %d selecting nodes", plans, held)
}

// mustBind binds one parameter of spec.
func mustBind(t *testing.T, spec *access.Spec, name, value string) *access.Spec {
	t.Helper()
	b, err := spec.Bind(map[string]string{name: value})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return b
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
			assertMatchesRef(t, r, plan, f.doc)
		}
		// Recursive documents nest a label under itself, which the
		// layered random DTDs of the sweep above never do.
		docLabels := append(f.view.Doc.Types(), xpath.TextName)
		for i := 0; i < 20; i++ {
			assertMatchesRef(t, r, climbPlan(r, docLabels), f.doc)
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
	p := xpath.MustParse(`//patient[(name | nurse[name = $w])/text()]`)
	want := ref(t, p, doc.Root)
	if len(want) == 0 {
		t.Fatal("no patient selected")
	}
	got, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatalf("bitset evaluator fails where the reference does not: %v", err)
	}
	assertSameNodes(t, "bitset ≠ slice", got, want)

	// Where the reference does reach the variable, both fail.
	reached := xpath.MustParse(`//patient[name[. = $w]]`)
	if _, err := xpath.EvalRef(reached, []*xmltree.Node{doc.Root}); err == nil {
		t.Fatal("slice reference accepts a reached unbound variable")
	}
	if _, err := xpath.EvalDocErr(reached, doc); err == nil {
		t.Fatal("bitset evaluator accepts a reached unbound variable")
	}
}

// TestLabelChainsAtSubcontexts: chains of child label steps whose last
// label is rare enough to be evaluated bottom-up agree with the
// reference at the root, at the node each chain starts from, at that
// node and its siblings, and at random contexts — contexts that hold
// some of a chain's possible starting points but not others.
func TestLabelChainsAtSubcontexts(t *testing.T) {
	doc := dtds.GenerateAdex(3, 300)
	r := rand.New(rand.NewSource(20261020))
	nodes := doc.Nodes()
	for chains := 0; chains < 300; {
		n := nodes[r.Intn(len(nodes))]
		if len(doc.Labeled(n.Label)) > doc.Size()/64 {
			continue // evaluated top-down; the sweeps above cover that
		}
		labels := []string{n.Label}
		m := n.Parent
		for len(labels) < 2+r.Intn(3) && m != nil && m.Parent != nil {
			labels = append([]string{m.Label}, labels...)
			m = m.Parent
		}
		if len(labels) < 2 || m == nil {
			continue
		}
		chains++
		var p xpath.Path = xpath.Label{Name: labels[0]}
		for _, l := range labels[1:] {
			p = xpath.Seq{Left: p, Right: xpath.Label{Name: l}}
		}
		ctxs := [][]*xmltree.Node{{doc.Root}, {m}, randomContext(r, doc)}
		if m.Parent != nil {
			ctxs = append(ctxs, m.Parent.Children)
		}
		for _, ctx := range ctxs {
			got, err := xpath.EvalAtErr(p, ctx)
			if err != nil {
				t.Fatalf("%s: %v", xpath.String(p), err)
			}
			assertSameNodes(t, xpath.String(p), got, ref(t, p, ctx...))
		}
	}
}
