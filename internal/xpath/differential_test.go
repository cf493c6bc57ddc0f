package xpath_test

// Differential property suite: on randomized (DTD, document, query)
// triples, the serving evaluator must agree with the reference
// evaluator (xpath.EvalRef) exactly — same node set, same document
// order, no duplicates. Hand-written equivalence cases only cover the
// query shapes their authors thought of; the randomized sweep pins the
// ≡ down across the whole fragment, including the degenerate shapes (∅,
// ε, deep unions, qualifier nests) that tend to hide bugs in the label
// index and interval paths.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// evalDoc and evalAt run the serving entry, xpath.Evaluate, with no
// context and no bindings.
func evalDoc(p xpath.Path, doc *xmltree.Document) ([]*xmltree.Node, error) {
	return evalAt(p, []*xmltree.Node{doc.Root})
}

func evalAt(p xpath.Path, nodes []*xmltree.Node) ([]*xmltree.Node, error) {
	out, _, err := xpath.Evaluate(nil, p, nodes, xpath.Env{})
	return out, err
}

// randomDTDSource emits a small random DTD in the compact syntax:
// element types e0..ek where ei's production draws children from the
// types after it (always terminating), as a sequence, a choice, a star,
// or #PCDATA. The last two types are always text so every shape can
// bottom out.
func randomDTDSource(r *rand.Rand) string {
	n := 4 + r.Intn(5) // 4..8 element types
	name := func(i int) string { return fmt.Sprintf("e%d", i) }
	src := "root e0\n"
	for i := 0; i < n; i++ {
		if i >= n-2 {
			src += name(i) + " -> #PCDATA\n"
			continue
		}
		pick := func() string { return name(i + 1 + r.Intn(n-i-1)) }
		switch r.Intn(4) {
		case 0: // star of one child type
			src += name(i) + " -> " + pick() + "*\n"
		case 1: // choice
			a, b := pick(), pick()
			for b == a {
				b = pick()
			}
			src += name(i) + " -> " + a + " + " + b + "\n"
		case 2: // sequence, possibly with starred items
			k := 1 + r.Intn(3)
			if avail := n - i - 1; k > avail {
				k = avail // distinct types to draw from run out near the tail
			}
			seen := map[string]bool{}
			var items []string
			for len(items) < k {
				c := pick()
				if seen[c] {
					continue
				}
				seen[c] = true
				if r.Intn(3) == 0 {
					c += "*"
				}
				items = append(items, c)
			}
			src += name(i) + " -> " + join(items) + "\n"
		default: // text interior node
			src += name(i) + " -> #PCDATA\n"
		}
	}
	return src
}

func join(items []string) string {
	out := items[0]
	for _, s := range items[1:] {
		out += ", " + s
	}
	return out
}

// randPath draws a random query AST over the DTD's labels. depth bounds
// the recursion so queries stay evaluable.
func randPath(r *rand.Rand, labels []string, depth int) xpath.Path {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return xpath.Self{}
		case 1:
			return xpath.Wildcard{}
		default:
			return xpath.Label{Name: labels[r.Intn(len(labels))]}
		}
	}
	switch r.Intn(10) {
	case 0:
		return xpath.Empty{}
	case 1:
		return xpath.Self{}
	case 2:
		return xpath.Wildcard{}
	case 3, 4:
		return xpath.Label{Name: labels[r.Intn(len(labels))]}
	case 5:
		return xpath.Seq{Left: randPath(r, labels, depth-1), Right: randPath(r, labels, depth-1)}
	case 6:
		return xpath.Descend{Sub: randPath(r, labels, depth-1)}
	case 7:
		return xpath.Union{Left: randPath(r, labels, depth-1), Right: randPath(r, labels, depth-1)}
	default:
		return xpath.Qualified{Sub: randPath(r, labels, depth-1), Cond: randQual(r, labels, depth-1)}
	}
}

func randQual(r *rand.Rand, labels []string, depth int) xpath.Qual {
	if depth <= 0 {
		return xpath.QPath{Path: xpath.Label{Name: labels[r.Intn(len(labels))]}}
	}
	switch r.Intn(8) {
	case 0:
		return xpath.QTrue{}
	case 1:
		return xpath.QFalse{}
	case 2:
		// xmlgen's default Value hook yields v0..v9, so some of these hit.
		return xpath.QEq{Path: randPath(r, labels, depth-1), Value: fmt.Sprintf("v%d", r.Intn(10))}
	case 3:
		return xpath.QAnd{Left: randQual(r, labels, depth-1), Right: randQual(r, labels, depth-1)}
	case 4:
		return xpath.QOr{Left: randQual(r, labels, depth-1), Right: randQual(r, labels, depth-1)}
	case 5:
		return xpath.QNot{Sub: randQual(r, labels, depth-1)}
	default:
		return xpath.QPath{Path: randPath(r, labels, depth-1)}
	}
}

// assertSortedUnique fails if nodes are out of document order or
// duplicated — the evaluator's output invariant.
func assertSortedUnique(t *testing.T, label string, nodes []*xmltree.Node) {
	t.Helper()
	seen := make(map[*xmltree.Node]bool, len(nodes))
	for i, n := range nodes {
		if seen[n] {
			t.Fatalf("%s: duplicate node %s at position %d", label, n.Path(), i)
		}
		seen[n] = true
		if i > 0 && nodes[i-1].Ord() >= n.Ord() {
			t.Fatalf("%s: out of document order at position %d", label, i)
		}
	}
}

// ref evaluates p at ctx with the reference evaluator.
func ref(t *testing.T, p xpath.Path, ctx ...*xmltree.Node) []*xmltree.Node {
	t.Helper()
	out, err := xpath.EvalRef(p, ctx)
	if err != nil {
		t.Fatalf("reference eval error on %s: %v", xpath.String(p), err)
	}
	return out
}

// assertSameNodes fails unless got and want hold the same nodes in the
// same order (nil and empty are equal).
func assertSameNodes(t *testing.T, label string, got, want []*xmltree.Node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d nodes, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d differs (%s vs %s)", label, i, got[i].Path(), want[i].Path())
		}
	}
}

// TestDifferentialIndexedVsSequential sweeps ~200 randomized (DTD,
// document, query) triples through the serving evaluator, whose
// descendant and child steps read the label index, checking it against
// the sequential reference at the document root and at random
// subcontexts. This is the suite that licenses serving traffic from the
// label index: any divergence here is a policy-enforcement bug, not a
// performance bug.
func TestDifferentialIndexedVsSequential(t *testing.T) {
	r := rand.New(rand.NewSource(20260807))
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
			// Random star chains occasionally explode, and the reference
			// walks nested descends superlinearly: keep the sweep fast.
			continue
		}
		labels := append(d.Types(), xpath.TextName)
		for q := 0; q < 5; q++ {
			triples++
			p := randPath(r, labels, 3)
			want := ref(t, p, doc.Root)
			assertSortedUnique(t, "reference "+xpath.String(p), want)
			got, err := evalDoc(p, doc)
			if err != nil {
				t.Fatalf("indexed eval error on %s: %v", xpath.String(p), err)
			}
			assertSortedUnique(t, "indexed "+xpath.String(p), got)
			assertSameNodes(t, "indexed ≠ sequential on "+xpath.String(p)+"\nDTD:\n"+src, got, want)

			// Subcontext leg: a random context set (possibly with
			// duplicates and ancestor/descendant overlap) exercises the
			// selectivity gates and the interval cover.
			all := doc.Nodes()
			ctx := make([]*xmltree.Node, 1+r.Intn(4))
			for i := range ctx {
				ctx[i] = all[r.Intn(len(all))]
			}
			wantAt := ref(t, p, ctx...)
			gotAt, err := evalAt(p, ctx)
			if err != nil {
				t.Fatalf("indexed subcontext error on %s: %v", xpath.String(p), err)
			}
			assertSameNodes(t, "indexed@ctx ≠ sequential@ctx on "+xpath.String(p), gotAt, wantAt)
		}
	}
}

// TestDifferentialIndexedLargeDoc repeats the served ≡ reference check
// on a document big enough that the selectivity heuristic actually
// chooses the posting-list path for whole-document descends.
func TestDifferentialIndexedLargeDoc(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	src := `
root e0
e0 -> e1*
e1 -> e2, e3*
e2 -> e4*
e3 -> e4, e5
e4 -> e5*
e5 -> #PCDATA
`
	d := dtd.MustParse(src)
	doc := xmlgen.Generate(d, xmlgen.Config{Seed: 7, MinRepeat: 2, MaxRepeat: 9, MaxDepth: 10})
	if doc.Size() < 1000 {
		t.Fatalf("generated doc too small: %d nodes", doc.Size())
	}
	labels := append(d.Types(), xpath.TextName)
	for i := 0; i < 25; i++ {
		p := randPath(r, labels, 2)
		want := ref(t, p, doc.Root)
		got, err := evalDoc(p, doc)
		if err != nil {
			t.Fatalf("indexed: %v", err)
		}
		assertSameNodes(t, "large-doc indexed on "+xpath.String(p), got, want)
	}
	// The canonical deep-descendant shapes, pinned explicitly.
	for _, q := range []string{"//e1//e4//e5", "//e1//e5/text()", "//e1[.//e4]//e5", "//e0//e1//e3//e5"} {
		p := xpath.MustParse(q)
		assertSameNodes(t, q, xpath.EvalDoc(p, doc), ref(t, p, doc.Root))
	}
}

// TestEvalIndexedRejectsUnboundVars: the serving evaluator shares the
// reference evaluator's unbound-$variable contract, on a descendant
// step the label index serves too.
func TestEvalIndexedRejectsUnboundVars(t *testing.T) {
	doc := xmlgen.Generate(dtd.MustParse("root e0\ne0 -> e1*\ne1 -> #PCDATA\n"), xmlgen.Config{Seed: 1, MinRepeat: 2})
	for _, p := range []xpath.Path{
		xpath.Qualified{Sub: xpath.Self{}, Cond: xpath.QEq{Path: xpath.Self{}, Var: "w"}},
		xpath.MustParse("//e1[. = $w]"),
	} {
		if _, err := xpath.EvalRef(p, []*xmltree.Node{doc.Root}); err == nil {
			t.Fatalf("reference accepted unbound variable in %s", xpath.String(p))
		}
		if _, err := evalDoc(p, doc); err == nil {
			t.Fatalf("unbound variable in %s accepted by Evaluate", xpath.String(p))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EvalDoc did not panic on unbound variable in %s", xpath.String(p))
				}
			}()
			xpath.EvalDoc(p, doc)
		}()
	}
}

// TestConcurrentEvalsShareDocument: many goroutines evaluate on one
// fresh document at once — racing to build its label index, drawing
// scratch sets from the shared pool — and every answer matches the
// reference (run with -race).
func TestConcurrentEvalsShareDocument(t *testing.T) {
	doc := dtds.GenerateHospital(5, 6)
	queries := []xpath.Path{
		xpath.MustParse("//patient/name"),
		xpath.MustParse(`//patient[wardNo = "3"]/name`),
		xpath.MustParse("(//bill | //medication)"),
		xpath.MustParse("(//patient | dept/patientInfo/patient)[treatment/regular]/name"),
		xpath.MustParse("dept/staffInfo/staff/*"),
	}
	want := make([][]*xmltree.Node, len(queries))
	for i, p := range queries {
		want[i] = ref(t, p, doc.Root)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				k := (g + i) % len(queries)
				got, err := evalDoc(queries[k], doc)
				if err != nil {
					t.Errorf("%s: %v", xpath.String(queries[k]), err)
					return
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("%s: %d nodes, reference %d", xpath.String(queries[k]), len(got), len(want[k]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
