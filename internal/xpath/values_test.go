package xpath_test

// Property suite for the value dictionary behind p = c qualifiers: the
// evaluator resolves c to an id of the document's value dictionary
// (xmltree.Values) and compares ids, and must select
// exactly what the reference evaluator selects by comparing strings.
// Documents draw their text from a small pool of equal-length values,
// so that values repeat across nodes and labels and any key coarser
// than the whole string (a hash, a length, a prefix) merges two of
// them; some elements get extra text children (mixed content, whose
// value is the concatenation); comparands come as literals, as bound
// $parameters and as literal placeholders, and include values no node
// carries.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// valuePool is the text of every generated node: 36 values of two
// bytes, so they repeat and collide under any coarse key.
var valuePool = func() []string {
	var out []string
	for _, a := range "vw1" {
		for _, b := range "0123456789ab" {
			out = append(out, string(a)+string(b))
		}
	}
	return out
}()

func poolValue(r *rand.Rand, _ string) string { return valuePool[r.Intn(len(valuePool))] }

// mixContent returns a renumbered copy of doc in which every third
// element with children gets one more text child, placed first or last,
// so its value is a concatenation.
func mixContent(r *rand.Rand, doc *xmltree.Document) *xmltree.Document {
	root := doc.Root.Clone()
	i := 0
	root.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.ElementNode && len(n.Children) > 0 {
			if i++; i%3 == 0 {
				txt := xmltree.NewText(poolValue(r, ""))
				txt.Parent = n
				if r.Intn(2) == 0 {
					n.Children = append(n.Children, txt)
				} else {
					n.Children = append([]*xmltree.Node{txt}, n.Children...)
				}
			}
		}
		return true
	})
	return xmltree.NewDocument(root)
}

// valueFixture is one document of the sweep with the policy whose
// rewritten plans run over it.
type valueFixture struct {
	name string
	spec *access.Spec
	doc  *xmltree.Document
}

func valueFixtures(t *testing.T) []valueFixture {
	t.Helper()
	gen := func(d *dtd.DTD, seed int64, maxDepth int) *xmltree.Document {
		return xmlgen.Generate(d, xmlgen.Config{Seed: seed, MinRepeat: 1, MaxRepeat: 3, MaxDepth: maxDepth, MaxNodes: 500, Value: poolValue})
	}
	out := []valueFixture{
		{"hospital", dtds.NurseSpec(), gen(dtds.Hospital(), 1, 12)},
		{"fig7", dtds.Fig7Spec(), gen(dtds.Fig7(), 2, 10)},
		{"adex", dtds.AdexSpec(), gen(dtds.Adex(), 3, 12)},
	}
	for seed := int64(1); len(out) < 6; seed++ {
		s := dtds.RandomRecursiveSpec(rand.New(rand.NewSource(seed)), dtds.RecursiveGen{Depth: 3, Branching: 2, Density: 0.5})
		if _, err := core.NewClass(s, core.Config{}); err != nil {
			continue
		}
		out = append(out, valueFixture{fmt.Sprintf("random%d", seed), s, gen(s.D, seed, 8)})
	}
	r := rand.New(rand.NewSource(20261018))
	for i, n := 0, len(out); i < n; i++ {
		f := out[i]
		out = append(out, valueFixture{f.name + "-mixed", f.spec, mixContent(r, f.doc)})
	}
	return out
}

// comparand draws a value to compare against: mostly the value of a
// random node of doc (an element's value may be a concatenation, or
// empty), else a pool value (perhaps absent, or present under other
// labels only), the empty string, a concatenation, or a value no node
// carries.
func comparand(r *rand.Rand, doc *xmltree.Document) string {
	switch r.Intn(10) {
	case 0:
		return ""
	case 1:
		return "no-such-value"
	case 2:
		return poolValue(r, "") + poolValue(r, "")
	case 3:
		return poolValue(r, "")
	default:
		return doc.Nodes()[r.Intn(doc.Size())].Text()
	}
}

// finalShape draws a qualifier path ending in every kind of final step
// the dictionary build distinguishes: a label, text(), *, ., a union,
// a qualified step and a descendant step.
func finalShape(r *rand.Rand, labels []string) xpath.Path {
	label := func() xpath.Path { return xpath.Label{Name: labels[r.Intn(len(labels))]} }
	switch r.Intn(9) {
	case 0:
		return label()
	case 1:
		return xpath.Label{Name: xpath.TextName}
	case 2:
		return xpath.Wildcard{}
	case 3:
		return xpath.Self{}
	case 4:
		return xpath.Seq{Left: label(), Right: label()}
	case 5:
		return xpath.Descend{Sub: label()}
	case 6:
		return xpath.Union{Left: label(), Right: finalShape(r, labels)}
	case 7:
		return xpath.Qualified{Sub: label(), Cond: xpath.QPath{Path: label()}}
	default:
		return xpath.Seq{Left: xpath.Wildcard{}, Right: xpath.Self{}}
	}
}

// eqQual draws p = c with c as a literal, a $parameter or a literal
// placeholder, and returns the environment that binds it.
func eqQual(r *rand.Rand, p xpath.Path, doc *xmltree.Document) (xpath.Qual, xpath.Env) {
	c := comparand(r, doc)
	switch r.Intn(3) {
	case 0:
		return xpath.QEq{Path: p, Value: c}, xpath.Env{}
	case 1:
		return xpath.QEq{Path: p, Var: "v"}, xpath.Env{Params: map[string]string{"v": c}}
	default:
		return xpath.QEq{Path: p, Var: xpath.LiteralVar(0)}, xpath.Env{Literals: []string{c}}
	}
}

// assertEnvMatchesRef evaluates a plan under env with the evaluator and
// the plan with env substituted with the reference, at the root.
func assertEnvMatchesRef(t *testing.T, p xpath.Path, env xpath.Env, doc *xmltree.Document) int {
	t.Helper()
	got, _, err := xpath.Evaluate(context.Background(), p, []*xmltree.Node{doc.Root}, env)
	if err != nil {
		t.Fatalf("eval %s: %v", xpath.String(p), err)
	}
	bound, err := xpath.BindVars(p, env.Map())
	if err != nil {
		t.Fatalf("BindVars: %v", err)
	}
	assertSameNodes(t, fmt.Sprintf("value ids ≠ reference on %s with %v", xpath.String(p), env.Map()), got, ref(t, bound, doc.Root))
	return len(got)
}

// TestValueIDsMatchReference is the dictionary's property test: direct
// document plans with random p = c qualifiers, and view queries with
// literals rewritten through each fixture's policy (σ qualifiers with
// $parameters, Rec plans on the recursive views), all select exactly
// what the string-comparing reference selects.
func TestValueIDsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(20261020))
	plans, held := 0, 0
	for _, f := range valueFixtures(t) {
		docLabels := append(f.spec.D.Types(), xpath.TextName)
		for i := 0; i < 60; i++ {
			cond, env := eqQual(r, finalShape(r, docLabels), f.doc)
			if r.Intn(2) == 0 {
				cond = xpath.QAnd{Left: xpath.QPath{Path: randQualPath(r, docLabels, valuePool, 1)}, Right: cond}
			}
			var p xpath.Path = xpath.Descend{Sub: xpath.Qualified{Sub: xpath.Wildcard{}, Cond: cond}}
			if r.Intn(3) == 0 {
				p = xpath.Seq{Left: p, Right: randQualPath(r, docLabels, valuePool, 2)}
			}
			plans++
			if assertEnvMatchesRef(t, p, env, f.doc) > 0 {
				held++
			}
		}

		class, err := core.NewClass(f.spec, core.Config{})
		if err != nil {
			t.Fatalf("%s: NewClass: %v", f.name, err)
		}
		viewLabels := append(class.ViewDTD().Types(), xpath.TextName)
		for i := 0; i < 30; i++ {
			params := map[string]string{}
			for _, v := range f.spec.Vars() {
				params[v] = comparand(r, f.doc)
			}
			e, err := class.Bind(params)
			if err != nil {
				t.Fatalf("%s: Bind: %v", f.name, err)
			}
			q := xpath.Descend{Sub: xpath.Qualified{
				Sub:  xpath.Label{Name: viewLabels[r.Intn(len(viewLabels))]},
				Cond: xpath.QEq{Path: finalShape(r, viewLabels), Value: comparand(r, f.doc)},
			}}
			prep, err := e.Prepare(q)
			if err != nil {
				t.Fatalf("%s: Prepare(%s): %v", f.name, xpath.String(q), err)
			}
			plans++
			if assertEnvMatchesRef(t, prep.Optimized, prep.Env, f.doc) > 0 {
				held++
			}
		}
	}
	// A sweep whose plans mostly select nothing would compare little.
	if held < plans/8 {
		t.Fatalf("only %d of %d plans selected any node", held, plans)
	}
}

// TestValueIDsConcurrentFirstBuilds runs p = c evaluations over many
// labels concurrently on fresh documents: under -race this checks that
// evaluations only read the dictionary Renumber built; every answer
// must match the reference computed beforehand.
func TestValueIDsConcurrentFirstBuilds(t *testing.T) {
	base := xmlgen.Generate(dtds.Hospital(), xmlgen.Config{Seed: 4, MinRepeat: 1, MaxRepeat: 4, Value: poolValue})
	labels := append(dtds.Hospital().Types(), xpath.TextName)
	type job struct {
		p    xpath.Path
		want []*xmltree.Node
	}
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 16; round++ {
		doc := xmltree.NewDocument(base.Root.Clone())
		var jobs []job
		for i, l := range labels {
			var step xpath.Path = xpath.Label{Name: l}
			if i%5 == 4 {
				step = xpath.Self{} // reads every element's id
			}
			p := xpath.Descend{Sub: xpath.Qualified{Sub: xpath.Wildcard{}, Cond: xpath.QEq{Path: step, Value: poolValue(r, "")}}}
			jobs = append(jobs, job{p, ref(t, p, doc.Root)})
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan string, len(jobs))
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				<-start
				got, err := evalDoc(j.p, doc)
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(got) != len(j.want) {
					errs <- fmt.Sprintf("%s: %d nodes, reference %d", xpath.String(j.p), len(got), len(j.want))
					return
				}
				for k := range got {
					if got[k] != j.want[k] {
						errs <- fmt.Sprintf("%s: node %d differs", xpath.String(j.p), k)
						return
					}
				}
			}(j)
		}
		close(start)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// TestValueIDsSeeEditsAfterRenumber: a document is immutable between
// Renumber calls, which rebuilds its value dictionary. An in-place text
// edit followed by Renumber is seen by the next p = c evaluation even
// though an earlier one read the dictionary of the unedited text.
func TestValueIDsSeeEditsAfterRenumber(t *testing.T) {
	doc := dtds.GenerateHospital(3, 3)
	p := xpath.MustParse(`//patient[wardNo = "9"]`)
	if got := xpath.EvalDoc(p, doc); len(got) != 0 {
		t.Fatalf("generated document already has ward 9: %d patients", len(got))
	}
	wardNo := xpath.EvalDoc(xpath.MustParse("//patient/wardNo/text()"), doc)
	if len(wardNo) == 0 {
		t.Fatal("no wardNo text to edit")
	}
	wardNo[0].Data = "9"
	doc.Renumber()
	if doc.Values().ID("9") == xmltree.NoValue {
		t.Fatal("after edit and Renumber: the dictionary has no id for 9")
	}
	got := xpath.EvalDoc(p, doc)
	if len(got) != 1 || got[0] != wardNo[0].Parent.Parent {
		t.Fatalf("after edit and Renumber: %d patients in ward 9, want the edited one", len(got))
	}
}
