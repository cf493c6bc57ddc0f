package xpath_test

// Fuzz targets for the evaluator: any query or qualifier the parser
// accepts must evaluate without panicking — rejections (unbound
// $variables) must come back as errors — and must agree with the
// reference evaluator (xpath.EvalRef) on every
// accepted input, errors included. Seeds come from the example queries
// shipped in internal/dtds (the Table 1 Adex benchmarks and the
// hospital/nurse scenario).

import (
	"reflect"
	"testing"

	"repro/internal/dtds"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// fuzzDoc is a small document whose labels overlap the seed queries
// (hospital and Adex vocabulary) plus attribute-carrying and text nodes,
// so accepted queries actually select something.
func fuzzDoc() *xmltree.Document {
	e, tx := xmltree.E, xmltree.T
	patient := e("patient", tx("name", "v1"), tx("wardNo", "1"),
		e("treatment", e("regular", tx("bill", "v2"), tx("medication", "v3"))))
	patient.SetAttr("id", "p1")
	ad := e("real-estate",
		e("house", tx("r-e.warranty", "w1"), tx("r-e.asking-price", "90")),
		e("apartment", tx("r-e.unit-type", "2br")))
	buyer := e("buyer-info", tx("contact-info", "c1"), tx("company-id", "acme"))
	buyer.SetAttr("accessibility", "1")
	root := e("hospital",
		e("dept", e("patientInfo", patient),
			e("staffInfo", e("staff", e("nurse", tx("name", "v4"))))),
		ad, buyer)
	return xmltree.NewDocument(root)
}

func fuzzSeeds() []string {
	seeds := []string{
		"//patient/name",
		"//dept//patientInfo/patient/name",
		"//patient[wardNo = \"1\"]/name",
		"//*[name]/wardNo | //bill",
		"//staff/nurse",
		".//treatment//bill",
		"text()",
		"//patient[@id]",
		"a[b = $w]",
		"∅",
		"//*//*[not(x) and .//y]",
	}
	for _, q := range dtds.AdexQueries {
		seeds = append(seeds, q)
	}
	return seeds
}

// FuzzEval checks the evaluator against the reference on arbitrary
// parsed queries, over the fuzz document (renumbered, never compacted)
// and over a compacted copy, node for node. Run with
// go test -fuzz=FuzzEval$ ./internal/xpath.
func FuzzEval(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	doc := fuzzDoc()
	compact := xmltree.NewDocument(doc.Root.Clone())
	compact.Compact()
	f.Fuzz(func(t *testing.T, src string) {
		p, err := xpath.Parse(src)
		if err != nil {
			return // parser rejection is fine; evaluator panics are not
		}
		want, refErr := xpath.EvalRef(p, []*xmltree.Node{doc.Root})
		for _, d := range []*xmltree.Document{doc, compact} {
			got, err := evalDoc(p, d)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("evaluator and reference disagree on error for %q: %v vs %v", src, err, refErr)
			}
			if err != nil {
				continue // both rejected (e.g. unbound $variable) without panicking
			}
			if len(got) != len(want) {
				t.Fatalf("eval ≠ reference for %q: %d vs %d nodes", src, len(got), len(want))
			}
			for i := range want {
				if got[i].Ord() != want[i].Ord() {
					t.Fatalf("eval ≠ reference for %q: node %d is ord %d, want %d", src, i, got[i].Ord(), want[i].Ord())
				}
				if i > 0 && got[i-1].Ord() >= got[i].Ord() {
					t.Fatalf("result of %q violates the sorted-unique invariant at %d", src, i)
				}
			}
		}
	})
}

// FuzzEvalQual checks bare qualifiers: at every node, the evaluator's
// .[q] selects the node exactly when the reference's .[q] does
// there (and fails exactly when it fails), and one set-at-a-time
// evaluation of .[q] at all nodes selects exactly those nodes.
func FuzzEvalQual(f *testing.F) {
	for _, seed := range []string{
		"name",
		"wardNo = \"1\"",
		"*/patient/wardNo = $wardNo",
		"//company-id and //contact-info",
		"house/r-e.asking-price and apartment/r-e.unit-type",
		"@accessibility = \"1\"",
		"not(@ssn)",
		"not(not(treatment//bill))",
		"true() and false()",
	} {
		f.Add(seed)
	}
	doc := fuzzDoc()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := xpath.ParseQual(src)
		if err != nil {
			return
		}
		p := xpath.Qualified{Sub: xpath.Self{}, Cond: q}
		var held []*xmltree.Node
		var refErr error
		for _, n := range doc.Nodes() {
			ref, err := xpath.EvalRef(p, []*xmltree.Node{n})
			hold := len(ref) == 1
			got, gotErr := evalAt(p, []*xmltree.Node{n})
			if (err == nil) != (gotErr == nil) {
				t.Fatalf("%q at %s: evaluator error %v, reference %v", src, n.Path(), gotErr, err)
			}
			if err != nil {
				refErr = err
				continue
			}
			if hold != (len(got) == 1) {
				t.Fatalf("%q at %s: evaluator selects %d nodes, reference holds=%v", src, n.Path(), len(got), hold)
			}
			if hold {
				held = append(held, n)
			}
		}
		all, err := evalAt(p, doc.Nodes())
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q at every node: evaluator error %v, reference %v", src, err, refErr)
		}
		if err == nil && !reflect.DeepEqual(all, held) {
			t.Fatalf("%q at every node: evaluator selects %d nodes, reference %d", src, len(all), len(held))
		}
	})
}
