package xpath_test

// Fuzz targets for the error-returning evaluator path: any query or
// qualifier the parser accepts must evaluate without panicking —
// rejections (unbound $variables) must come back as errors — and the
// forced-parallel evaluator must agree with the sequential one on every
// accepted input. Seeds come from the example queries shipped in
// internal/dtds (the Table 1 Adex benchmarks and the hospital/nurse
// scenario).

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

// FuzzEval drives EvalErr (via EvalDocErr) and the forced-parallel
// evaluator with arbitrary parsed queries, and checks the bitset
// evaluator over a compacted copy of the document against the slice
// reference on the uncompacted original, ordinal for ordinal. Run with
// go test -fuzz=FuzzEval$ ./internal/xpath.
func FuzzEval(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	doc := fuzzDoc()
	compact := xmltree.NewDocument(doc.Root.Clone())
	compact.Compact()
	if xpath.OrdinalApplicable(doc) || !xpath.OrdinalApplicable(compact) {
		f.Fatal("fuzzDoc must take the slice path and its compacted copy the bitset path")
	}
	cfg := xpath.ParallelConfig{Threshold: -1, Workers: 2}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := xpath.Parse(src)
		if err != nil {
			return // parser rejection is fine; evaluator panics are not
		}
		seq, seqErr := xpath.EvalDocErr(p, doc)
		par, parErr := xpath.EvalDocParallel(p, doc, cfg, nil)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("evaluators disagree on error for %q: sequential %v, parallel %v", src, seqErr, parErr)
		}
		if seqErr != nil {
			// Both rejected (e.g. unbound $variable) without panicking;
			// the bitset evaluator must reject it too.
			if _, err := xpath.EvalDocErr(p, compact); err == nil {
				t.Fatalf("bitset evaluator accepts %q, which the slice reference rejects: %v", src, seqErr)
			}
			return
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallel ≠ sequential for %q: %d vs %d nodes", src, len(par), len(seq))
		}
		bits, err := xpath.EvalDocErr(p, compact)
		if err != nil {
			t.Fatalf("bitset evaluator rejects %q, which the slice reference accepts: %v", src, err)
		}
		if len(bits) != len(seq) {
			t.Fatalf("bitset ≠ slice for %q: %d vs %d nodes", src, len(bits), len(seq))
		}
		for i := range seq {
			if bits[i].Ord() != seq[i].Ord() {
				t.Fatalf("bitset ≠ slice for %q: node %d is ord %d, want %d", src, i, bits[i].Ord(), seq[i].Ord())
			}
		}
		seen := make(map[*xmltree.Node]bool, len(seq))
		for i, n := range seq {
			if seen[n] || (i > 0 && seq[i-1].Ord() >= n.Ord()) {
				t.Fatalf("result of %q violates the sorted-unique invariant at %d", src, i)
			}
			seen[n] = true
		}
	})
}

// FuzzEvalQual does the same for bare qualifiers through EvalQualErr.
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
		// Evaluate at every node so qualifiers exercise attribute, text,
		// and element contexts; errors (unbound $variables) are fine,
		// panics are the target.
		doc.Root.Walk(func(n *xmltree.Node) bool {
			_, _ = xpath.EvalQualErr(q, n)
			return true
		})
	})
}
