package rewrite

import (
	"fmt"
	"testing"

	"repro/internal/xpath"
)

// TestMemoScopedToOneCall: the DP memo lives for one Rewrite call, so
// thousands of distinct queries leave the rewriter no larger than one of
// them does. A memo kept across calls grows with every distinct query
// (its keys are whole sub-query trees), and a rewriter that is never
// evicted — one per policy — would then leak.
func TestMemoScopedToOneCall(t *testing.T) {
	r, err := ForView(nurseView(t))
	if err != nil {
		t.Fatal(err)
	}
	shapes := []string{
		`//patient[name = "%[1]d"]/treatment//bill`,
		`//dept[.//wardNo = "%[1]d"]/patientInfo/patient[not(name = "%[2]d")]`,
		`//patient[name = "%[1]d"] | //staff[nurse/name = "%[2]d"]/*`,
	}
	first := make([]int, len(shapes))
	for i := 0; i < 3000; i++ {
		k := i % len(shapes)
		q := xpath.MustParse(fmt.Sprintf(shapes[k], i, i+1))
		_, cells, err := r.RewriteCounted(q)
		if err != nil {
			t.Fatalf("Rewrite(%s): %v", xpath.String(q), err)
		}
		if cells == 0 {
			t.Fatalf("%s memoized no cells", xpath.String(q))
		}
		if i < len(shapes) {
			first[k] = cells
		} else if cells != first[k] {
			t.Fatalf("query %d (%s) left %d memo cells, its shape's first query %d: the memo outlives its call", i, xpath.String(q), cells, first[k])
		}
	}
}
