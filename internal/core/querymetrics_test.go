package core

// QueryMetrics surfacing suite: the per-request carrier contracts the
// serving layer depends on. Every answered query runs the evaluator,
// plan-cache hit or not, and PlanText — the fingerprint basis for
// internal/qstats — must be set on every successful path: plan-cache
// miss and plan-cache hit.

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// queryWithMetrics runs q through e with a fresh carrier and returns it.
func queryWithMetrics(t *testing.T, e *Engine, doc *xmltree.Document, q xpath.Path) *obs.QueryMetrics {
	t.Helper()
	qm := &obs.QueryMetrics{}
	if _, err := e.QueryCtx(obs.WithQueryMetrics(context.Background(), qm), doc, q); err != nil {
		t.Fatal(err)
	}
	return qm
}

// genHospital generates a hospital document whose wardNo values are
// "0".."3", so the nurse bindings used below actually select wards.
func genHospital(seed int64) *xmltree.Document {
	return xmlgen.Generate(dtds.Hospital(), xmlgen.Config{
		Seed: seed, MinRepeat: 2, MaxRepeat: 4, MaxDepth: 12,
		Value: func(r *rand.Rand, label string) string {
			if label == "wardNo" {
				return strconv.Itoa(r.Intn(4))
			}
			return fmt.Sprintf("v%d", r.Intn(10))
		},
	})
}

// checkCachedHit: the first query misses the plan cache and its repeat
// hits it; both run the evaluator (the engine keeps no answers) and
// return the same nodes.
func checkCachedHit(t *testing.T, doc *xmltree.Document) {
	t.Helper()
	e := nurseEngine(t, "1")
	q := xpath.MustParse("//patient")

	first := &obs.QueryMetrics{}
	want, err := e.QueryCtx(obs.WithQueryMetrics(context.Background(), first), doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("first query returned no nodes; the check needs a non-empty answer")
	}
	second := &obs.QueryMetrics{}
	got, err := e.QueryCtx(obs.WithQueryMetrics(context.Background(), second), doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCacheHit || !second.PlanCacheHit {
		t.Fatalf("plan-cache hits %v, %v; want a miss, then a hit", first.PlanCacheHit, second.PlanCacheHit)
	}
	if first.NodesVisited == 0 || second.NodesVisited != first.NodesVisited {
		t.Fatalf("nodes visited %d, %d; want equal and nonzero: the repeat must be evaluated", first.NodesVisited, second.NodesVisited)
	}
	if n := e.Stats().Evals; n != 2 {
		t.Fatalf("engine evals = %d, want 2", n)
	}
	if len(got) != len(want) {
		t.Fatalf("repeat answer has %d nodes, first answer %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("repeat answer differs from the first at position %d", i)
		}
	}
}

// TestCachedHitSetReprBitset: on a parsed (compacted) document a
// plan-cache hit is evaluated like a miss.
func TestCachedHitSetReprBitset(t *testing.T) {
	checkCachedHit(t, genHospital(7))
}

// TestCachedHitSetReprSlice: the same contract on a renumbered clone
// that was never compacted: evaluation depends only on the numbering,
// so the uncompacted document takes the same path as the compacted one.
func TestCachedHitSetReprSlice(t *testing.T) {
	checkCachedHit(t, xmltree.NewDocument(genHospital(7).Root.Clone()))
}

// TestPlanTextSurfaced: PlanText carries the rendered optimized plan on
// plan-cache misses and hits alike, and is identical across them — the
// stability the fingerprint registry keys on.
func TestPlanTextSurfaced(t *testing.T) {
	class, err := NewClass(dtds.NurseSpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := class.Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatal(err)
	}
	doc := genHospital(7)
	q := xpath.MustParse("//patient[.//medication]")

	first := queryWithMetrics(t, e, doc, q)
	if first.PlanCacheHit {
		t.Fatal("first query reported a plan-cache hit on a cold cache")
	}
	if first.PlanText == "" {
		t.Fatal("PlanText empty on the plan-cache miss")
	}
	second := queryWithMetrics(t, e, doc, q)
	if !second.PlanCacheHit {
		t.Fatal("second query missed the plan cache")
	}
	if second.PlanText != first.PlanText {
		t.Errorf("PlanText changed across cache hit: %q vs %q", second.PlanText, first.PlanText)
	}

	// Another binding's handle shares the plan and surfaces the same
	// text: PlanText depends on the policy and the query shape only.
	e2, err := class.Bind(map[string]string{"wardNo": "2"})
	if err != nil {
		t.Fatal(err)
	}
	other := queryWithMetrics(t, e2, doc, q)
	if !other.PlanCacheHit {
		t.Error("ward-2 query missed the plan ward 1 built")
	}
	if other.PlanText != first.PlanText {
		t.Errorf("ward-2 PlanText %q differs from ward-1 %q", other.PlanText, first.PlanText)
	}
}
