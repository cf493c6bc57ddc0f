package core

// QueryMetrics surfacing suite: the per-request carrier contracts the
// serving layer depends on. EvalMode tells an evaluator run from an
// answer-cache hit (the documented ModeCached contract in internal/obs),
// and PlanText — the fingerprint
// basis for internal/qstats — must be set on every successful path:
// plan-cache miss, plan-cache hit, and answer-cache hit.

import (
	"context"
	"testing"

	"repro/internal/obs"
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

// checkCachedHit: the first query runs the evaluator (ModeEval) and
// its repeat is served by the answer cache (ModeCached, an "equal" hit)
// with the same answer.
func checkCachedHit(t *testing.T, doc *xmltree.Document) {
	t.Helper()
	on, _ := nurseEngines(t, "1")
	q := xpath.MustParse("//patient")

	qm := &obs.QueryMetrics{}
	want, err := on.QueryCtx(obs.WithQueryMetrics(context.Background(), qm), doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if qm.EvalMode != obs.ModeEval {
		t.Fatalf("first query mode = %q, want %q on a cold cache", qm.EvalMode, obs.ModeEval)
	}
	if len(want) == 0 {
		t.Fatal("first query returned no nodes; the check needs a non-empty answer")
	}

	qm = &obs.QueryMetrics{}
	got, err := on.QueryCtx(obs.WithQueryMetrics(context.Background(), qm), doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if qm.EvalMode != obs.ModeCached || qm.AnswerCacheHit != "equal" {
		t.Fatalf("second query mode=%q hit=%q, want cached/equal", qm.EvalMode, qm.AnswerCacheHit)
	}
	if len(got) != len(want) {
		t.Fatalf("cached answer has %d nodes, evaluated answer %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cached answer differs from the evaluated one at position %d", i)
		}
	}
}

// TestCachedHitSetReprBitset: on a parsed (compacted) document the
// first query is evaluated and its repeat is served from the answer
// cache, which stores the answer as an ordinal bitset.
func TestCachedHitSetReprBitset(t *testing.T) {
	checkCachedHit(t, genHospital(7))
}

// TestCachedHitSetReprSlice: the same contract on a renumbered clone
// that was never compacted. There is no slice representation any more:
// evaluation and answer storage depend only on the numbering, so the
// uncompacted document takes the same path as the compacted one.
func TestCachedHitSetReprSlice(t *testing.T) {
	checkCachedHit(t, xmltree.NewDocument(genHospital(7).Root.Clone()))
}

// TestPlanTextSurfaced: PlanText carries the rendered optimized plan on
// plan-cache misses, plan-cache hits, and answer-cache hits alike, and
// is identical across them — the stability the fingerprint registry
// keys on.
func TestPlanTextSurfaced(t *testing.T) {
	on, off := nurseEngines(t, "1")
	doc := genHospital(7)
	q := xpath.MustParse("//patient[.//medication]")

	first := queryWithMetrics(t, on, doc, q) // plan miss, answer miss
	if first.PlanCacheHit {
		t.Fatal("first query reported a plan-cache hit on a cold cache")
	}
	if first.PlanText == "" {
		t.Fatal("PlanText empty on the evaluated path")
	}
	second := queryWithMetrics(t, on, doc, q) // plan hit, answer hit
	if !second.PlanCacheHit || second.EvalMode != obs.ModeCached {
		t.Fatalf("second query: planHit=%v mode=%q, want true/cached", second.PlanCacheHit, second.EvalMode)
	}
	if second.PlanText != first.PlanText {
		t.Errorf("PlanText changed across cache hit: %q vs %q", second.PlanText, first.PlanText)
	}

	// A cache-off engine surfaces the same text: PlanText depends on the
	// policy and query, not on caching configuration.
	plain := queryWithMetrics(t, off, doc, q)
	if plain.PlanText != first.PlanText {
		t.Errorf("cache-off PlanText %q differs from cache-on %q", plain.PlanText, first.PlanText)
	}
}
