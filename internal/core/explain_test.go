package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func fig7Engine(t *testing.T) (*Engine, *xmltree.Document) {
	t.Helper()
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New(fig7): %v", err)
	}
	doc := xmlgen.Generate(dtds.Fig7(), xmlgen.Config{
		Seed: 3, MinRepeat: 1, MaxRepeat: 3, MaxDepth: 12,
		Value: func(r *rand.Rand, label string) string { return fmt.Sprintf("%s-%d", label, r.Intn(50)) },
	})
	return e, doc
}

// TestExplainRecursive: an explain over the recursive Fig. 7 view must
// report all three phases with measured (nonzero) durations, the
// intermediate query strings, the eval mode, and the height-free rewrite
// mode — even when the plan cache is already
// warm, because the explain path re-times rewrite and optimize from
// scratch.
func TestExplainRecursive(t *testing.T) {
	e, doc := fig7Engine(t)
	const q = "//a//a/b"

	ex, err := e.ExplainCtx(context.Background(), doc, xpath.MustParse(q))
	if err != nil {
		t.Fatalf("ExplainCtx: %v", err)
	}
	if want := xpath.String(xpath.MustParse(q)); ex.Query != want {
		t.Errorf("Query = %q, want %q", ex.Query, want)
	}
	if ex.RewriteNs <= 0 || ex.OptimizeNs <= 0 || ex.EvalNs <= 0 {
		t.Errorf("phase durations not all positive: rewrite=%d optimize=%d eval=%d",
			ex.RewriteNs, ex.OptimizeNs, ex.EvalNs)
	}
	if ex.Rewritten == "" || ex.Optimized == "" {
		t.Errorf("intermediate queries missing: rewritten=%q optimized=%q", ex.Rewritten, ex.Optimized)
	}
	if !ex.RecursiveView {
		t.Error("fig7 view not reported recursive")
	}
	if ex.DocHeight <= 0 {
		t.Errorf("doc height = %d", ex.DocHeight)
	}
	if ex.RewriteMode != "height-free" {
		t.Errorf("RewriteMode = %q, want height-free", ex.RewriteMode)
	}
	if ex.NodesVisited == 0 {
		t.Error("sequential explain reported zero nodes visited")
	}
	if ex.PlanWasCached {
		t.Error("first explain claims the plan was already cached")
	}

	// The explain's result count must agree with the serving path.
	nodes, err := e.QueryCtx(context.Background(), doc, xpath.MustParse(q))
	if err != nil {
		t.Fatalf("QueryCtx: %v", err)
	}
	if ex.ResultCount != len(nodes) {
		t.Errorf("ResultCount = %d, query returned %d", ex.ResultCount, len(nodes))
	}

	// Second explain: the plan the first one re-cached is now visible.
	ex2, err := e.ExplainCtx(context.Background(), doc, xpath.MustParse(q))
	if err != nil {
		t.Fatalf("second ExplainCtx: %v", err)
	}
	if !ex2.PlanWasCached {
		t.Error("second explain does not see the cached plan")
	}
	if ex2.RewriteNs <= 0 || ex2.OptimizeNs <= 0 {
		t.Errorf("warm explain skipped fresh phase timing: rewrite=%d optimize=%d", ex2.RewriteNs, ex2.OptimizeNs)
	}
	if ex2.Rewritten != ex.Rewritten || ex2.Optimized != ex.Optimized {
		t.Errorf("explain not deterministic: %q vs %q", ex2.Rewritten, ex.Rewritten)
	}
}

// TestQueryMetricsCarrier: a QueryCtx with an obs.QueryMetrics record
// on the context gets the per-phase accounting and the plan text filled
// in, and a repeat of the same query reports a plan-cache hit with zero
// rewrite/optimize time instead of re-timed phases.
func TestQueryMetricsCarrier(t *testing.T) {
	e, doc := fig7Engine(t)
	const q = "//a/b"

	qm := &obs.QueryMetrics{}
	ctx := obs.WithQueryMetrics(context.Background(), qm)
	if _, err := e.QueryCtx(ctx, doc, xpath.MustParse(q)); err != nil {
		t.Fatalf("QueryCtx: %v", err)
	}
	if qm.PlanCacheHit {
		t.Error("cold query reported a plan-cache hit")
	}
	if qm.Rewrite <= 0 || qm.Optimize <= 0 || qm.Eval <= 0 {
		t.Errorf("cold phases: rewrite=%v optimize=%v eval=%v", qm.Rewrite, qm.Optimize, qm.Eval)
	}
	if qm.NodesVisited == 0 {
		t.Error("eval accounting: zero nodes visited")
	}
	if qm.PlanText == "" {
		t.Error("cold query surfaced no plan text")
	}

	qm2 := &obs.QueryMetrics{}
	if _, err := e.QueryCtx(obs.WithQueryMetrics(context.Background(), qm2), doc, xpath.MustParse(q)); err != nil {
		t.Fatalf("warm QueryCtx: %v", err)
	}
	if !qm2.PlanCacheHit {
		t.Error("warm query missed the plan cache")
	}
	if qm2.Rewrite != 0 || qm2.Optimize != 0 {
		t.Errorf("plan-cache hit re-timed phases: rewrite=%v optimize=%v", qm2.Rewrite, qm2.Optimize)
	}
	if qm2.PlanText != qm.PlanText {
		t.Errorf("cached plan text differs: %q vs %q", qm2.PlanText, qm.PlanText)
	}
	if qm2.Eval <= 0 {
		t.Errorf("warm eval duration = %v", qm2.Eval)
	}
}

// TestExplainFillsRecord: an explain with a record on the context writes
// the same phase times, plan and work counters into the record as it
// reports, and reports the rewriter's memo cells and the optimizer's
// rules for this call alone: a second explain of the same query, after
// other queries ran, reports the same counts.
func TestExplainFillsRecord(t *testing.T) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	doc := dtds.GenerateHospital(3, 3)
	const q = "//patient[name and wardNo]/treatment//bill"
	qm := &obs.QueryMetrics{}
	ex, err := e.ExplainCtx(obs.WithQueryMetrics(context.Background(), qm), doc, xpath.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if ex.RewriteNs != qm.Rewrite.Nanoseconds() || ex.OptimizeNs != qm.Optimize.Nanoseconds() || ex.EvalNs != qm.Eval.Nanoseconds() {
		t.Errorf("explain phases %d/%d/%d ns, record %v/%v/%v", ex.RewriteNs, ex.OptimizeNs, ex.EvalNs, qm.Rewrite, qm.Optimize, qm.Eval)
	}
	if qm.PlanText != ex.Optimized || qm.NodesVisited != ex.NodesVisited || qm.PlanCacheHit {
		t.Errorf("record %+v does not match explain %+v", qm, ex)
	}
	if ex.MemoCells == 0 || ex.RulesFired == 0 || ex.PrunedBranches == 0 {
		t.Fatalf("explain reports memo %d, rules %d, pruned %d; want all positive", ex.MemoCells, ex.RulesFired, ex.PrunedBranches)
	}
	for _, other := range []string{"//name", "//dept[.//bill]", "//staff | //patient"} {
		if _, err := e.QueryString(doc, other); err != nil {
			t.Fatal(err)
		}
	}
	ex2, err := e.ExplainCtx(context.Background(), doc, xpath.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if ex2.MemoCells != ex.MemoCells || ex2.RulesFired != ex.RulesFired || ex2.PrunedBranches != ex.PrunedBranches {
		t.Errorf("second explain: memo %d rules %d pruned %d, first %d %d %d",
			ex2.MemoCells, ex2.RulesFired, ex2.PrunedBranches, ex.MemoCells, ex.RulesFired, ex.PrunedBranches)
	}
}

// TestExplainCountsLikeQuery: an explain moves the plan-cache counters
// exactly as a QueryCtx of the same query does — one counted lookup,
// and a cached plan only on a miss — and reports that lookup's outcome
// both as PlanWasCached and on the request's QueryMetrics record.
func TestExplainCountsLikeQuery(t *testing.T) {
	ex, doc := fig7Engine(t)
	qe, _ := fig7Engine(t)
	for i, q := range []string{"//a/b", "//a/b", "//a//a/b", "//a/b"} {
		p := xpath.MustParse(q)
		exQM, qQM := &obs.QueryMetrics{}, &obs.QueryMetrics{}
		got, err := ex.ExplainCtx(obs.WithQueryMetrics(context.Background(), exQM), doc, p)
		if err != nil {
			t.Fatalf("ExplainCtx(%s): %v", q, err)
		}
		if _, err := qe.QueryCtx(obs.WithQueryMetrics(context.Background(), qQM), doc, p); err != nil {
			t.Fatalf("QueryCtx(%s): %v", q, err)
		}
		if got.PlanWasCached != qQM.PlanCacheHit || exQM.PlanCacheHit != qQM.PlanCacheHit {
			t.Errorf("request %d (%s): explain PlanWasCached=%v record hit=%v, query hit=%v",
				i, q, got.PlanWasCached, exQM.PlanCacheHit, qQM.PlanCacheHit)
		}
		if es, qs := ex.Stats().PlanCache, qe.Stats().PlanCache; es != qs {
			t.Errorf("request %d (%s): explain engine's plan cache %+v, query engine's %+v", i, q, es, qs)
		}
	}
}
