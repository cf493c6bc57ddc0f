package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// fig7Doc builds a document for the recursive Fig. 7 DTD with the given
// nesting depth: a(b, c(a(b, c(...)))).
func fig7Doc(depth int) *xmltree.Document {
	e, tx := xmltree.E, xmltree.T
	var rec func(d int) *xmltree.Node
	rec = func(d int) *xmltree.Node {
		if d == 0 {
			return e("a", tx("b", "leaf"), e("c"))
		}
		return e("a", tx("b", fmt.Sprintf("lvl-%d", d)), e("c", rec(d-1)))
	}
	return xmltree.NewDocument(rec(depth))
}

// TestPlanCacheHits: the second identical query must be served from the
// plan cache — the rewrite+optimize stages run once.
func TestPlanCacheHits(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(3, 3)
	first, err := e.QueryString(doc, "//patient/name")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	s := e.Stats()
	if s.PlanCache.Hits != 0 || s.PlanCache.Misses != 1 {
		t.Fatalf("after first query: %+v", s.PlanCache)
	}
	second, err := e.QueryString(doc, "//patient/name")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	s = e.Stats()
	if s.PlanCache.Hits != 1 || s.PlanCache.Misses != 1 || s.PlanCache.Entries != 1 {
		t.Errorf("after second query: %+v", s.PlanCache)
	}
	if s.Queries != 2 {
		t.Errorf("queries = %d", s.Queries)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached plan changed the answer")
	}
	// Equivalent text (parse→print canonicalization) shares the entry.
	if _, err := e.QueryString(doc, "  //patient/name "); err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if s := e.Stats(); s.PlanCache.Entries != 1 || s.PlanCache.Hits != 2 {
		t.Errorf("canonicalization missed: %+v", s.PlanCache)
	}
}

// TestPlanCacheRecursiveHeightClasses: the unfold oracle caches one plan
// per (query, document height); height-free mode collapses all heights
// into one entry per query.
func TestPlanCacheRecursiveHeightClasses(t *testing.T) {
	e, err := NewWithConfig(dtds.Fig7Spec(), Config{UnfoldRewrite: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d3, d5 := fig7Doc(1), fig7Doc(2)
	for _, doc := range []*xmltree.Document{d3, d5, d3, d5} {
		if _, err := e.QueryString(doc, "//b"); err != nil {
			t.Fatalf("QueryString: %v", err)
		}
	}
	s := e.Stats()
	if s.PlanCache.Entries != 2 {
		t.Errorf("entries = %d, want 2 (one per height class)", s.PlanCache.Entries)
	}
	if s.PlanCache.Hits != 2 || s.PlanCache.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", s.PlanCache.Hits, s.PlanCache.Misses)
	}
	if s.PlanCacheQueries != 1 || s.PlanCacheHeightClasses != 2 {
		t.Errorf("breakdown = %d queries / %d classes, want 1/2",
			s.PlanCacheQueries, s.PlanCacheHeightClasses)
	}
	// The recursive answers must still be right: every b is visible.
	got, err := e.QueryString(d5, "//b")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if len(got) != 3 {
		t.Errorf("//b over depth-2 doc = %d nodes, want 3", len(got))
	}
}

// TestPlanCacheHeightFreeCollapsesClasses: the same workload in the
// default height-free mode keeps one cache entry for both heights.
func TestPlanCacheHeightFreeCollapsesClasses(t *testing.T) {
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d3, d5 := fig7Doc(1), fig7Doc(2)
	for _, doc := range []*xmltree.Document{d3, d5, d3, d5} {
		if _, err := e.QueryString(doc, "//b"); err != nil {
			t.Fatalf("QueryString: %v", err)
		}
	}
	s := e.Stats()
	if s.PlanCache.Entries != 1 {
		t.Errorf("entries = %d, want 1 (height-free shares the plan)", s.PlanCache.Entries)
	}
	if s.PlanCache.Hits != 3 || s.PlanCache.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", s.PlanCache.Hits, s.PlanCache.Misses)
	}
	if s.PlanCacheQueries != 1 || s.PlanCacheHeightClasses != 1 {
		t.Errorf("breakdown = %d queries / %d classes, want 1/1",
			s.PlanCacheQueries, s.PlanCacheHeightClasses)
	}
	got, err := e.QueryString(d5, "//b")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if len(got) != 3 {
		t.Errorf("//b over depth-2 doc = %d nodes, want 3", len(got))
	}
}

// TestByHeightCapRegression: adversarial clients submitting documents
// of many distinct heights must not grow the per-height rewriter map
// without bound.
func TestByHeightCapRegression(t *testing.T) {
	e, err := NewWithConfig(dtds.Fig7Spec(), Config{HeightCacheCapacity: 4, UnfoldRewrite: true})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}
	for h := 2; h < 40; h++ {
		if _, err := e.Rewriter(h); err != nil {
			t.Fatalf("Rewriter(%d): %v", h, err)
		}
	}
	s := e.Stats()
	if s.HeightCache.Entries > 4 {
		t.Errorf("height cache grew to %d entries, cap 4", s.HeightCache.Entries)
	}
	if s.HeightCache.Evictions == 0 {
		t.Errorf("no evictions recorded despite 38 distinct heights")
	}
	// The cap must not change answers: re-request an evicted height.
	if _, err := e.Rewriter(2); err != nil {
		t.Errorf("Rewriter(2) after eviction: %v", err)
	}
}

// TestQueryUnboundVarReturnsError: the satellite bugfix — an unbound
// $variable reachable from QueryString must error, not panic.
func TestQueryUnboundVarReturnsError(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(2, 2)
	res, err := e.QueryString(doc, `//patient[wardNo = $evil]/name`)
	if err == nil {
		t.Fatalf("unbound variable accepted, returned %d nodes", len(res))
	}
	if !strings.Contains(err.Error(), "evil") {
		t.Errorf("error does not name the variable: %v", err)
	}
	// The engine must stay usable afterwards.
	if _, err := e.QueryString(doc, "//patient/name"); err != nil {
		t.Errorf("engine broken after bad query: %v", err)
	}
}

// TestParallelEngineMatchesSequential: a Parallel engine returns the
// same answers as the default one.
func TestParallelEngineMatchesSequential(t *testing.T) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	seqE, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	parE, err := NewWithConfig(spec, Config{
		Parallel:       true,
		ParallelConfig: xpath.ParallelConfig{Workers: 4, Threshold: -1},
	})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}
	doc := dtds.GenerateHospital(17, 6)
	for _, q := range []string{"//patient/name", "//bill", "dept/staffInfo/staff/*", "//patient[wardNo]/name"} {
		want, err := seqE.QueryString(doc, q)
		if err != nil {
			t.Fatalf("sequential %q: %v", q, err)
		}
		got, err := parE.QueryString(doc, q)
		if err != nil {
			t.Fatalf("parallel %q: %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: parallel %d nodes, sequential %d", q, len(got), len(want))
		}
	}
	s := parE.Stats()
	if s.ParallelEvals == 0 {
		t.Errorf("parallel engine recorded no parallel evals: %+v", s)
	}
	if s := seqE.Stats(); s.SequentialEvals == 0 {
		t.Errorf("sequential engine recorded no sequential evals")
	}
}

// TestConcurrentQueriesFlatAndRecursive: satellite coverage — parallel
// Query/Prepare from many goroutines under -race, on both view shapes.
func TestConcurrentQueriesFlatAndRecursive(t *testing.T) {
	flat := nurseEngine(t, "1")
	flatDoc := dtds.GenerateHospital(7, 4)
	// Unfold-oracle mode so the per-height rewriter cache is exercised
	// under concurrency too (height-free mode never touches it).
	rec, err := NewWithConfig(dtds.Fig7Spec(), Config{UnfoldRewrite: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	recDocs := []*xmltree.Document{fig7Doc(1), fig7Doc(2), fig7Doc(3)}
	queries := []string{"//patient/name", "//bill", "dept/staffInfo/staff/*"}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(g+i)%len(queries)]
				if _, err := flat.QueryString(flatDoc, q); err != nil {
					t.Errorf("flat %q: %v", q, err)
					return
				}
				if _, err := flat.PrepareString(q); err != nil {
					t.Errorf("prepare %q: %v", q, err)
					return
				}
				if _, err := rec.QueryString(recDocs[(g+i)%len(recDocs)], "//b"); err != nil {
					t.Errorf("recursive //b: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	fs, rs := flat.Stats(), rec.Stats()
	if fs.PlanCache.Hits == 0 || rs.PlanCache.Hits == 0 {
		t.Errorf("no plan-cache hits under concurrency: flat %+v recursive %+v", fs.PlanCache, rs.PlanCache)
	}
	if rs.HeightCache.Entries == 0 {
		t.Errorf("recursive engine cached no rewriters")
	}
}

// TestPrepareServedFromPlanCache: Prepare and Query share the cache.
func TestPrepareServedFromPlanCache(t *testing.T) {
	e := nurseEngine(t, "1")
	p1, err := e.PrepareString("//patient/name")
	if err != nil {
		t.Fatalf("PrepareString: %v", err)
	}
	p2, err := e.PrepareString("//patient/name")
	if err != nil {
		t.Fatalf("PrepareString: %v", err)
	}
	if p1 != p2 {
		t.Errorf("identical prepares returned distinct plans")
	}
	doc := dtds.GenerateHospital(5, 3)
	if _, err := e.QueryString(doc, "//patient/name"); err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if s := e.Stats(); s.PlanCache.Entries != 1 {
		t.Errorf("Query built a second plan for a prepared query: %+v", s.PlanCache)
	}
}

// TestIndexedEngineMatchesSequential: the tentpole serving contract —
// an engine with the structural index enabled answers descendant
// queries from posting lists, matches the sequential evaluator node
// for node, and reports the mode through Explain and Stats.
func TestIndexedEngineMatchesSequential(t *testing.T) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	seqE, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	idxE, err := NewWithConfig(spec, Config{Indexed: true, IndexThreshold: -1})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}
	doc := dtds.GenerateHospital(17, 6)
	for _, q := range []string{
		"//patient/name",
		"//dept//treatment//bill",
		"//bill",
		"//patient[wardNo]/name",
		"dept/staffInfo/staff/*", // no // step: falls back to sequential
	} {
		want, err := seqE.QueryString(doc, q)
		if err != nil {
			t.Fatalf("sequential %q: %v", q, err)
		}
		got, err := idxE.QueryString(doc, q)
		if err != nil {
			t.Fatalf("indexed %q: %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: indexed %d nodes, sequential %d", q, len(got), len(want))
		}
	}
	s := idxE.Stats()
	if s.IndexedEvals == 0 {
		t.Errorf("indexed engine recorded no indexed evals: %+v", s)
	}
	if s.SequentialEvals == 0 {
		t.Errorf("descendant-free query should have fallen back to sequential: %+v", s)
	}
	// Every engine reads the document's own label index: another
	// binding's engine finds the same posting lists, not a copy, and
	// its queries do not rebuild them.
	posting := &doc.Labeled("patient")[0]
	spec2, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "2"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	idxE2, err := NewWithConfig(spec2, Config{Indexed: true, IndexThreshold: -1})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}
	if _, err := idxE2.QueryString(doc, "//dept//treatment//bill"); err != nil {
		t.Fatalf("second binding: %v", err)
	}
	if idxE2.Stats().IndexedEvals == 0 {
		t.Errorf("second engine recorded no indexed evals")
	}
	if &xpath.NewIndex(doc).Labeled("patient")[0] != posting {
		t.Errorf("second engine rebuilt or copied the document's label index")
	}
}

// TestSharedLabelIndexConcurrentFirstUse: many engines of several
// bindings issue their first descendant queries at once on a fresh
// document. The document builds its label index once under the race,
// and every answer matches the sequential evaluator's.
func TestSharedLabelIndexConcurrentFirstUse(t *testing.T) {
	doc := dtds.GenerateHospital(23, 6)
	queries := []string{"//dept//treatment//bill", "//patient/name", "//bill"}
	wards := []string{"1", "2", "3"}
	type want struct{ ward, q string }
	expected := map[want][]*xmltree.Node{}
	for _, w := range wards {
		spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": w})
		if err != nil {
			t.Fatalf("Bind: %v", err)
		}
		seqE, err := New(spec)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for _, q := range queries {
			out, err := seqE.QueryString(doc, q)
			if err != nil {
				t.Fatalf("sequential %q: %v", q, err)
			}
			expected[want{w, q}] = out
		}
	}
	// Sequential engines never touch the label index: it is still
	// unbuilt when the indexed engines below race to their first use.

	const perBinding = 8
	postings := make(chan **xmltree.Node, perBinding*len(wards))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, w := range wards {
		spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": w})
		if err != nil {
			t.Fatalf("Bind: %v", err)
		}
		for g := 0; g < perBinding; g++ {
			e, err := NewWithConfig(spec, Config{Indexed: true, IndexThreshold: -1})
			if err != nil {
				t.Fatalf("NewWithConfig: %v", err)
			}
			wg.Add(1)
			go func(w string, e *Engine) {
				defer wg.Done()
				<-start
				for _, q := range queries {
					got, err := e.QueryString(doc, q)
					if err != nil {
						t.Errorf("ward %s %q: %v", w, q, err)
						return
					}
					if !reflect.DeepEqual(got, expected[want{w, q}]) {
						t.Errorf("ward %s %q: indexed %d nodes, sequential %d", w, q, len(got), len(expected[want{w, q}]))
					}
				}
				if e.Stats().IndexedEvals == 0 {
					t.Errorf("ward %s: no indexed evals", w)
				}
				postings <- &doc.Labeled("patient")[0]
			}(w, e)
		}
	}
	close(start)
	wg.Wait()
	close(postings)
	first := &doc.Labeled("patient")[0]
	for p := range postings {
		if p != first {
			t.Fatalf("engines saw different posting lists: the label index was built more than once")
		}
	}
}

// TestExplainReportsIndexedMode: /explainz's EvalMode shows what the
// evaluator actually did, including the indexed mode and its
// nodes-visited counter.
func TestExplainReportsIndexedMode(t *testing.T) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	e, err := NewWithConfig(spec, Config{Indexed: true, IndexThreshold: -1})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}
	doc := dtds.GenerateHospital(3, 4)
	p, err := xpath.Parse("//dept//treatment//bill")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ex, err := e.ExplainCtx(context.Background(), doc, p)
	if err != nil {
		t.Fatalf("ExplainCtx: %v", err)
	}
	if ex.EvalMode != obs.ModeIndexed {
		t.Errorf("EvalMode = %q, want %q", ex.EvalMode, obs.ModeIndexed)
	}
	if ex.NodesVisited == 0 {
		t.Errorf("indexed explain reported zero nodes visited")
	}
	// A small document under the default threshold stays sequential.
	small, err := NewWithConfig(spec, Config{Indexed: true})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}
	ex2, err := small.ExplainCtx(context.Background(), doc, p)
	if err != nil {
		t.Fatalf("ExplainCtx: %v", err)
	}
	if doc.Size() < DefaultIndexThreshold && ex2.EvalMode != obs.ModeSequential {
		t.Errorf("below-threshold EvalMode = %q, want %q", ex2.EvalMode, obs.ModeSequential)
	}
}
