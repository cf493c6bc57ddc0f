package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dtds"
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
	// Equal text after parse→print canonicalization shares the entry.
	if _, err := e.QueryString(doc, "  //patient/name "); err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if s := e.Stats(); s.PlanCache.Entries != 1 || s.PlanCache.Hits != 2 {
		t.Errorf("canonicalization missed: %+v", s.PlanCache)
	}
}

// TestPlanCacheRecursiveHeightClasses: documents of two heights share
// the one cached height-free plan, and on each the answers equal the
// Section 4.2 oracle's — the view unfolded to that height, evaluated by
// the reference evaluator.
func TestPlanCacheRecursiveHeightClasses(t *testing.T) {
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d3, d5 := fig7Doc(1), fig7Doc(2)
	p := xpath.MustParse("//b")
	for _, doc := range []*xmltree.Document{d3, d5, d3, d5} {
		got, err := e.QueryCtx(context.Background(), doc, p)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		assertSameNodes(t, fmt.Sprintf("//b at height %d", doc.Height()), got, unfoldOracle(t, e.View(), doc, p))
	}
	if s := e.Stats(); s.PlanCache.Entries != 1 || s.PlanCache.Misses != 1 {
		t.Errorf("plan cache = %+v, want one entry built once for both heights", s.PlanCache)
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
	got, err := e.QueryString(d5, "//b")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if len(got) != 3 {
		t.Errorf("//b over depth-2 doc = %d nodes, want 3", len(got))
	}
}

// TestByHeightCapRegression: adversarial clients submitting documents
// of many distinct heights must not grow serving memory: every height
// shares one plan per query, and the answers match the unfold oracle.
func TestByHeightCapRegression(t *testing.T) {
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := xpath.MustParse("//b")
	for h := 2; h < 40; h++ {
		doc := fig7Doc(h)
		got, err := e.QueryCtx(context.Background(), doc, p)
		if err != nil {
			t.Fatalf("Query at depth %d: %v", h, err)
		}
		if len(got) != h+1 {
			t.Fatalf("//b at depth %d = %d nodes, want %d", h, len(got), h+1)
		}
		if h <= 8 {
			assertSameNodes(t, fmt.Sprintf("//b at depth %d", h), got, unfoldOracle(t, e.View(), doc, p))
		}
	}
	if s := e.Stats(); s.PlanCache.Entries != 1 || s.PlanCacheNodes == 0 {
		t.Errorf("plan cache grew with document height: %+v (%d plan nodes)", s.PlanCache, s.PlanCacheNodes)
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

// TestConcurrentQueriesFlatAndRecursive: satellite coverage — parallel
// Query/Prepare from many goroutines under -race, on both view shapes.
func TestConcurrentQueriesFlatAndRecursive(t *testing.T) {
	flat := nurseEngine(t, "1")
	flatDoc := dtds.GenerateHospital(7, 4)
	rec, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	recDocs := []*xmltree.Document{fig7Doc(1), fig7Doc(2), fig7Doc(3)}
	recWant := make([][]*xmltree.Node, len(recDocs))
	for i, doc := range recDocs {
		recWant[i] = unfoldOracle(t, rec.View(), doc, xpath.MustParse("//b"))
	}
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
				if _, err := flat.Prepare(xpath.MustParse(q)); err != nil {
					t.Errorf("prepare %q: %v", q, err)
					return
				}
				d := (g + i) % len(recDocs)
				got, err := rec.QueryString(recDocs[d], "//b")
				if err != nil {
					t.Errorf("recursive //b: %v", err)
					return
				}
				if !reflect.DeepEqual(got, recWant[d]) {
					t.Errorf("recursive //b on doc %d: %d nodes, unfold oracle %d", d, len(got), len(recWant[d]))
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
}

// TestPrepareServedFromPlanCache: Prepare and Query share the cache.
func TestPrepareServedFromPlanCache(t *testing.T) {
	e := nurseEngine(t, "1")
	p1, err := e.Prepare(xpath.MustParse("//patient/name"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	p2, err := e.Prepare(xpath.MustParse("//patient/name"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	// Prepare hands out copies carrying the query; the second one must
	// still come from the first one's cache entry.
	if s := e.Stats().PlanCache; s.Hits != 1 || s.Entries != 1 {
		t.Errorf("identical prepares did not share one cached plan: %+v", s)
	}
	if xpath.String(p1.Optimized) != xpath.String(p2.Optimized) {
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

// TestIndexedEngineMatchesSequential: the serving contract — engine
// answers, which descendant steps take from the document's label index,
// match the sequential reference evaluator node for node on the same
// plan, and every engine reads the document's one label index.
func TestIndexedEngineMatchesSequential(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(17, 6)
	for _, q := range []string{
		"//patient/name",
		"//dept//treatment//bill",
		"//bill",
		"//patient[wardNo]/name",
		"dept/staffInfo/staff/*",
	} {
		got, err := e.QueryString(doc, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		prep, err := e.Prepare(xpath.MustParse(q))
		if err != nil {
			t.Fatalf("Prepare(%q): %v", q, err)
		}
		want, err := xpath.EvalRef(prep.Optimized, []*xmltree.Node{doc.Root})
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		assertSameNodes(t, q, got, want)
	}
	if s := e.Stats(); s.Evals != 5 {
		t.Errorf("evals = %d, want 5: %+v", s.Evals, s)
	}
	// Every engine reads the document's own label index: another
	// binding's engine finds the same posting lists, not a copy, and
	// its queries do not rebuild them.
	posting := &doc.Labeled("patient")[0]
	e2 := nurseEngine(t, "2")
	if _, err := e2.QueryString(doc, "//dept//treatment//bill"); err != nil {
		t.Fatalf("second binding: %v", err)
	}
	if &doc.Labeled("patient")[0] != posting {
		t.Errorf("second engine rebuilt or copied the document's label index")
	}
}

// TestSharedLabelIndexConcurrentFirstUse: many engines of several
// bindings issue their first descendant queries at once on a fresh
// document. Every engine reads the one label index the document built
// when it was numbered, and every answer matches the reference
// evaluator's.
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
			prep, err := seqE.Prepare(xpath.MustParse(q))
			if err != nil {
				t.Fatalf("Prepare(%q): %v", q, err)
			}
			out, err := xpath.EvalRef(prep.Optimized, []*xmltree.Node{doc.Root})
			if err != nil {
				t.Fatalf("reference %q: %v", q, err)
			}
			expected[want{w, q}] = out
		}
	}
	const perBinding = 8
	postings := make(chan *int32, perBinding*len(wards))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, w := range wards {
		spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": w})
		if err != nil {
			t.Fatalf("Bind: %v", err)
		}
		for g := 0; g < perBinding; g++ {
			e, err := New(spec)
			if err != nil {
				t.Fatalf("New: %v", err)
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
						t.Errorf("ward %s %q: served %d nodes, reference %d", w, q, len(got), len(expected[want{w, q}]))
					}
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
			t.Fatalf("engines saw different posting lists: the label index was rebuilt or copied")
		}
	}
}

// TestExplainReportsNodesVisited: /explainz's nodes-visited counter
// describes the evaluator run, here a descendant query the label index
// serves.
func TestExplainReportsNodesVisited(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(3, 4)
	p, err := xpath.Parse("//dept//treatment//bill")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ex, err := e.ExplainUntil(context.Background(), time.Time{}, doc, p)
	if err != nil {
		t.Fatalf("ExplainUntil: %v", err)
	}
	if ex.NodesVisited == 0 {
		t.Errorf("explain reported zero nodes visited")
	}
}
