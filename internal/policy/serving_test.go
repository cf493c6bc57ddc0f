package policy

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestEngineCacheBounded: adversarial parameter bindings (a fresh
// $wardNo per request) must not grow memory: no binding derives an
// engine, and the class keeps one plan per query shape, however many
// bindings ask.
func TestEngineCacheBounded(t *testing.T) {
	r := NewRegistryWithConfig(dtds.Hospital(), 0, core.Config{})
	c, err := r.Define("nurse", dtds.NurseSpecSource)
	if err != nil {
		t.Fatalf("Define: %v", err)
	}
	doc := dtds.GenerateHospital(3, 3)
	for i := 0; i < 30; i++ {
		qm := &obs.QueryMetrics{}
		e, err := c.EngineCtx(obs.WithQueryMetrics(context.Background(), qm), map[string]string{"wardNo": fmt.Sprintf("%d", i)})
		if err != nil {
			t.Fatalf("Engine(%d): %v", i, err)
		}
		if !qm.EngineCacheHit {
			t.Fatalf("binding %d ran a derivation", i)
		}
		if _, err := e.QueryString(doc, "//patient/name"); err != nil {
			t.Fatalf("query for ward %d: %v", i, err)
		}
	}
	st := r.Stats()
	if len(st) != 1 {
		t.Fatalf("registry stats = %+v, want one class", st)
	}
	if pc := st[0].Engine.PlanCache; pc.Entries != 1 || pc.Misses != 1 || pc.Hits != 29 {
		t.Errorf("30 bindings, one query: plan cache = %+v, want 1 entry, 1 miss, 29 hits", pc)
	}
}

// TestRegistryStats: the per-class rollup reports the class's one
// engine, whichever bindings used it.
func TestRegistryStats(t *testing.T) {
	r := hospitalRegistry(t)
	doc := dtds.GenerateHospital(3, 3)
	for i, ward := range []string{"1", "1", "1", "2"} {
		if _, err := r.Query("nurse", map[string]string{"wardNo": ward}, doc, "//patient/name"); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	stats := r.Stats()
	if len(stats) == 0 {
		t.Fatalf("empty registry stats")
	}
	var nurse *ClassStats
	for i := range stats {
		if stats[i].Class == "nurse" {
			nurse = &stats[i]
		}
	}
	if nurse == nil {
		t.Fatalf("nurse class missing from stats: %+v", stats)
	}
	if !reflect.DeepEqual(nurse.Params, []string{"wardNo"}) || nurse.RewriteMode != "flat" {
		t.Errorf("nurse class = %+v", nurse)
	}
	if e := nurse.Engine; e.Queries != 4 || e.Evals != 4 || e.PlanCache.Hits != 3 || e.PlanCache.Misses != 1 {
		t.Errorf("nurse engine = %+v, want 4 queries and evals, 3 plan hits / 1 miss", e)
	}
}

// TestRegistryConcurrentQueries: many goroutines, many bindings, one
// registry (run with -race). Exercises the engine cache and each
// engine's plan cache together.
func TestRegistryConcurrentQueries(t *testing.T) {
	r := hospitalRegistry(t)
	doc := dtds.GenerateHospital(5, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				ward := fmt.Sprintf("%d", (g+i)%3)
				if _, err := r.Query("nurse", map[string]string{"wardNo": ward}, doc, "//patient/name"); err != nil {
					t.Errorf("Query ward %s: %v", ward, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c, _ := r.Class("nurse")
	e, err := c.Engine(map[string]string{"wardNo": "0"})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats().PlanCache; s.Hits == 0 || s.Entries != 1 {
		t.Errorf("three bindings, one query shape: plan cache = %+v, want hits and one entry", s)
	}
}

// TestRegistryEngineConfigPropagates: registry-level engine config
// reaches derived engines (observable through their plan caches).
func TestRegistryEngineConfigPropagates(t *testing.T) {
	r := NewRegistryWithConfig(dtds.Hospital(), 0, core.Config{PlanCacheCapacity: 7})
	if _, err := r.Define("nurse", dtds.NurseSpecSource); err != nil {
		t.Fatalf("Define: %v", err)
	}
	c, _ := r.Class("nurse")
	e, err := c.Engine(map[string]string{"wardNo": "6"})
	if err != nil {
		t.Fatalf("Engine: %v", err)
	}
	if got := e.Stats().PlanCache.Capacity; got != 7 {
		t.Errorf("plan cache capacity = %d, want 7", got)
	}
}

// TestRegistryEnginesShareLabelIndex: class engines answer
// descendant-class queries over a large document exactly as the
// reference evaluator does on their plans, and every binding's engine
// reads the document's one label index.
func TestRegistryEnginesShareLabelIndex(t *testing.T) {
	r := hospitalRegistry(t)
	doc := dtds.GenerateHospital(11, 5)
	params := map[string]string{"wardNo": "1"}
	c, _ := r.Class("nurse")
	e, err := c.Engine(params)
	if err != nil {
		t.Fatalf("Engine: %v", err)
	}
	for _, q := range []string{"//patient/name", "//dept//treatment//bill"} {
		got, err := r.QueryCtx(context.Background(), "nurse", params, doc, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		prep, err := e.Prepare(xpath.MustParse(q))
		if err != nil {
			t.Fatalf("Prepare(%q): %v", q, err)
		}
		bound, err := xpath.BindVars(prep.Optimized, prep.Env.Map())
		if err != nil {
			t.Fatalf("binding the plan of %q: %v", q, err)
		}
		want, err := xpath.EvalRef(bound, []*xmltree.Node{doc.Root})
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: served %d nodes, reference %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: node %d differs", q, i)
			}
		}
	}
	if s := e.Stats(); s.Evals == 0 {
		t.Errorf("registry engine recorded no evals: %+v", s)
	}
	// Another binding's engine answers from the same posting lists the
	// first engine used: the document owns one label index.
	posting := &doc.Labeled("patient")[0]
	other := map[string]string{"wardNo": "2"}
	if _, err := r.QueryCtx(context.Background(), "nurse", other, doc, "//dept//treatment//bill"); err != nil {
		t.Fatalf("second binding: %v", err)
	}
	if &doc.Labeled("patient")[0] != posting {
		t.Errorf("second binding rebuilt the document's label index")
	}
}
