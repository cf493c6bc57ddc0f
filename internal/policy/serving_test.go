package policy

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestEngineCacheBounded: adversarial parameter bindings (a fresh
// $wardNo per request) must not grow the per-class engine cache past
// its cap.
func TestEngineCacheBounded(t *testing.T) {
	r := NewRegistryWithConfig(dtds.Hospital(), 4, core.Config{})
	c, err := r.Define("nurse", dtds.NurseSpecSource)
	if err != nil {
		t.Fatalf("Define: %v", err)
	}
	for i := 0; i < 30; i++ {
		if _, err := c.Engine(map[string]string{"wardNo": fmt.Sprintf("%d", i)}); err != nil {
			t.Fatalf("Engine(%d): %v", i, err)
		}
	}
	s := c.EngineCacheStats()
	if s.Entries > 4 {
		t.Errorf("engine cache grew to %d entries, cap 4", s.Entries)
	}
	if s.Evictions == 0 {
		t.Errorf("no evictions after 30 distinct bindings")
	}
	// Evicted bindings still work — they are just re-derived.
	e, err := c.Engine(map[string]string{"wardNo": "0"})
	if err != nil {
		t.Fatalf("Engine after eviction: %v", err)
	}
	if e == nil {
		t.Fatalf("nil engine")
	}
}

// TestRegistryStats: per-class rollup reports hits and misses.
func TestRegistryStats(t *testing.T) {
	r := hospitalRegistry(t)
	c, _ := r.Class("nurse")
	for i := 0; i < 3; i++ {
		if _, err := c.Engine(map[string]string{"wardNo": "6"}); err != nil {
			t.Fatalf("Engine: %v", err)
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
	if nurse.Engines.Hits != 2 || nurse.Engines.Misses != 1 {
		t.Errorf("nurse engine cache = %+v, want 2 hits / 1 miss", nurse.Engines)
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
	if s := c.EngineCacheStats(); s.Hits == 0 {
		t.Errorf("no engine-cache hits under concurrency: %+v", s)
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
		prep, err := e.PrepareString(q)
		if err != nil {
			t.Fatalf("PrepareString(%q): %v", q, err)
		}
		want, err := xpath.EvalRef(prep.Optimized, []*xmltree.Node{doc.Root})
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
