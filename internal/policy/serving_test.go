package policy

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dtds"
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

// TestRegistryIndexedModePropagates: the Indexed engine config reaches
// class engines through the registry, and descendant-class queries over
// a large document are answered by the index-backed evaluator with the
// same result set.
func TestRegistryIndexedModePropagates(t *testing.T) {
	plain := hospitalRegistry(t)
	idx := NewRegistryWithConfig(dtds.Hospital(), 0, core.Config{Indexed: true, IndexThreshold: -1})
	if _, err := idx.Define("nurse", dtds.NurseSpecSource); err != nil {
		t.Fatalf("Define: %v", err)
	}
	doc := dtds.GenerateHospital(11, 5)
	params := map[string]string{"wardNo": "1"}
	for _, q := range []string{"//patient/name", "//dept//treatment//bill"} {
		want, err := plain.QueryCtx(context.Background(), "nurse", params, doc, q)
		if err != nil {
			t.Fatalf("plain %q: %v", q, err)
		}
		got, err := idx.QueryCtx(context.Background(), "nurse", params, doc, q)
		if err != nil {
			t.Fatalf("indexed %q: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: indexed %d nodes, plain %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: node %d differs", q, i)
			}
		}
	}
	c, _ := idx.Class("nurse")
	e, err := c.Engine(params)
	if err != nil {
		t.Fatalf("Engine: %v", err)
	}
	s := e.Stats()
	if s.IndexedEvals == 0 {
		t.Errorf("registry engine recorded no indexed evals: %+v", s)
	}
	// Another binding's engine answers from the same posting lists the
	// first engine used: the document owns one label index.
	posting := &doc.Labeled("patient")[0]
	other := map[string]string{"wardNo": "2"}
	if _, err := idx.QueryCtx(context.Background(), "nurse", other, doc, "//dept//treatment//bill"); err != nil {
		t.Fatalf("second binding: %v", err)
	}
	if &doc.Labeled("patient")[0] != posting {
		t.Errorf("second binding rebuilt the document's label index")
	}
}
