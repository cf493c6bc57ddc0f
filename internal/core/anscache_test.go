package core

// Answer-cache suite: the semantic answer cache (Config.AnswerCache)
// must be invisible in results — cache-on and cache-off engines agree
// on every query — while actually serving hits, staying sound on
// non-contained queries, and dropping every cached answer at an epoch
// bump.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// nurseEngines returns cache-on and cache-off engines for the nurse
// policy bound to one ward.
func nurseEngines(t *testing.T, ward string) (on, off *Engine) {
	t.Helper()
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": ward})
	if err != nil {
		t.Fatal(err)
	}
	on, err = NewWithConfig(spec, Config{AnswerCache: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err = New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return on, off
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

// nurseViewQueries mixes repeated bases, qualified restrictions of
// those bases (the containment-hit shape), and unrelated queries.
// Order matters: each base precedes its qualified restrictions.
var nurseViewQueries = []string{
	"//patient",
	"//patient[.//bill]",
	"//patient[.//medication]",
	"//bill",
	"//name",
	"//patient/name",
	"//medication",
	"//patient[name]",
	"//wardNo",
	".",
}

// TestAnswerCacheDifferential sweeps (policy, document, query) triples —
// hospital nurse bindings and randomized recursive policies, well over
// 200 triples — asserting the cache-on engine answers every query, twice
// in a row, exactly like the cache-off engine.
func TestAnswerCacheDifferential(t *testing.T) {
	triples := 0
	var hits, containmentHits uint64

	// Hospital: 3 ward bindings × 4 documents × 10 queries.
	for _, ward := range []string{"1", "2", "3"} {
		on, off := nurseEngines(t, ward)
		for seed := int64(0); seed < 4; seed++ {
			doc := genHospital(seed)
			for _, q := range nurseViewQueries {
				triples++
				want, err := off.QueryString(doc, q)
				if err != nil {
					t.Fatalf("ward %s seed %d %q: cache-off: %v", ward, seed, q, err)
				}
				for pass := 0; pass < 2; pass++ {
					got, err := on.QueryString(doc, q)
					if err != nil {
						t.Fatalf("ward %s seed %d %q pass %d: cache-on: %v", ward, seed, q, pass, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("ward %s seed %d %q pass %d: cache-on %d nodes, cache-off %d",
							ward, seed, q, pass, len(got), len(want))
					}
				}
			}
		}
		s := on.Stats().AnswerCache
		hits += s.Hits
		containmentHits += s.ContainmentHits
	}

	// Randomized recursive policies: second-pass repeats guarantee equal
	// hits; the qualified shapes give containment a chance.
	recQueries := []string{"/n0/*", "n1", "n1/n2", "n2", "n2[v2]", "n1/v1 | v0", ".", "//n1", "//n2", "//v2"}
	tested := 0
	for trial := int64(0); trial < 16; trial++ {
		rng := rand.New(rand.NewSource(4200 + trial))
		spec := dtds.RandomRecursiveSpec(rng, dtds.RecursiveGen{
			Depth:       3 + rng.Intn(3),
			Branching:   1 + rng.Intn(2),
			Density:     0.3 + rng.Float64()*0.4,
			StarredOnly: true,
		})
		off, err := New(spec)
		if err != nil {
			continue // generator drew an underivable policy; skip like the invariant suite
		}
		on, err := NewWithConfig(spec, Config{AnswerCache: true})
		if err != nil {
			t.Fatalf("trial %d: cache-on engine rejected a spec the cache-off engine accepted: %v", trial, err)
		}
		tested++
		doc := xmlgen.Generate(spec.D, xmlgen.Config{Seed: trial, MinRepeat: 1, MaxRepeat: 2, MaxDepth: 16, MaxNodes: 2000})
		for _, q := range recQueries {
			triples++
			want, err := off.QueryString(doc, q)
			if err != nil {
				t.Fatalf("trial %d %q: cache-off: %v\nspec:\n%s", trial, q, err, spec)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := on.QueryString(doc, q)
				if err != nil {
					t.Fatalf("trial %d %q pass %d: cache-on: %v\nspec:\n%s", trial, q, pass, err, spec)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trial %d %q pass %d: cache-on %d nodes, cache-off %d\nspec:\n%s",
						trial, q, pass, len(got), len(want), spec)
				}
			}
		}
		s := on.Stats().AnswerCache
		hits += s.Hits
		containmentHits += s.ContainmentHits
	}
	if tested < 8 {
		t.Fatalf("only %d/16 recursive policies derivable; generator too aggressive", tested)
	}
	if triples < 200 {
		t.Fatalf("suite covered %d triples, want ≥ 200", triples)
	}
	if hits == 0 {
		t.Errorf("differential sweep produced no equal hits — the cache never engaged")
	}
	if containmentHits == 0 {
		t.Errorf("differential sweep produced no containment hits — the filtered path never engaged")
	}
	t.Logf("%d triples, %d equal hits, %d containment hits", triples, hits, containmentHits)
}

// TestAnswerCacheEqualHitLeg pins the equal-hit path: the second
// identical query is served from the cache, reported as eval mode
// "cached" with hit kind "equal", with the identical node-set.
func TestAnswerCacheEqualHitLeg(t *testing.T) {
	on, off := nurseEngines(t, "1")
	doc := genHospital(7)
	q := xpath.MustParse("//patient")
	want, err := off.Query(doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("ward-1 view shows no patients on this document; pick another seed")
	}
	if _, err := on.Query(doc, q); err != nil {
		t.Fatal(err)
	}
	qm := &obs.QueryMetrics{}
	got, err := on.QueryCtx(obs.WithQueryMetrics(context.Background(), qm), doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("equal hit returned %d nodes, want %d", len(got), len(want))
	}
	if qm.EvalMode != obs.ModeCached || qm.AnswerCacheHit != "equal" {
		t.Errorf("metrics: mode=%q hit=%q, want cached/equal", qm.EvalMode, qm.AnswerCacheHit)
	}
	s := on.Stats().AnswerCache
	if s.Hits != 1 || s.ContainmentHits != 0 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestAnswerCacheContainmentHitLeg pins the containment path: after the
// base query is cached, its qualified restriction is answered by
// filtering the cached node-set — no evaluator run — and matches the
// cache-off answer exactly.
func TestAnswerCacheContainmentHitLeg(t *testing.T) {
	on, off := nurseEngines(t, "1")
	doc := genHospital(7)
	// medication exists only under the "regular" treatment branch, so
	// the qualifier discriminates (unlike [.//bill], which the DTD makes
	// universally true).
	base := xpath.MustParse("//patient")
	restricted := xpath.MustParse("//patient[.//medication]")
	baseNodes, err := off.Query(doc, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := off.Query(doc, restricted)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(want) == len(baseNodes) {
		t.Fatalf("qualifier not discriminating (%d of %d); pick another seed", len(want), len(baseNodes))
	}
	if _, err := on.Query(doc, base); err != nil {
		t.Fatal(err)
	}
	qm := &obs.QueryMetrics{}
	got, err := on.QueryCtx(obs.WithQueryMetrics(context.Background(), qm), doc, restricted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("containment hit returned %d nodes, want %d", len(got), len(want))
	}
	if qm.EvalMode != obs.ModeCached || qm.AnswerCacheHit != "containment" {
		t.Errorf("metrics: mode=%q hit=%q, want cached/containment", qm.EvalMode, qm.AnswerCacheHit)
	}
	s := on.Stats().AnswerCache
	if s.ContainmentHits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestAnswerCacheSoundness: queries with no provable containment
// relation to anything cached must always miss — in particular a query
// that CONTAINS a cached one (the unsound direction) must not hit.
func TestAnswerCacheSoundness(t *testing.T) {
	on, _ := nurseEngines(t, "1")
	doc := genHospital(7)
	// //patient/name is cached first; //name contains it (every patient
	// name is a name) but is not contained in it, so serving the cached
	// answer would drop nurse-roster names.
	for _, q := range []string{"//patient/name", "//name", "//medication", "//bill"} {
		if _, err := on.QueryString(doc, q); err != nil {
			t.Fatal(err)
		}
	}
	s := on.Stats().AnswerCache
	if s.Hits != 0 || s.ContainmentHits != 0 {
		t.Errorf("unrelated queries produced hits: %+v", s)
	}
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4", s.Misses)
	}
}

// TestAnswerCacheEpochStaleness mutates a document in place — the
// sharpest staleness scenario, where even document-id keying would
// serve the stale answer — and proves BumpEpoch makes the pre-swap
// answer unreachable.
func TestAnswerCacheEpochStaleness(t *testing.T) {
	on, off := nurseEngines(t, "1")
	doc := genHospital(7)
	q := xpath.MustParse("//patient")
	before, err := on.Query(doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatalf("ward-1 view shows no patients; pick another seed")
	}

	// Swap the document under the engine: move every ward-1 patient to
	// ward 9, which the nurse's view no longer exposes.
	changed := 0
	for _, n := range xpath.EvalDoc(xpath.MustParse("//wardNo"), doc) {
		for _, c := range n.Children {
			if c.Kind == xmltree.TextNode && c.Data == "1" {
				c.Data = "9"
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatalf("document has no ward-1 wardNo nodes to swap")
	}
	// In-place edits are followed by Renumber: every index derived from
	// the tree (label index, value dictionary) is keyed by generation.
	doc.Renumber()

	if e := on.Epoch(); e != 0 {
		t.Fatalf("fresh engine epoch = %d", e)
	}
	on.BumpEpoch()
	off.BumpEpoch()
	if e := on.Epoch(); e != 1 {
		t.Errorf("epoch after bump = %d", e)
	}
	if n := on.Stats().AnswerCache.Entries; n != 0 {
		t.Errorf("answer cache holds %d entries after bump", n)
	}

	want, err := off.Query(doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, before) {
		t.Fatalf("mutation did not change the answer; the staleness check would be vacuous")
	}
	preHits := on.Stats().AnswerCache.Hits
	got, err := on.Query(doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-swap query returned %d nodes, want %d — a pre-swap answer leaked", len(got), len(want))
	}
	if s := on.Stats().AnswerCache; s.Hits != preHits {
		t.Errorf("post-swap query hit the cache: %+v", s)
	}
}

// TestAnswerCacheExplainReportsHitKind: /explainz surfaces the hit kind
// the serving path would have seen.
func TestAnswerCacheExplainReportsHitKind(t *testing.T) {
	on, _ := nurseEngines(t, "1")
	doc := genHospital(7)
	q := xpath.MustParse("//patient")
	ex, err := on.ExplainCtx(context.Background(), doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.AnswerCacheHit != "miss" {
		t.Errorf("first explain hit kind = %q, want miss", ex.AnswerCacheHit)
	}
	ex, err = on.ExplainCtx(context.Background(), doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.AnswerCacheHit != "equal" {
		t.Errorf("second explain hit kind = %q, want equal", ex.AnswerCacheHit)
	}
	// Cache-off engines report nothing.
	_, off := nurseEngines(t, "1")
	ex, err = off.ExplainCtx(context.Background(), doc, q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.AnswerCacheHit != "" {
		t.Errorf("cache-off explain hit kind = %q, want empty", ex.AnswerCacheHit)
	}
}
