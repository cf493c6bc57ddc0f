package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func nurseEngine(t *testing.T, ward string) *Engine {
	t.Helper()
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": ward})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	e, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestNewRejectsUnboundParameters(t *testing.T) {
	_, err := New(dtds.NurseSpec())
	if err == nil || !strings.Contains(err.Error(), "wardNo") {
		t.Errorf("New(unbound) = %v", err)
	}
}

func TestEngineAccessors(t *testing.T) {
	e := nurseEngine(t, "6")
	if e.ViewDTD().Root() != "hospital" {
		t.Errorf("view root = %q", e.ViewDTD().Root())
	}
	if e.DocumentDTD().Len() != dtds.Hospital().Len() {
		t.Errorf("document DTD wrong")
	}
	if e.Spec() == nil || e.View() == nil {
		t.Errorf("nil accessors")
	}
}

func TestEngineQueryOnGeneratedData(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(11, 4)
	got, err := e.QueryString(doc, "//patient/name")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	// Cross-check against the materialized view.
	m, err := e.Materialize(doc)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	want := xpath.EvalDoc(xpath.MustParse("//patient/name"), m.View)
	if len(got) != len(want) {
		t.Fatalf("engine returned %d names, view has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != m.DocOf[want[i]] {
			t.Errorf("result %d differs from view", i)
		}
	}
	if err := e.Audit(doc); err != nil {
		t.Errorf("Audit: %v", err)
	}
}

func TestEngineQueryParseError(t *testing.T) {
	e := nurseEngine(t, "6")
	doc := dtds.GenerateHospital(1, 2)
	if _, err := e.QueryString(doc, "///"); err == nil {
		t.Errorf("bad query accepted")
	}
}

func TestEngineOptimizeEquivalence(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(13, 4)
	for _, q := range []string{"//patient//bill", "//dummy2/medication", "dept/staffInfo/staff/*"} {
		pt, err := e.Rewrite(xpath.MustParse(q), doc.Height())
		if err != nil {
			t.Fatalf("Rewrite(%q): %v", q, err)
		}
		po := e.Optimize(pt)
		a := xpath.EvalDoc(pt, doc)
		b := xpath.EvalDoc(po, doc)
		if len(a) != len(b) {
			t.Errorf("%q: optimize changed result count %d -> %d", q, len(a), len(b))
		}
	}
}

func TestEngineRecursiveRewriterHeightFree(t *testing.T) {
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := e.RewriteMode(); got != "height-free" {
		t.Errorf("RewriteMode = %q, want height-free", got)
	}
	p := xpath.MustParse("//b")
	p5, err := e.Rewrite(p, 5)
	if err != nil {
		t.Fatalf("Rewrite at height 5: %v", err)
	}
	p9, err := e.Rewrite(p, 9)
	if err != nil {
		t.Fatalf("Rewrite at height 9: %v", err)
	}
	if !xpath.Equal(p5, p9) {
		t.Errorf("height-free plans differ by height:\n%s\n%s", xpath.String(p5), xpath.String(p9))
	}
}

// TestEngineRecursiveMatchesUnfoldOracle: the engine's height-free
// answers over a recursive view equal the Section 4.2 oracle's — the
// view unfolded to each document's height, evaluated by the reference
// evaluator — on documents of several heights.
func TestEngineRecursiveMatchesUnfoldOracle(t *testing.T) {
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		doc := xmlgen.Generate(dtds.Fig7(), xmlgen.Config{Seed: seed, MinRepeat: 1, MaxRepeat: 3, MaxDepth: 4 + int(seed)*2, MaxNodes: 800})
		for _, q := range []string{"//b", "//a//a/b", "a/b", "//a[b]"} {
			p := xpath.MustParse(q)
			got, err := e.QueryCtx(context.Background(), doc, p)
			if err != nil {
				t.Fatalf("Query(%s): %v", q, err)
			}
			want := unfoldOracle(t, e.View(), doc, p)
			assertSameNodes(t, fmt.Sprintf("seed %d height %d %s", seed, doc.Height(), q), got, want)
		}
	}
}

func TestEngineNonRecursiveIgnoresHeight(t *testing.T) {
	e := nurseEngine(t, "6")
	p := xpath.MustParse("//patient/name")
	p1, _ := e.Rewrite(p, 1)
	p2, _ := e.Rewrite(p, 100)
	if !xpath.Equal(p1, p2) {
		t.Errorf("non-recursive view rewrote differently by height")
	}
}

func TestEngineDeniesEverythingButRoot(t *testing.T) {
	d := dtds.Hospital()
	spec := access.MustParseAnnotations(d, "ann(hospital, dept) = N\n")
	e, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	doc := dtds.GenerateHospital(5, 3)
	res, err := e.QueryString(doc, "//patient")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if len(res) != 0 {
		t.Errorf("fully denied policy returned %d nodes", len(res))
	}
	if got := e.ViewDTD().Len(); got != 1 {
		t.Errorf("view DTD has %d types, want 1 (root only)", got)
	}
}

func TestPreparedQueries(t *testing.T) {
	e := nurseEngine(t, "1")
	q, err := e.Prepare(xpath.MustParse("//patient/name"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	pt, err := e.Rewrite(q.Source, 0)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if xpath.IsEmpty(pt) || xpath.IsEmpty(q.Optimized) {
		t.Fatalf("prepared forms empty")
	}
	for seed := int64(0); seed < 3; seed++ {
		doc := dtds.GenerateHospital(seed, 3)
		want, err := e.QueryCtx(context.Background(), doc, q.Source)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		got, _, err := xpath.Evaluate(context.Background(), q.Optimized, []*xmltree.Node{doc.Root}, q.Env)
		if err != nil || len(got) != len(want) {
			t.Errorf("seed %d: prepared plan %d (%v), direct %d", seed, len(got), err, len(want))
		}
	}
}

func TestPrepareRecursiveView(t *testing.T) {
	// Height-free plans are valid for every document, so a recursive
	// view prepares like a flat one.
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Prepare(xpath.MustParse("//b")); err != nil {
		t.Errorf("height-free Prepare: %v", err)
	}
}

// TestEngineConcurrentQueries: an Engine must serve parallel queries
// safely (run with -race).
func TestEngineConcurrentQueries(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(7, 3)
	queries := []string{"//patient/name", "//bill", "dept/staffInfo/staff/*", "//dummy2/medication"}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := e.QueryString(doc, queries[(i+j)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query: %v", err)
	}
}

// TestEngineConcurrentRecursive exercises recursive-view rewriting
// under parallel access.
func TestEngineConcurrentRecursive(t *testing.T) {
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	docs := []struct{ height int }{{3}, {5}, {7}}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				h := docs[(i+j)%len(docs)].height
				if _, err := e.Rewrite(xpath.MustParse("//b"), h); err != nil {
					t.Errorf("Rewrite: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
