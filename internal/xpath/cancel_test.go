package xpath_test

// Cancellation suite: evaluation under a done context must return the
// context's error promptly — even mid-descent on a large document — and
// the parallel evaluator must drain its worker pool so no goroutine
// outlives the call.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dtds"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// chainDoc builds a deep document: a spine of n s-elements, each also
// carrying a leaf child. Chained //* queries over it are superlinear,
// which makes evaluation slow enough to cancel mid-flight.
func chainDoc(n int) *xmltree.Document {
	root := xmltree.NewElement("s")
	cur := root
	for i := 0; i < n; i++ {
		leaf := xmltree.NewText(fmt.Sprintf("v%d", i))
		l := xmltree.NewElement("leaf")
		l.AppendChild(leaf)
		cur.AppendChild(l)
		next := xmltree.NewElement("s")
		cur.AppendChild(next)
		cur = next
	}
	return xmltree.NewDocument(root)
}

// slowQuery is expensive over chainDoc: each //* step re-walks every
// subtree of the spine.
func slowQuery(t *testing.T) xpath.Path {
	t.Helper()
	p, err := xpath.Parse("//*[//leaf]//*[//leaf]//leaf")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

// sequentialBudget asserts the evaluation took well under 100ms — the
// promptness bound from the serving layer's point of view.
func assertPrompt(t *testing.T, elapsed time.Duration) {
	t.Helper()
	if elapsed >= 100*time.Millisecond {
		t.Errorf("cancelled evaluation took %v, want well under 100ms", elapsed)
	}
}

func TestEvalDocCtxDeadlinePrompt(t *testing.T) {
	doc := chainDoc(1500)
	p := slowQuery(t)

	// Sanity: uncancelled evaluation is genuinely slow (otherwise the
	// promptness assertion below proves nothing).
	start := time.Now()
	if _, err := xpath.EvalDocCtx(nil, p, doc); err != nil {
		t.Fatalf("uncancelled eval: %v", err)
	}
	full := time.Since(start)
	if full < 5*time.Millisecond {
		t.Skipf("document too fast to test cancellation meaningfully (%v)", full)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := xpath.EvalDocCtx(ctx, p, doc)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	assertPrompt(t, elapsed)
}

func TestEvalDocCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := xpath.EvalDocCtx(ctx, xpath.MustParse("//leaf"), chainDoc(5))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled eval returned %d nodes", len(res))
	}
}

func TestEvalDocParallelCtxCancelMidFlight(t *testing.T) {
	doc := chainDoc(1500)
	p := slowQuery(t)
	cfg := xpath.ParallelConfig{Workers: 4, Threshold: 64}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	var stats xpath.ParallelStats
	start := time.Now()
	_, err := xpath.EvalDocParallelCtx(ctx, p, doc, cfg, &stats)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertPrompt(t, elapsed)
}

// TestEvalDocParallelCtxNoGoroutineLeak: repeated cancelled parallel
// evaluations must not leave workers behind — EvalDocParallelCtx drains
// its pool before returning.
func TestEvalDocParallelCtxNoGoroutineLeak(t *testing.T) {
	doc := chainDoc(800)
	p := slowQuery(t)
	cfg := xpath.ParallelConfig{Workers: 8, Threshold: 32}

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := xpath.EvalDocParallelCtx(ctx, p, doc, cfg, nil)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("iteration %d: unexpected error %v", i, err)
		}
	}
	// Give any stragglers a moment to exit before counting, then allow a
	// small delta for runtime background goroutines.
	time.Sleep(50 * time.Millisecond)
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Errorf("goroutines grew from %d to %d across 20 cancelled parallel evals", before, after)
	}
}

// TestEvalDocParallelCtxCompletesUncancelled: a context that never fires
// must not perturb results.
func TestEvalDocParallelCtxCompletesUncancelled(t *testing.T) {
	doc := chainDoc(300)
	p := slowQuery(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	want, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	got, err := xpath.EvalDocParallelCtx(ctx, p, doc, xpath.ParallelConfig{Workers: 4, Threshold: 64}, nil)
	if err != nil {
		t.Fatalf("parallel with live context: %v", err)
	}
	if len(got) != len(want) {
		t.Errorf("context-carrying eval changed the answer: %d vs %d nodes", len(got), len(want))
	}
}

// TestEvalIndexedCtxDeadlinePrompt: the indexed evaluator honors the
// same cancellation-promptness contract as the walk evaluator — a
// 1ms deadline cuts a multi-hundred-ms evaluation off within the
// serving layer's 100ms promptness bound.
func TestEvalIndexedCtxDeadlinePrompt(t *testing.T) {
	doc := chainDoc(1500)
	p := slowQuery(t)
	idx := xpath.NewIndex(doc)

	start := time.Now()
	if _, err := xpath.EvalIndexedErr(p, idx); err != nil {
		t.Fatalf("uncancelled indexed eval: %v", err)
	}
	full := time.Since(start)
	if full < 5*time.Millisecond {
		t.Skipf("document too fast to test cancellation meaningfully (%v)", full)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := xpath.EvalIndexedCtx(ctx, p, idx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	assertPrompt(t, elapsed)
}

func TestEvalIndexedCtxAlreadyCancelled(t *testing.T) {
	doc := chainDoc(5)
	idx := xpath.NewIndex(doc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := xpath.EvalIndexedCtx(ctx, xpath.MustParse("//leaf"), idx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled indexed eval returned %d nodes", len(res))
	}
}

// TestEvalIndexedCtxCountedTicks: the counted form reports nonzero
// cooperation ticks for real work, like EvalDocCtxCounted.
func TestEvalIndexedCtxCountedTicks(t *testing.T) {
	doc := chainDoc(200)
	idx := xpath.NewIndex(doc)
	out, ticks, err := xpath.EvalIndexedCtxCounted(context.Background(), xpath.MustParse("//leaf"), idx)
	if err != nil {
		t.Fatalf("EvalIndexedCtxCounted: %v", err)
	}
	if len(out) != 200 {
		t.Fatalf("got %d leaves, want 200", len(out))
	}
	if ticks == 0 {
		t.Fatalf("ticks = 0, want nonzero nodes-visited proxy")
	}
}

// wardUnion is a served-shape plan dominated by qualifiers: 20 union
// branches of //dept[patientInfo/patient/wardNo = "k"]//*, each
// guarding a whole-subtree descent with a ward test.
func wardUnion(t *testing.T) xpath.Path {
	t.Helper()
	branches := make([]string, 20)
	for k := range branches {
		branches[k] = fmt.Sprintf(`//dept[patientInfo/patient/wardNo = "%d"]//*`, k%4+7*(k/4))
	}
	p, err := xpath.Parse(strings.Join(branches, " | "))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

// TestQualifierHeavyDeadline: set-at-a-time qualifier evaluation ticks
// like every other step, so a deadline cuts a qualifier-heavy plan off
// promptly and the counted form reports the work it did.
func TestQualifierHeavyDeadline(t *testing.T) {
	doc := dtds.GenerateHospital(1, 48)
	if doc.Size() < 10000 {
		t.Fatalf("document too small: %d nodes", doc.Size())
	}
	idx := xpath.NewIndex(doc)
	p := wardUnion(t)

	start := time.Now()
	out, ticks, err := xpath.EvalIndexedCtxCounted(context.Background(), p, idx)
	full := time.Since(start)
	if err != nil {
		t.Fatalf("uncancelled eval: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("plan selects nothing; the deadline check below would prove little")
	}
	if ticks == 0 {
		t.Fatal("ticks = 0, want a nonzero nodes-visited proxy")
	}

	// A deadline at a tenth of the full run must stop evaluation with
	// the context's error, well within the promptness bound.
	ctx, cancel := context.WithTimeout(context.Background(), full/10)
	defer cancel()
	start = time.Now()
	_, partial, err := xpath.EvalIndexedCtxCounted(ctx, p, idx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %v (full run %v), want context.DeadlineExceeded", err, elapsed, full)
	}
	assertPrompt(t, elapsed)
	if partial >= ticks {
		t.Errorf("cancelled run counted %d ticks, the full run %d", partial, ticks)
	}
	t.Logf("full run %v, %d ticks; cancelled after %v, %d ticks", full, ticks, elapsed, partial)
}
