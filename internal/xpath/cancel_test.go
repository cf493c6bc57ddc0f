package xpath_test

// Cancellation suite: evaluation under a done context must return the
// context's error promptly — even mid-descent on a large document, and
// inside the label-index and qualifier passes.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dtds"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// chainDoc builds a deep document: a spine of n s-elements, each also
// carrying a leaf child. Chained //* queries over it evaluate slowly
// enough to cancel mid-flight once the spine is long: set-at-a-time
// evaluation answers slowQuery in about 0.17 µs per spine node.
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

// deepChain is the spine length of the deadline tests: long enough that
// the uncancelled evaluation takes well over their 5 ms floor.
const deepChain = 160000

// sequentialBudget asserts the evaluation took well under 100ms — the
// promptness bound from the serving layer's point of view.
func assertPrompt(t *testing.T, elapsed time.Duration) {
	t.Helper()
	if elapsed >= 100*time.Millisecond {
		t.Errorf("cancelled evaluation took %v, want well under 100ms", elapsed)
	}
}

func TestEvalDocCtxDeadlinePrompt(t *testing.T) {
	doc := chainDoc(deepChain)
	p := slowQuery(t)

	// Sanity: uncancelled evaluation is genuinely slow (otherwise the
	// promptness assertion below proves nothing).
	start := time.Now()
	if _, _, err := xpath.Evaluate(nil, p, []*xmltree.Node{doc.Root}, xpath.Env{}); err != nil {
		t.Fatalf("uncancelled eval: %v", err)
	}
	full := time.Since(start)
	if full < 5*time.Millisecond {
		t.Skipf("document too fast to test cancellation meaningfully (%v)", full)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	_, _, err := xpath.Evaluate(ctx, p, []*xmltree.Node{doc.Root}, xpath.Env{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	assertPrompt(t, elapsed)
}

func TestEvalDocCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := xpath.Evaluate(ctx, xpath.MustParse("//leaf"), []*xmltree.Node{chainDoc(5).Root}, xpath.Env{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled eval returned %d nodes", len(res))
	}
}

// TestEvalIndexedCtxDeadlinePrompt: the promptness contract holds for
// an evaluation at a subcontext, where every descendant step weighs the
// label index against the context's subtree cover — a 1ms deadline cuts
// a multi-millisecond evaluation off within the serving layer's 100ms
// promptness bound.
func TestEvalIndexedCtxDeadlinePrompt(t *testing.T) {
	doc := chainDoc(deepChain)
	p := slowQuery(t)
	spine := xpath.EvalDoc(xpath.MustParse("s"), doc)
	if len(spine) != 1 {
		t.Fatalf("spine child = %d nodes", len(spine))
	}
	ctx := []*xmltree.Node{spine[0], doc.Root.Children[0]}

	start := time.Now()
	if _, err := evalAt(p, ctx); err != nil {
		t.Fatalf("uncancelled eval: %v", err)
	}
	full := time.Since(start)
	if full < 5*time.Millisecond {
		t.Skipf("document too fast to test cancellation meaningfully (%v)", full)
	}

	dctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	_, _, err := xpath.Evaluate(dctx, p, ctx, xpath.Env{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	assertPrompt(t, elapsed)
}

// TestEvalIndexedCtxAlreadyCancelled: a done context fails evaluation at
// a subcontext before any step runs.
func TestEvalIndexedCtxAlreadyCancelled(t *testing.T) {
	doc := chainDoc(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := xpath.Evaluate(ctx, xpath.MustParse("//leaf"), doc.Root.Children, xpath.Env{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled eval returned %d nodes", len(res))
	}
}

// TestEvalIndexedCtxCountedTicks: Evaluate reports nonzero cooperation
// ticks for real work on a descendant step the label index serves.
func TestEvalIndexedCtxCountedTicks(t *testing.T) {
	doc := chainDoc(200)
	out, ticks, err := xpath.Evaluate(context.Background(), xpath.MustParse("//leaf"), []*xmltree.Node{doc.Root}, xpath.Env{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
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
	p := wardUnion(t)

	start := time.Now()
	out, ticks, err := xpath.Evaluate(context.Background(), p, []*xmltree.Node{doc.Root}, xpath.Env{})
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
	_, partial, err := xpath.Evaluate(ctx, p, []*xmltree.Node{doc.Root}, xpath.Env{})
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
