package optimize_test

import (
	"path/filepath"
	"testing"

	"repro/internal/access"
	"repro/internal/dtds"
	"repro/internal/optimize"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xpath"
)

// planViews are the views whose plans TestPlansDeterministic and
// TestViewPlanGolden check: the flat nurse (ward 7) and adex views and
// the recursive fig7 and forum views, which rewrite height-free.
var planViews = []struct {
	name string
	spec func() *access.Spec
}{
	{"nurse", dtds.NurseSpec},
	{"adex", dtds.AdexSpec},
	{"fig7", dtds.Fig7Spec},
	{"forum", dtds.ForumGuestSpec},
}

func deriveView(t testing.TB, spec *access.Spec) *secview.View {
	t.Helper()
	if len(spec.Vars()) > 0 {
		var err error
		if spec, err = spec.Bind(map[string]string{"wardNo": "7"}); err != nil {
			t.Fatal(err)
		}
	}
	view, err := secview.Derive(spec)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// optimized is Optimize's plan without its counts.
func optimized(o *optimize.Optimizer, p xpath.Path) xpath.Path {
	out, _, _ := o.Optimize(p)
	return out
}

// planPair rewrites q with a fresh Rewriter over the view and optimizes
// the result with a fresh Optimizer over the document DTD.
func planPair(t testing.TB, view *secview.View, q string) (rewritten, optimizedText string) {
	t.Helper()
	rw, err := rewrite.ForView(view)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := rw.Rewrite(xpath.MustParse(q))
	return xpath.String(pt), xpath.String(optimized(optimize.New(view.Doc), pt))
}

// TestPlansDeterministic: a plan is a function of the view and the
// query alone. Twenty fresh Rewriter+Optimizer pairs must print one
// rewritten and one optimized text for each '//' query, whose recProc
// tables hold the text target built from every text-typed type; a union
// built in map order prints differently from one process (or one
// rewriter) to the next, and the plan fingerprint with it.
func TestPlansDeterministic(t *testing.T) {
	for _, pv := range planViews {
		view := deriveView(t, pv.spec())
		for _, q := range []string{"//.", "//text()", "//*", "//*//."} {
			rewritten, optimized := map[string]bool{}, map[string]bool{}
			for i := 0; i < 20; i++ {
				r, o := planPair(t, view, q)
				rewritten[r], optimized[o] = true, true
			}
			if len(rewritten) != 1 || len(optimized) != 1 {
				t.Errorf("%s %q: 20 fresh rewriters printed %d rewritten and %d optimized plans, want 1 each",
					pv.name, q, len(rewritten), len(optimized))
			}
		}
	}
}

// viewPlanQueries is the fixed query list TestViewPlanGolden pins over
// a view DTD's labels: the '//' forms of the churn space, //a//b over
// every label pair and one qualifier per label.
func viewPlanQueries(labels []string) []string {
	qs := []string{"//*", "//.", "//text()"}
	for _, a := range labels {
		qs = append(qs, "//"+a+"/*", "//*["+a+"]")
		for _, b := range labels {
			qs = append(qs, "//"+a+"//"+b)
		}
	}
	return qs
}

// TestViewPlanGolden pins the rewritten and the optimized plan text of
// the views TestChurnPlanGolden does not cover: the flat adex view and
// the recursive fig7 and forum views. One line per (view, query)
// carries the digests of both texts. Rewriter and optimizer changes
// that are meant to be plan-preserving must leave this file untouched.
func TestViewPlanGolden(t *testing.T) {
	var lines []string
	for _, pv := range planViews[1:] {
		view := deriveView(t, pv.spec())
		for _, q := range viewPlanQueries(view.DTD.Types()) {
			r, o := planPair(t, view, q)
			lines = append(lines, planDigest(r)+" "+planDigest(o)+" "+pv.name+" "+q)
		}
	}
	checkGolden(t, filepath.Join("testdata", "view_plans.golden"),
		"# sha256[:8] of the rewritten and of the optimized plan text, view, query", lines)
}

// planMiss returns what BenchmarkPlanMiss and TestPlanMissAllocs build
// plans from: every 7th parameterized churn shape, with $parameters
// unbound as a class engine holds them, and a function that rewrites
// then optimizes each of them, run once so the recProc tables are built.
func planMiss(t testing.TB) (sample []xpath.Path, plans func()) {
	t.Helper()
	view, err := secview.Derive(dtds.NurseSpec())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var shapes []xpath.Path
	for _, q := range goldenQueries() {
		shape, _ := xpath.Parameterize(xpath.MustParse(q))
		if s := xpath.String(shape); !seen[s] {
			seen[s] = true
			shapes = append(shapes, shape)
		}
	}
	for i := 0; i < len(shapes); i += 7 {
		sample = append(sample, shapes[i])
	}
	rw, err := rewrite.ForView(view)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimize.New(view.Doc)
	plans = func() {
		for _, p := range sample {
			pt, _ := rw.Rewrite(p)
			opt.Optimize(pt)
		}
	}
	plans()
	return sample, plans
}

// BenchmarkPlanMiss measures plan-cache misses on a warm engine: one op
// builds the plans of planMiss. allocs/op is the allocation cost of
// those plans; ns/plan is the time of one.
func BenchmarkPlanMiss(b *testing.B) {
	sample, plans := planMiss(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plans()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sample)), "ns/plan")
}

// planAllocBudget is what one warm plan build of planMiss's shapes may
// allocate on average, rewrite and optimize together: 25.6 measured,
// plus slack (see DESIGN.md, "What a request allocates").
const planAllocBudget = 28

// TestPlanMissAllocs holds a warm plan build to planAllocBudget.
func TestPlanMissAllocs(t *testing.T) {
	sample, plans := planMiss(t)
	got := testing.AllocsPerRun(5, plans) / float64(len(sample))
	t.Logf("%.1f allocs per plan over %d shapes", got, len(sample))
	if got > planAllocBudget {
		t.Errorf("a warm plan build allocates %.1f times, over its budget of %d", got, planAllocBudget)
	}
}
