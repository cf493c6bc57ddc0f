package core

// One plan per class: a policy's engine is derived once with its
// $parameters unbound, query literals become placeholders before the
// plan-cache lookup, and evaluation binds both from an environment.
// The differential tests below hold that path to the per-binding
// oracle — bind the specification, derive an engine for that binding
// alone, rewrite and optimize the query with its literals in place, and
// run the reference evaluator — on the hospital nurse policy and on
// random parameterized recursive policies whose Rec graphs carry the
// variables.

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"testing"

	"repro/internal/access"
	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// boundOracle answers q for one binding without the class plan: derive
// the bound specification's own engine and evaluate its rewritten,
// optimized plan — literals in place, no placeholders, no environment —
// with the reference evaluator. ok is false when the bound
// specification does not derive.
func boundOracle(t *testing.T, spec *access.Spec, binding map[string]string, doc *xmltree.Document, q string) (out []*xmltree.Node, ok bool) {
	t.Helper()
	bound, err := spec.Bind(binding)
	if err != nil {
		t.Fatalf("Bind(%v): %v", binding, err)
	}
	e, err := New(bound)
	if err != nil {
		return nil, false
	}
	pt, err := e.Rewrite(xpath.MustParse(q), 0)
	if err != nil {
		t.Fatalf("oracle rewrite %q: %v", q, err)
	}
	out, err = xpath.EvalRef(e.Optimize(pt), []*xmltree.Node{doc.Root})
	if err != nil {
		t.Fatalf("oracle eval %q: %v", q, err)
	}
	return out, true
}

// checkClassAgainstOracle queries the class engine under each binding
// and compares every answer with the per-binding oracle. It returns the
// number of (binding, query) pairs compared and how many of their
// answers were non-empty.
func checkClassAgainstOracle(t *testing.T, label string, spec *access.Spec, class *Engine, doc *xmltree.Document, bindings []map[string]string, queries []string) (compared, nonEmpty int) {
	t.Helper()
	for _, b := range bindings {
		h, err := class.Bind(b)
		if err != nil {
			t.Fatalf("%s: Bind(%v): %v", label, b, err)
		}
		for _, q := range queries {
			want, ok := boundOracle(t, spec, b, doc, q)
			if !ok {
				continue
			}
			got, err := h.QueryString(doc, q)
			if err != nil {
				t.Fatalf("%s %v: class query %q: %v\nspec:\n%s", label, b, q, err, spec)
			}
			assertSameNodes(t, fmt.Sprintf("%s %v %q", label, b, q), got, want)
			compared++
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	return compared, nonEmpty
}

// nurseLiteralQueries exercise the placeholder step on the nurse view:
// a literal repeated within one query, literals under not(...), and
// literals that compare against the same field the policy's $wardNo
// guards.
var nurseLiteralQueries = []string{
	"//patient/name",
	`//patient[wardNo = "1"]/name`,
	`//patient[wardNo = "2"]/name`,
	`//patient[wardNo = "1" or name = "1"]/name`,
	`//patient[wardNo = "1" and not(wardNo = "1")]`,
	`//patient[not(wardNo = "3")]/name`,
	`//dept[.//patient/wardNo = "0" and not(.//patient/wardNo = "2")]//bill`,
	`//patient[treatment//bill and wardNo = "1"] | //staff[not(nurse/name = "1")]`,
}

// TestClassPlanMatchesBoundOracleNurse: the hospital nurse policy, one
// class engine, every ward of the document and one that is absent.
func TestClassPlanMatchesBoundOracleNurse(t *testing.T) {
	spec := dtds.NurseSpec()
	class, err := NewClass(spec, Config{})
	if err != nil {
		t.Fatalf("NewClass: %v", err)
	}
	doc := dtds.GenerateHospital(7, 4)
	var bindings []map[string]string
	for _, w := range []string{"0", "1", "2", "3", "9"} {
		bindings = append(bindings, map[string]string{"wardNo": w})
	}
	n, nonEmpty := checkClassAgainstOracle(t, "nurse", spec, class, doc, bindings, nurseLiteralQueries)
	if n != len(bindings)*len(nurseLiteralQueries) || nonEmpty < n/2 {
		t.Fatalf("compared %d pairs (%d non-empty), want %d", n, nonEmpty, len(bindings)*len(nurseLiteralQueries))
	}
	// The five wards and the literal variants share plans: one per
	// query shape, built once.
	if pc := class.Stats().PlanCache; pc.Entries != 7 || pc.Misses != 7 {
		t.Errorf("plan cache = %+v, want 7 shapes built once", pc)
	}
}

var quotedConstant = regexp.MustCompile(`"(v[0-9])"`)

// TestClassPlanMatchesBoundOracleRandom: random parameterized policies
// over random recursive DTDs. Queries carry a repeated literal, a
// literal under not(...), and a literal equal to a constant of the
// specification, whose equality the class plan can no longer use.
func TestClassPlanMatchesBoundOracleRandom(t *testing.T) {
	const trials = 80
	tested, withVars, recVars, compared, nonEmpty := 0, 0, 0, 0, 0
	for trial := int64(0); trial < trials; trial++ {
		rng := rand.New(rand.NewSource(7100 + trial))
		spec := dtds.RandomRecursiveSpec(rng, dtds.RecursiveGen{
			Depth:     3 + rng.Intn(2),
			Branching: 1 + rng.Intn(2),
			Density:   0.4 + rng.Float64()*0.4,
			Params:    2,
		})
		class, err := NewClass(spec, Config{})
		if err != nil {
			continue // not every random policy derives (Theorem 3.2)
		}
		tested++
		if len(spec.Vars()) > 0 {
			withVars++
		}
		doc := xmlgen.Generate(spec.D, xmlgen.Config{Seed: trial, MinRepeat: 1, MaxRepeat: 2, MaxDepth: 9, MaxNodes: 600})
		constant := "v4"
		if m := quotedConstant.FindStringSubmatch(spec.String()); m != nil {
			constant = m[1]
		}
		queries := []string{
			"//n1",
			"//v0",
			"n1/n2",
			`//n1[v1 = "v3" or n2/v2 = "v3"]`,
			`//n2[not(v2 = "v1")]`,
			fmt.Sprintf(`//*[v0 = %q or v1 = %q]`, constant, constant),
			fmt.Sprintf(`//n1[not(.//v2 = %q) and v1 = "v5"]/n2`, constant),
		}
		var bindings []map[string]string
		for i := 0; i < 3; i++ {
			bindings = append(bindings, map[string]string{
				"p0": fmt.Sprintf("v%d", rng.Intn(10)),
				"p1": fmt.Sprintf("v%d", rng.Intn(10)),
			})
		}
		c, ne := checkClassAgainstOracle(t, fmt.Sprintf("trial %d", trial), spec, class, doc, bindings, queries)
		compared, nonEmpty = compared+c, nonEmpty+ne
		h, err := class.Bind(bindings[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			plan, err := h.PrepareString(q)
			if err != nil {
				t.Fatal(err)
			}
			if planHasRecVars(plan.Optimized) {
				recVars++
				break
			}
		}
	}
	t.Logf("%d/%d policies derived (%d parameterized, %d with variables inside Rec graphs), %d answers compared (%d non-empty)",
		tested, trials, withVars, recVars, compared, nonEmpty)
	if withVars < 20 || recVars < 5 || nonEmpty < compared/4 {
		t.Fatalf("generator degenerated: %d parameterized policies, %d with Rec variables", withVars, recVars)
	}
}

// planHasRecVars reports whether a plan holds a Rec node whose σ graph
// still carries variables.
func planHasRecVars(p xpath.Path) bool {
	for _, sub := range xpath.Subqueries(p) {
		if rec, ok := sub.(xpath.Rec); ok && len(xpath.Vars(rec)) > 0 {
			return true
		}
	}
	return false
}

// TestParameterizeSharesPlans: queries that differ only in their
// literals share one plan; queries that differ in which literals are
// equal do not; Prepare reports the same shape as QueryCtx.
func TestParameterizeSharesPlans(t *testing.T) {
	class, err := NewClass(dtds.NurseSpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := class.Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatal(err)
	}
	doc := dtds.GenerateHospital(3, 3)
	for _, q := range []string{
		`//patient[wardNo = "1"]/name`,
		`//patient[wardNo = "2"]/name`,
		`//patient[wardNo = "1" and name = "1"]`, // one placeholder
		`//patient[wardNo = "1" and name = "2"]`, // two
		`//patient[wardNo = "7" and name = "8"]`, // two again
	} {
		if _, err := h.QueryString(doc, q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	if pc := class.Stats().PlanCache; pc.Entries != 3 || pc.Hits != 2 {
		t.Errorf("plan cache = %+v, want 3 shapes and 2 hits", pc)
	}
	prep, err := h.PrepareString(`//patient[wardNo = "5" and name = "6"]`)
	if err != nil {
		t.Fatal(err)
	}
	if pc := class.Stats().PlanCache; pc.Entries != 3 || pc.Hits != 3 {
		t.Errorf("Prepare did not share QueryCtx's shape: %+v", pc)
	}
	want := map[string]string{"wardNo": "1", xpath.LiteralVar(0): "5", xpath.LiteralVar(1): "6"}
	if got := prep.Env.Map(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("prepared env = %v, want %v", got, want)
	}
	if bound, err := xpath.BindVars(prep.Optimized, prep.Env.Map()); err != nil || len(xpath.Vars(bound)) != 0 {
		t.Errorf("binding the prepared plan = %v, %v; want a variable-free plan", bound, err)
	}
}

// TestClassRequiresBinding: an unbound class engine refuses queries, a
// binding that misses a parameter is refused, and a query's own
// $variable is still rejected before the placeholder step.
func TestClassRequiresBinding(t *testing.T) {
	class, err := NewClass(dtds.NurseSpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc := dtds.GenerateHospital(3, 3)
	if _, err := class.QueryString(doc, "//patient/name"); !errors.Is(err, ErrUnboundVars) {
		t.Errorf("unbound class answered: %v", err)
	}
	if _, err := class.Bind(map[string]string{"other": "1"}); err == nil {
		t.Errorf("binding without $wardNo accepted")
	}
	h, err := class.Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.QueryString(doc, `//patient[wardNo = $wardNo]`); !errors.Is(err, ErrUnboundVars) {
		t.Errorf("query naming $wardNo itself = %v, want ErrUnboundVars", err)
	}
	if _, err := h.Materialize(doc); err != nil {
		t.Errorf("bound handle cannot materialize its view: %v", err)
	}
	if _, err := class.Materialize(doc); !errors.Is(err, ErrUnboundVars) {
		t.Errorf("unbound class materialized: %v", err)
	}
}
