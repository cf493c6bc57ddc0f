package xpath

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

func TestParameterize(t *testing.T) {
	for _, tc := range []struct {
		query, shape string
		lits         []string
	}{
		{"a/b//c", "a/b//c", nil},
		{"dept[.//dummy2 and not(a | b)]//medication", "dept[.//dummy2 and not(a | b)]//medication", nil},
		{`a[b = "1"]`, `a[b = $#0]`, []string{"1"}},
		{`a[b = "1" and c = "1"]`, `a[b = $#0 and c = $#0]`, []string{"1"}},
		{`a[b = "1" or not(c = "2")]/d[e = "2"]`, `a[b = $#0 or not(c = $#1)]/d[e = $#1]`, []string{"1", "2"}},
		{`a[b[c = "x"]] | d[@k = "x"]`, `a[b[c = $#0]] | d[@k = "x"]`, []string{"x"}},
	} {
		p := MustParse(tc.query)
		shape, lits := Parameterize(p)
		if got := String(shape); got != tc.shape || !reflect.DeepEqual(lits, tc.lits) {
			t.Errorf("Parameterize(%s) = %s %q, want %s %q", tc.query, got, lits, tc.shape, tc.lits)
		}
		if len(lits) == 0 {
			// Serving parameterizes every query, most of them without
			// literals: those must come back untouched, for free.
			if n := testing.AllocsPerRun(100, func() { Parameterize(p) }); n != 0 || !Equal(shape, p) {
				t.Errorf("Parameterize(%s) rebuilt a query without literals (%.0f allocations)", tc.query, n)
			}
		}
		// The placeholders are names no parsed query carries, and the
		// literals bind them back to the original query.
		for _, v := range Vars(shape) {
			if !isLiteralVar(v) {
				t.Errorf("%s: placeholder %q is not a literal variable", tc.query, v)
			}
		}
		back, err := BindVars(shape, Env{Literals: lits}.Map())
		if err != nil || !Equal(back, p) {
			t.Errorf("binding %s back = %v, %v; want %s", String(shape), back, err, tc.query)
		}
	}
	if _, err := Parse(`a[b = $#0]`); err == nil {
		t.Errorf("the parser accepts a placeholder name")
	}
}

func TestEnvLookup(t *testing.T) {
	env := Env{Params: map[string]string{"wardNo": "6"}, Literals: []string{"a", "b"}}
	for _, tc := range []struct {
		name, want string
		ok         bool
	}{
		{"wardNo", "6", true},
		{LiteralVar(0), "a", true},
		{LiteralVar(1), "b", true},
		{LiteralVar(2), "", false},
		{"#x", "", false},
		{"other", "", false},
	} {
		if got, ok := env.Lookup(tc.name); got != tc.want || ok != tc.ok {
			t.Errorf("Lookup(%q) = %q, %t; want %q, %t", tc.name, got, ok, tc.want, tc.ok)
		}
	}
	if LiteralVar(40) != "#40" {
		t.Errorf("LiteralVar(40) = %q", LiteralVar(40))
	}
}

// TestEvalEnvMatchesBoundPlan: evaluating a plan that carries variables
// against an environment answers what the plan with the values
// substituted answers, on both evaluators' terms: the environment's
// values reach QEq qualifiers inside qualifier paths, unions, negations
// and Rec σ edges.
func TestEvalEnvMatchesBoundPlan(t *testing.T) {
	e, tx := xmltree.E, xmltree.T
	doc := xmltree.NewDocument(e("r",
		e("a", tx("k", "1"), e("b", tx("k", "2"), e("a", tx("k", "2")))),
		e("a", tx("k", "2"), e("b", tx("k", "1"))),
		e("c", tx("k", "1")),
	))
	g := NewRecGraph(map[string][]RecEdge{
		"a": {{To: "b", Sig: MustParse("b")}},
		"b": {{To: "a", Sig: Qualified{Sub: L("a"), Cond: QEq{Path: L("k"), Var: "p"}}}},
	})
	// shape parses a query and renames its literals to placeholders.
	shape := func(q string) Path {
		p, _ := Parameterize(MustParse(q))
		return p
	}
	plans := []Path{
		shape(`//a[k = "x"]`),
		shape(`//*[not(k = "x") and .//k = "y"]`),
		shape(`a[b/k = $p] | c[k = "y" or k = "x"]`),
		Seq{Left: L("a"), Right: Rec{G: g, Start: "a", Accept: "a", ResultLabel: "a"}},
		shape(`*[.//a[k = $p]]`),
	}
	envs := []Env{
		{Params: map[string]string{"p": "1"}, Literals: []string{"1", "2"}},
		{Params: map[string]string{"p": "2"}, Literals: []string{"2", "1"}},
		{Params: map[string]string{"p": "3"}, Literals: []string{"1", "1"}},
	}
	nonEmpty := 0
	for _, p := range plans {
		for _, env := range envs {
			got, _, err := Evaluate(nil, p, []*xmltree.Node{doc.Root}, env)
			if err != nil {
				t.Fatalf("%s under %v: %v", String(p), env, err)
			}
			bound, err := BindVars(p, env.Map())
			if err != nil {
				t.Fatal(err)
			}
			want, err := EvalRef(bound, []*xmltree.Node{doc.Root})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s under %v: env evaluation %d nodes, bound plan %d", String(p), env, len(got), len(want))
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < len(plans)*len(envs)/2 {
		t.Fatalf("only %d answers non-empty", nonEmpty)
	}
	if _, _, err := Evaluate(nil, plans[2], []*xmltree.Node{doc.Root}, Env{Literals: []string{"1", "2"}}); err == nil {
		t.Errorf("a missing parameter evaluated")
	}
}

// TestStringAllocatesExactly: String copies the rendered text out at its
// length, so a string a plan cache keeps carries no spare buffer. A
// renderer that grows its buffer by doubling allocated about twice the
// text's length.
func TestStringAllocatesExactly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers, so allocation sizes vary")
	}
	q := "/dept/patientInfo/patient[wardNo = \"1\"]/name"
	p := MustParse(strings.Repeat(q+" | ", 14) + q)
	text := String(p)
	if len(text) < 600 {
		t.Fatalf("test plan renders to %d bytes, want a long one", len(text))
	}
	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if String(p) != text {
			t.Fatal("String is not deterministic")
		}
	}
	runtime.ReadMemStats(&m1)
	perCall := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	// One allocation of the text's size class, plus the literal
	// escapes' small strings.
	if limit := float64(len(text))*1.15 + 256; perCall > limit {
		t.Errorf("String allocates %.0f B per call for %d B of text (limit %.0f)", perCall, len(text), limit)
	}
}
