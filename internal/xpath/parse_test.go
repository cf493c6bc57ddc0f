package xpath

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want Path
	}{
		{".", Self{}},
		{"*", Wildcard{}},
		{"∅", Empty{}},
		{"dept", Label{Name: "dept"}},
		{"r-e.warranty", Label{Name: "r-e.warranty"}},
		{"text()", Label{Name: TextName}},
		{"a/b", Seq{Left: Label{Name: "a"}, Right: Label{Name: "b"}}},
		{"/a/b", Seq{Left: Label{Name: "a"}, Right: Label{Name: "b"}}},
		{"//a", Descend{Sub: Label{Name: "a"}}},
		{"a//b", Seq{Left: Label{Name: "a"}, Right: Descend{Sub: Label{Name: "b"}}}},
		{"a | b", Union{Left: Label{Name: "a"}, Right: Label{Name: "b"}}},
		{"(a | b)/c", Seq{Left: Union{Left: Label{Name: "a"}, Right: Label{Name: "b"}}, Right: Label{Name: "c"}}},
		{"a[b]", Qualified{Sub: Label{Name: "a"}, Cond: QPath{Path: Label{Name: "b"}}}},
		{"a[b and c]", Qualified{Sub: Label{Name: "a"}, Cond: QAnd{Left: QPath{Path: Label{Name: "b"}}, Right: QPath{Path: Label{Name: "c"}}}}},
		{"a[b or not(c)]", Qualified{Sub: Label{Name: "a"}, Cond: QOr{Left: QPath{Path: Label{Name: "b"}}, Right: QNot{Sub: QPath{Path: Label{Name: "c"}}}}}},
		{`a[b = "6"]`, Qualified{Sub: Label{Name: "a"}, Cond: QEq{Path: Label{Name: "b"}, Value: "6"}}},
		{`a[b = '6']`, Qualified{Sub: Label{Name: "a"}, Cond: QEq{Path: Label{Name: "b"}, Value: "6"}}},
		{"a[b = $wardNo]", Qualified{Sub: Label{Name: "a"}, Cond: QEq{Path: Label{Name: "b"}, Var: "wardNo"}}},
		{`a[@accessibility = "1"]`, Qualified{Sub: Label{Name: "a"}, Cond: QAttrEq{Name: "accessibility", Value: "1"}}},
		{"a[true()]", Qualified{Sub: Label{Name: "a"}, Cond: QTrue{}}},
		{"a[false()]", Qualified{Sub: Label{Name: "a"}, Cond: QFalse{}}},
		{"a[.[b]]", Qualified{Sub: Label{Name: "a"}, Cond: QPath{Path: Qualified{Sub: Self{}, Cond: QPath{Path: Label{Name: "b"}}}}}},
	}
	for _, tc := range cases {
		got, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", tc.src, got, tc.want)
		}
	}
}

func TestParsePaperQueries(t *testing.T) {
	// Every query that appears in the paper must parse.
	queries := []string{
		"//dept//patientInfo/patient/name",
		"//dept/patientInfo/patient/name",
		"dept[*/patient/wardNo = $wardNo]",
		"(clinicalTrial | .)/patientInfo",
		"//patient//bill",
		"//b",
		"a[b and c]",
		"(a | b)/c",
		"a[b]/*/d/*/g",
		"a[b]/(b | c)/d/(e | f)/g",
		"a[b]/b/d/e/g | a/b/d/f/g",
		"//patient | //(patient | staff)[//medication]",
		"//buyer-info/contact-info",
		"//house/r-e.warranty | //apartment/r-e.warranty",
		"//buyer-info[//company-id and //contact-info]",
		"//house[//r-e.asking-price and //r-e.unit-type]",
		"/adex/head/buyer-info/contact-info",
		`//buyer-info//contact-info[@accessibility = "1"]`,
	}
	for _, q := range queries {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"a/",
		"a[",
		"a[b",
		"a]",
		"a[b = ]",
		"(a",
		"a |",
		"//",
		"a b",
		"not(a)",
		"a[not b]",
		`a[b = "unterminated]`,
		`a[b = "x""]`,
	} {
		if p, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %v, want error", src, String(p))
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	queries := []string{
		".",
		"a/b/c",
		"//a//b",
		"(a | b)/c[d and e/f]",
		"a[b = \"x\" and not(c | d)]",
		"a[.[b] or c]",
		"∅ | a",
		"a/(b | c)//d",
		"*[*]",
		"text()",
		"a[@acc = \"1\"]",
		"a[b = $w]",
	}
	for _, src := range queries {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		out := String(p1)
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse of %q (printed from %q): %v", out, src, err)
		}
		if !Equal(p1, p2) {
			t.Errorf("round trip changed %q: printed %q, reparsed %q", src, out, String(p2))
		}
	}
}

// randPath generates a random path AST of bounded depth for the
// round-trip property test.
func randPath(r *rand.Rand, depth int) Path {
	names := []string{"a", "b", "c", "dept", "x-y.z"}
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Self{}
		case 1:
			return Wildcard{}
		case 2:
			return Label{Name: names[r.Intn(len(names))]}
		default:
			return Label{Name: TextName}
		}
	}
	switch r.Intn(6) {
	case 0:
		return Seq{Left: randPath(r, depth-1), Right: randPath(r, depth-1)}
	case 1:
		return Descend{Sub: randPath(r, depth-1)}
	case 2:
		return Union{Left: randPath(r, depth-1), Right: randPath(r, depth-1)}
	case 3:
		return Qualified{Sub: randPath(r, depth-1), Cond: randQual(r, depth-1)}
	default:
		return randPath(r, 0)
	}
}

func randQual(r *rand.Rand, depth int) Qual {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return QPath{Path: randPath(r, 0)}
		case 1:
			return QEq{Path: randPath(r, 0), Value: "v"}
		default:
			return QAttrEq{Name: "acc", Value: "1"}
		}
	}
	switch r.Intn(4) {
	case 0:
		return QAnd{Left: randQual(r, depth-1), Right: randQual(r, depth-1)}
	case 1:
		return QOr{Left: randQual(r, depth-1), Right: randQual(r, depth-1)}
	case 2:
		return QNot{Sub: randQual(r, depth-1)}
	default:
		return QPath{Path: randPath(r, depth-1)}
	}
}

// TestPrintParsePropery: for random ASTs, Parse(String(p)) == p.
// TestLiteralRoundTrip: every constant, whatever its bytes, prints to a
// literal that parses back to the same value.
func TestLiteralRoundTrip(t *testing.T) {
	for _, v := range []string{"", "7", `say "hi"`, "it's", `both ' and "`, `C:\dir`, "\x10", "\xa4", "\x00\n\t", "é", `""`} {
		for _, q := range []Qual{QEq{Path: L("b"), Value: v}, QAttrEq{Name: "id", Value: v}} {
			out := QualString(q)
			back, err := ParseQual(out)
			if err != nil {
				t.Errorf("value %q printed as %s does not reparse: %v", v, out, err)
				continue
			}
			if !QualEqual(q, back) {
				t.Errorf("value %q printed as %s reparsed as %s", v, out, QualString(back))
			}
		}
	}
	// Single quotes double the same way.
	q, err := ParseQual(`b = 'it''s'`)
	if err != nil || !QualEqual(q, QEq{Path: L("b"), Value: "it's"}) {
		t.Errorf("'it''s' parsed as %v, %v", q, err)
	}
}

func TestPrintParseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPath(r, 4)
		src := String(p)
		p2, err := Parse(src)
		if err != nil {
			t.Logf("seed %d: Parse(%q): %v", seed, src, err)
			return false
		}
		if !Equal(p, p2) {
			t.Logf("seed %d: %q reparsed as %q", seed, src, String(p2))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseQual(t *testing.T) {
	q, err := ParseQual("a and b = \"1\"")
	if err != nil {
		t.Fatalf("ParseQual: %v", err)
	}
	want := QAnd{Left: QPath{Path: Label{Name: "a"}}, Right: QEq{Path: Label{Name: "b"}, Value: "1"}}
	if !QualEqual(q, want) {
		t.Errorf("ParseQual = %s", QualString(q))
	}
	if _, err := ParseQual("a and"); err == nil {
		t.Errorf("ParseQual accepted dangling and")
	}
}

func TestKeywordNamesAreLabels(t *testing.T) {
	// Names that start with keywords must still parse as labels.
	p := MustParse("android/order")
	want := Seq{Left: Label{Name: "android"}, Right: Label{Name: "order"}}
	if !Equal(p, want) {
		t.Errorf("got %s", String(p))
	}
	// A qualifier path that starts with a keyword-named label prints in
	// parentheses and reparses as the label.
	for _, src := range []string{"(not)", "(true)/a", "(false) = \"1\"", "(not | a)/b and c"} {
		q := MustParseQual(src)
		if back, err := ParseQual(QualString(q)); err != nil || !QualEqual(q, back) {
			t.Errorf("%s printed as %s: reparse %v, %v", src, QualString(q), back, err)
		}
	}
	q := MustParseQual("android and order")
	wantQ := QAnd{Left: QPath{Path: Label{Name: "android"}}, Right: QPath{Path: Label{Name: "order"}}}
	if !QualEqual(q, wantQ) {
		t.Errorf("got %s", QualString(q))
	}
}

// TestParseDepthBound: Parse refuses an AST deeper than MaxQueryDepth
// with ErrQueryTooDeep, before recursing that deep, whether the depth
// comes from nesting or from a left-deep chain; the bound itself is
// accepted. The nested and chained inputs of 1,150,000 levels once
// overflowed the goroutine stack.
func TestParseDepthBound(t *testing.T) {
	const n = 1150000
	for name, q := range map[string]string{
		"nested":  strings.Repeat("a[", n) + "b" + strings.Repeat("]", n),
		"parens":  strings.Repeat("(", n) + "b" + strings.Repeat(")", n),
		"chained": strings.Repeat("a/", n) + "b",
		"descend": strings.Repeat("a//", n) + "b",
		"union":   strings.Repeat("a|", n) + "b",
		"or":      "a[" + strings.Repeat("b or ", n) + "c]",
		"not":     "a[" + strings.Repeat("not(", n) + "b" + strings.Repeat(")", n) + "]",
	} {
		_, err := Parse(q)
		var pe *ParseError
		if !errors.Is(err, ErrQueryTooDeep) || !errors.As(err, &pe) {
			t.Errorf("%s: Parse error %v, want a ParseError wrapping ErrQueryTooDeep", name, err)
		}
	}
	chain := func(k int) string { return strings.Repeat("a/", k-1) + "a" }
	if _, err := Parse(chain(MaxQueryDepth)); err != nil {
		t.Errorf("chain of height MaxQueryDepth rejected: %v", err)
	}
	if _, err := Parse(chain(MaxQueryDepth + 1)); !errors.Is(err, ErrQueryTooDeep) {
		t.Errorf("chain of height MaxQueryDepth+1: error %v", err)
	}
	if _, err := ParseQual(strings.Repeat("not(", n) + "b" + strings.Repeat(")", n)); !errors.Is(err, ErrQueryTooDeep) {
		t.Errorf("ParseQual: error %v, want ErrQueryTooDeep", err)
	}
}

// TestParseParenthesesLinear: a '(' inside a qualifier is parsed as a
// qualifier and, when a path continues after it, again as a path. The
// memo keeps that from doubling per nesting level; at 150 levels the
// unmemoized parser would need about 2^150 steps.
func TestParseParenthesesLinear(t *testing.T) {
	const k = 150
	for _, tc := range []struct {
		q     string
		valid bool
	}{
		{"x[" + strings.Repeat("(a[", k) + "b" + strings.Repeat("])/b", k) + "]", true},
		// Each level parses fully as a qualifier, then fails as a path.
		{"x[" + strings.Repeat("(a[", k) + "b" + strings.Repeat("] or c)/b", k) + "]", false},
	} {
		start := time.Now()
		p, err := Parse(tc.q)
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("Parse of %d nested parentheses took %v", k, elapsed)
		}
		if (err == nil) != tc.valid {
			t.Fatalf("Parse error %v, want valid=%v", err, tc.valid)
		}
		if err != nil {
			continue
		}
		if back, err := Parse(String(p)); err != nil || String(back) != String(p) {
			t.Errorf("round trip changed the query: %v", err)
		}
	}
}
