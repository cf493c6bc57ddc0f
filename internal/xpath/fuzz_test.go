package xpath

import "testing"

// FuzzParse checks that any accepted query round-trips through the
// printer and never panics. Run the seed corpus with go test, or fuzz
// with go test -fuzz=FuzzParse ./internal/xpath.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		out := String(p)
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("printed form %q of %q does not reparse: %v", out, src, err)
		}
		if !Equal(p, p2) {
			t.Fatalf("round trip changed %q: printed %q reparsed %q", src, out, String(p2))
		}
	})
}

// parseSeeds is FuzzParse's seed corpus.
var parseSeeds = []string{
	".",
	"a/b/c",
	"//dept//patientInfo/patient/name",
	"(a | b)/c[d and e]",
	`a[b = "6" or not(c)]`,
	"a[b = $w]",
	`x[@accessibility = "1"]`,
	"text()",
	"∅ | a",
	"a[.[b] and c/d]",
	"((//a)//b)[c]",
	"a[@id]",
	`a[@id and not(@ssn)]`,
	"a[",
	"]]]",
	"a//",
	"not(a)",
	"a | | b",
	"𝛆/weird-unicode",
	"0[0=\"\x10\"]",
	`a[b = 'say "hi"']`,
}

// FuzzParseQual does the same for bare qualifiers.
func FuzzParseQual(f *testing.F) {
	for _, seed := range []string{
		"a",
		"a and b",
		`a = "1" or not(b/c)`,
		"not(not(a))",
		"@x = 'v'",
		"true() and false()",
		"a and",
		"0=\"\xa4\"",
		`a = "x""y"`,
		"(not)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQual(src)
		if err != nil {
			return
		}
		out := QualString(q)
		q2, err := ParseQual(out)
		if err != nil {
			t.Fatalf("printed qualifier %q of %q does not reparse: %v", out, src, err)
		}
		if !QualEqual(q, q2) {
			t.Fatalf("round trip changed %q: printed %q", src, out)
		}
	})
}
