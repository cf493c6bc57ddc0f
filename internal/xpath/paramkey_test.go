package xpath

import (
	"fmt"
	"slices"
	"testing"
)

// churnLabels are the element types of the hospital nurse view.
var churnLabels = []string{
	"hospital", "dept", "patientInfo", "patient", "name", "wardNo", "treatment",
	"dummy1", "dummy2", "bill", "medication", "staffInfo", "staff", "doctor", "nurse",
}

// churnQueries is the serving benchmark's churn query space: //* and
// wildcard steps with and without qualifiers, label pairs, and the
// ward-specific qualifier forms of all 500 wards.
func churnQueries() []string {
	qs := []string{"//*"}
	for _, l := range churnLabels {
		qs = append(qs,
			"//*["+l+"]", "//*[not("+l+")]", "//*[.//"+l+"]",
			"//"+l+"//*", "//"+l+"/*", "//*/"+l)
	}
	for _, a := range churnLabels {
		for _, b := range churnLabels {
			qs = append(qs, "//"+a+"/"+b, "//"+a+"["+b+"]", "//"+a+"//"+b)
		}
	}
	for w := 1; w <= 500; w++ {
		for _, l := range []string{"name", "treatment", "wardNo"} {
			qs = append(qs, fmt.Sprintf(`//patient[wardNo = "%d"]/%s`, w, l))
		}
		qs = append(qs, fmt.Sprintf(`//dept[*/patient/wardNo = "%d"]//*`, w))
	}
	return qs
}

// paramSeeds hold several literals each: repeated and distinct
// constants, literals under unions, negation and parenthesized steps,
// next to $variables and attribute tests, which keep their values.
var paramSeeds = []string{
	`a[b = "1" and c = "2" and d = "1"]`,
	`(a[b = "x"] | c[d = "y"])/e[f = "x"]`,
	`a[not(b = "1") or (c = "2" and d = $w)]`,
	`//a[(b | c)/d = "q""q"]//e[@id = "1" and f = "1"]`,
	`((//a)[b = "1"])//c[. = "2"]`,
	`a[b = ""][c = ""]`,
}

// checkParameterizedString checks the one-pass key of src against
// printing the renamed query.
func checkParameterizedString(t *testing.T, src string) {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		return
	}
	shape, wantLits := Parameterize(p)
	want := String(shape)
	got, lits := AppendParameterized([]byte("key:"), p)
	if string(got) != "key:"+want || !slices.Equal(lits, wantLits) {
		t.Fatalf("AppendParameterized(%q) = %q %q, want String(Parameterize) = %q %q", src, got, lits, want, wantLits)
	}
}

// TestParameterizedStringMatchesParameterize: the plan-cache key printed
// in one walk equals String(Parameterize(p)), with the same literals in
// the same order, over the churn query space and the parser's seeds.
func TestParameterizedStringMatchesParameterize(t *testing.T) {
	for _, src := range slices.Concat(churnQueries(), parseSeeds, paramSeeds) {
		checkParameterizedString(t, src)
	}
}

// FuzzParameterizedString runs the same check on any accepted query.
func FuzzParameterizedString(f *testing.F) {
	for _, src := range slices.Concat(parseSeeds, paramSeeds) {
		f.Add(src)
	}
	f.Add(`//dept[*/patient/wardNo = "7"]//*`)
	f.Fuzz(checkParameterizedString)
}

// TestPrintAllocs: printing allocates only the returned text, however
// many parenthesized nodes the plan holds; the key printer, appending
// into a buffer with room, allocates only its literal list.
func TestPrintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled buffers; allocation counts are not exact")
	}
	p := MustParse(`(a | b)/(c | d)[(e | //f)/g = "1"]/(//h)/i`)
	String(p)
	if got := testing.AllocsPerRun(100, func() { String(p) }); got > 1 {
		t.Errorf("String allocates %.0f times per plan, want 1 (the text)", got)
	}
	key := make([]byte, 0, 256)
	if got := testing.AllocsPerRun(100, func() { AppendParameterized(key, p) }); got > 1 {
		t.Errorf("AppendParameterized allocates %.0f times per query, want 1 (the literals)", got)
	}
}
