package secview

import (
	"strings"
	"testing"

	"repro/internal/xpath"
)

// Disposition is the disposition Report prints for one document type.
// Accessibility is context-sensitive, so a type exposed in the view may
// additionally have been short-cut in hidden contexts; the dominant
// (most visible) disposition is reported.
func (v *View) Disposition(t string) TypeDisposition {
	dummyByHidden := make(map[string]string, len(v.DummyOf))
	for x, hidden := range v.DummyOf {
		dummyByHidden[hidden] = x
	}
	mentioned := make(map[string]bool)
	for _, p := range v.sigma {
		for _, l := range xpath.Labels(p) {
			mentioned[l] = true
		}
	}
	return v.dispositionOf(t, v.Doc.Reachable(v.Doc.Root()), dummyByHidden, mentioned)
}

func TestReportDispositions(t *testing.T) {
	v := nurseView(t, "6")
	cases := map[string]TypeDisposition{
		"hospital":      Exposed,
		"dept":          Exposed,
		"patientInfo":   Exposed,
		"staffInfo":     Exposed,
		"bill":          Exposed,
		"clinicalTrial": ShortCut,
		"trial":         Renamed,
		"regular":       Renamed,
	}
	for typ, want := range cases {
		if got := v.Disposition(typ); got != want {
			t.Errorf("Disposition(%s) = %s, want %s", typ, got, want)
		}
	}
	report := v.Report()
	for _, want := range []string{
		"trial                renamed as dummy1",
		"regular              renamed as dummy2",
		"clinicalTrial        short-cut",
		"hospital             exposed",
		"view DTD:",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("Report missing %q:\n%s", want, report)
		}
	}
}

func TestReportPrunedAndUnreachable(t *testing.T) {
	v := deriveFixture(t, `
root r
r -> a, b
a -> secret
secret -> #PCDATA
b -> #PCDATA
orphan -> #PCDATA
`, "ann(r, a) = N\n")
	if got := v.Disposition("a"); got != Pruned {
		t.Errorf("Disposition(a) = %s, want pruned", got)
	}
	if got := v.Disposition("secret"); got != Pruned {
		t.Errorf("Disposition(secret) = %s, want pruned", got)
	}
	if got := v.Disposition("orphan"); got != Unreachable {
		t.Errorf("Disposition(orphan) = %s, want unreachable", got)
	}
	if got := v.Disposition("b"); got != Exposed {
		t.Errorf("Disposition(b) = %s, want exposed", got)
	}
}

func TestReportShortCutChain(t *testing.T) {
	v := deriveFixture(t, `
root r
r -> a
a -> b
b -> c
c -> #PCDATA
`, "ann(r, a) = N\nann(b, c) = Y\n")
	// a and b are on the σ access path r -> c (a/b/c): both short-cut.
	if got := v.Disposition("a"); got != ShortCut {
		t.Errorf("Disposition(a) = %s", got)
	}
	if got := v.Disposition("b"); got != ShortCut {
		t.Errorf("Disposition(b) = %s", got)
	}
	if got := v.Disposition("c"); got != Exposed {
		t.Errorf("Disposition(c) = %s", got)
	}
}
