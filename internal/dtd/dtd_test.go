package dtd

import (
	"reflect"
	"strings"
	"testing"
)

const hospitalSrc = `
# The hospital DTD of the paper's Fig. 1 (simplified leaf productions).
root hospital
hospital -> dept*
dept -> clinicalTrial, patientInfo, staffInfo
clinicalTrial -> patientInfo
patientInfo -> patient*
patient -> name, wardNo, treatment
treatment -> trial + regular
trial -> bill
regular -> bill, medication
staffInfo -> staff*
staff -> doctor + nurse
doctor -> name
nurse -> name
name -> #PCDATA
wardNo -> #PCDATA
bill -> #PCDATA
medication -> #PCDATA
`

func mustHospital(t *testing.T) *DTD {
	t.Helper()
	d, err := Parse(hospitalSrc)
	if err != nil {
		t.Fatalf("Parse(hospital): %v", err)
	}
	return d
}

func TestParseHospital(t *testing.T) {
	d := mustHospital(t)
	if d.Root() != "hospital" {
		t.Errorf("Root() = %q, want hospital", d.Root())
	}
	if got := d.Len(); got != 16 {
		t.Errorf("Len() = %d, want 16", got)
	}
	c, ok := d.Production("dept")
	if !ok || c.Kind != Seq || len(c.Items) != 3 {
		t.Fatalf("Production(dept) = %v, %v", c, ok)
	}
	if c.Items[0].Name != "clinicalTrial" || c.Items[2].Name != "staffInfo" {
		t.Errorf("dept items = %v", c.Items)
	}
	if c, _ := d.Production("treatment"); c.Kind != Choice {
		t.Errorf("treatment kind = %v, want choice", c.Kind)
	}
	if c, _ := d.Production("hospital"); c.Kind != Star || c.Items[0].Name != "dept" {
		t.Errorf("hospital production = %v", c)
	}
	if c, _ := d.Production("name"); c.Kind != Text {
		t.Errorf("name kind = %v, want text", c.Kind)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no root", "a -> b\nb -> EMPTY\n"},
		{"mixed connectors", "root a\na -> b, c + d\nb -> EMPTY\nc -> EMPTY\nd -> EMPTY\n"},
		{"undeclared type", "root a\na -> b\n"},
		{"duplicate production", "root a\na -> EMPTY\na -> EMPTY\n"},
		{"missing arrow", "root a\na EMPTY\n"},
		{"undeclared root", "root a\nb -> EMPTY\n"},
		{"empty position", "root a\na -> b,,c\nb -> EMPTY\nc -> EMPTY\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	d := mustHospital(t)
	d2, err := Parse(d.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if d2.String() != d.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", d.String(), d2.String())
	}
}

func TestComments(t *testing.T) {
	d, err := Parse("root a # the root\na -> #PCDATA # text content\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c, _ := d.Production("a"); c.Kind != Text {
		t.Errorf("a kind = %v, want text", c.Kind)
	}
}

func TestGraphQueries(t *testing.T) {
	d := mustHospital(t)
	if got := d.Children("dept"); !reflect.DeepEqual(got, []string{"clinicalTrial", "patientInfo", "staffInfo"}) {
		t.Errorf("Children(dept) = %v", got)
	}
	if !d.HasChild("treatment", "trial") || d.HasChild("treatment", "bill") {
		t.Errorf("HasChild wrong for treatment")
	}
	reach := d.Reachable("treatment")
	for _, want := range []string{"treatment", "trial", "regular", "bill", "medication"} {
		if !reach[want] {
			t.Errorf("Reachable(treatment) missing %s", want)
		}
	}
	if reach["patient"] || len(reach) != 5 {
		t.Errorf("Reachable(treatment) = %v", reach)
	}
}

func TestRecursion(t *testing.T) {
	d := mustHospital(t)
	if d.IsRecursive() {
		t.Errorf("hospital DTD reported recursive")
	}
	// Fig. 7(b): a -> b, c; c -> a* (recursive through c).
	rec := MustParse(`
root a
a -> b, c
b -> #PCDATA
c -> a*
`)
	if !rec.IsRecursive() {
		t.Fatalf("recursive DTD not detected")
	}
	types := rec.RecursiveTypes()
	if !types["a"] || !types["c"] || types["b"] {
		t.Errorf("RecursiveTypes = %v", types)
	}
	if _, err := rec.TopoOrder(); err == nil {
		t.Errorf("TopoOrder on recursive DTD succeeded")
	}
	// Self loop.
	self := MustParse("root a\na -> a*\n")
	if !self.RecursiveTypes()["a"] {
		t.Errorf("self-loop not detected")
	}
}

func TestTopoOrder(t *testing.T) {
	d := mustHospital(t)
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[string]int)
	for i, n := range order {
		pos[n] = i
	}
	if len(order) != d.Len() {
		t.Fatalf("TopoOrder has %d types, want %d", len(order), d.Len())
	}
	for _, a := range d.Types() {
		for _, b := range d.Children(a) {
			if pos[a] >= pos[b] {
				t.Errorf("topological order violated: %s (%d) before %s (%d)", a, pos[a], b, pos[b])
			}
		}
	}
}

func TestClone(t *testing.T) {
	d := mustHospital(t)
	cp := d.Clone()
	cp.SetProduction("extra", EmptyContent())
	cp.SetProduction("dept", StarContent("extra"))
	if d.Has("extra") {
		t.Errorf("Clone shares production map")
	}
	if c, _ := d.Production("dept"); c.Kind != Seq {
		t.Errorf("Clone shares content")
	}
}

func TestSize(t *testing.T) {
	d := MustParse("root a\na -> b, c\nb -> EMPTY\nc -> d*\nd -> #PCDATA\n")
	// 4 productions + positions: a has 2, c has 1.
	if got := d.Size(); got != 7 {
		t.Errorf("Size() = %d, want 7", got)
	}
}

func TestIsStrictNormalForm(t *testing.T) {
	if !mustHospital(t).IsStrictNormalForm() {
		t.Errorf("hospital DTD not strict normal form")
	}
	v := MustParse("root a\na -> b*, c\nb -> EMPTY\nc -> EMPTY\n")
	if v.IsStrictNormalForm() {
		t.Errorf("starred sequence item reported strict")
	}
}

func TestMatchContent(t *testing.T) {
	d := mustHospital(t)
	cases := []struct {
		typ    string
		labels []string
		want   bool
	}{
		{"hospital", nil, true},
		{"hospital", []string{"dept"}, true},
		{"hospital", []string{"dept", "dept", "dept"}, true},
		{"hospital", []string{"dept", "staff"}, false},
		{"dept", []string{"clinicalTrial", "patientInfo", "staffInfo"}, true},
		{"dept", []string{"patientInfo", "staffInfo"}, false},
		{"dept", []string{"clinicalTrial", "patientInfo", "staffInfo", "staffInfo"}, false},
		{"treatment", []string{"trial"}, true},
		{"treatment", []string{"regular"}, true},
		{"treatment", []string{"trial", "regular"}, false},
		{"treatment", nil, false},
		{"name", []string{TextLabel}, true},
		{"name", nil, false},
		{"name", []string{"dept"}, false},
	}
	for _, tc := range cases {
		c, ok := d.Production(tc.typ)
		if !ok {
			t.Fatalf("missing production %s", tc.typ)
		}
		if got := c.MatchContent(tc.labels); got != tc.want {
			t.Errorf("MatchContent(%s, %v) = %v, want %v", tc.typ, tc.labels, got, tc.want)
		}
	}
}

func TestMatchContentViewForm(t *testing.T) {
	// View compact form: dept -> patientInfo*, staffInfo.
	c := Content{Kind: Seq, Items: []Item{{Name: "patientInfo", Starred: true}, {Name: "staffInfo"}}}
	cases := []struct {
		labels []string
		want   bool
	}{
		{[]string{"staffInfo"}, true},
		{[]string{"patientInfo", "staffInfo"}, true},
		{[]string{"patientInfo", "patientInfo", "staffInfo"}, true},
		{[]string{"patientInfo"}, false},
		{[]string{"staffInfo", "patientInfo"}, false},
	}
	for _, tc := range cases {
		if got := c.MatchContent(tc.labels); got != tc.want {
			t.Errorf("MatchContent(%v) = %v, want %v", tc.labels, got, tc.want)
		}
	}
}

func TestRegexDerivatives(t *testing.T) {
	// (a | b)+ , c?
	r := RSeq{Parts: []Regex{RPlus{Sub: RAlt{Alts: []Regex{RName{"a"}, RName{"b"}}}}, ROpt{Sub: RName{"c"}}}}
	cases := []struct {
		labels []string
		want   bool
	}{
		{[]string{"a"}, true},
		{[]string{"b", "a", "b"}, true},
		{[]string{"a", "c"}, true},
		{[]string{"c"}, false},
		{nil, false},
		{[]string{"a", "c", "c"}, false},
	}
	for _, tc := range cases {
		if got := MatchLabels(r, tc.labels); got != tc.want {
			t.Errorf("MatchLabels(%v) = %v, want %v", tc.labels, got, tc.want)
		}
	}
}

func TestParseElementSyntax(t *testing.T) {
	src := `
<!-- root: catalog -->
<!ELEMENT catalog (product+)>
<!ELEMENT product (name, price?, (new | used))>
<!ELEMENT name (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT new EMPTY>
<!ELEMENT used EMPTY>
`
	d, err := ParseElementSyntax(src)
	if err != nil {
		t.Fatalf("ParseElementSyntax: %v", err)
	}
	if d.Root() != "catalog" {
		t.Errorf("Root = %q", d.Root())
	}
	if err := d.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}
	if !d.IsStrictNormalForm() {
		t.Errorf("normalized DTD not in strict normal form")
	}
	// catalog: product+ normalizes to (product, _gN) with _gN -> product*.
	c := d.MustProduction("catalog")
	if c.Kind != Seq || len(c.Items) != 2 || c.Items[0].Name != "product" {
		t.Fatalf("catalog production = %v", c)
	}
	star := d.MustProduction(c.Items[1].Name)
	if star.Kind != Star || star.Items[0].Name != "product" {
		t.Errorf("synthetic star production = %v", star)
	}
	// product: (name, price?, (new|used)): price? becomes synthetic choice.
	pc := d.MustProduction("product")
	if pc.Kind != Seq || len(pc.Items) != 3 || pc.Items[0].Name != "name" {
		t.Fatalf("product production = %v", pc)
	}
	opt := d.MustProduction(pc.Items[1].Name)
	if opt.Kind != Choice || len(opt.Items) != 2 || opt.Items[0].Name != "price" {
		t.Errorf("optional production = %v", opt)
	}
	grp := d.MustProduction(pc.Items[2].Name)
	if grp.Kind != Choice || len(grp.Items) != 2 {
		t.Errorf("group production = %v", grp)
	}
}

func TestParseElementSyntaxErrors(t *testing.T) {
	cases := []string{
		"",
		"<!ELEMENT a ANY>",
		"<!ELEMENT a (b,c|d)>",
		"<!ELEMENT a (b>",
		"<!ELEMENT a (b,c)> <!ELEMENT a EMPTY>",
		"<!ELEMENT a (b)>",
	}
	for _, src := range cases {
		if _, err := ParseElementSyntax(src); err == nil {
			t.Errorf("ParseElementSyntax(%q) succeeded, want error", src)
		}
	}
}

func TestRemoveProduction(t *testing.T) {
	d := MustParse("root a\na -> b*\nb -> EMPTY\n")
	d.RemoveProduction("b")
	if d.Has("b") {
		t.Errorf("b still declared")
	}
	if err := d.Check(); err == nil {
		t.Errorf("Check passed with dangling reference")
	}
	if got := len(d.Types()); got != 1 {
		t.Errorf("Types() has %d entries, want 1", got)
	}
}

func TestContentString(t *testing.T) {
	cases := []struct {
		c    Content
		want string
	}{
		{EmptyContent(), "EMPTY"},
		{TextContent(), "#PCDATA"},
		{StarContent("a"), "a*"},
		{SeqContent("a", "b"), "a, b"},
		{ChoiceContent("a", "b"), "a + b"},
		{Content{Kind: Seq, Items: []Item{{Name: "a", Starred: true}, {Name: "b"}}}, "a*, b"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	d := mustHospital(t)
	s := d.String()
	if !strings.HasPrefix(s, "root hospital\n") {
		t.Errorf("String missing root line: %q", s)
	}
	if !strings.Contains(s, "treatment -> trial + regular") {
		t.Errorf("String missing choice production: %q", s)
	}
}
