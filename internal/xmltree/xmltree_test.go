package xmltree

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
)

func sampleDoc() *Document {
	return NewDocument(E("hospital",
		E("dept",
			E("patientInfo",
				E("patient", T("name", "Alice"), T("wardNo", "6")),
				E("patient", T("name", "Bob"), T("wardNo", "7")),
			),
		),
	))
}

func TestBuilderAndOrder(t *testing.T) {
	d := sampleDoc()
	if d.Root.Label != "hospital" {
		t.Fatalf("root label = %q", d.Root.Label)
	}
	var ords []int
	var labels []string
	d.Root.Walk(func(n *Node) bool {
		ords = append(ords, n.Ord())
		labels = append(labels, n.Label)
		return true
	})
	for i, o := range ords {
		if o != i {
			t.Fatalf("document order broken at %d: %v", i, ords)
		}
	}
	if labels[0] != "hospital" || labels[1] != "dept" {
		t.Errorf("walk order = %v", labels)
	}
	if d.Size() != len(ords) {
		t.Errorf("Size() = %d, walked %d", d.Size(), len(ords))
	}
}

func TestTextAndChildLabels(t *testing.T) {
	p := E("patient", T("name", "Alice"), T("wardNo", "6"))
	if got := p.Children[0].Text(); got != "Alice" {
		t.Errorf("Text() = %q", got)
	}
	if got := p.ChildLabels(); !reflect.DeepEqual(got, []string{"name", "wardNo"}) {
		t.Errorf("ChildLabels = %v", got)
	}
	if got := p.Children[0].Children[0].Text(); got != "Alice" {
		t.Errorf("text node Text() = %q", got)
	}
	if got := len(p.ElementChildren()); got != 2 {
		t.Errorf("ElementChildren = %d", got)
	}
}

func TestAncestor(t *testing.T) {
	d := sampleDoc()
	dept := d.Root.Children[0]
	patient := dept.Children[0].Children[0]
	if !d.Root.IsAncestorOf(patient) || !dept.IsAncestorOf(patient) {
		t.Errorf("ancestor check failed")
	}
	if patient.IsAncestorOf(dept) || patient.IsAncestorOf(patient) {
		t.Errorf("non-ancestor reported as ancestor")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := sampleDoc()
	cp := d.Root.Clone()
	cp.Children[0].Label = "changed"
	if d.Root.Children[0].Label != "dept" {
		t.Errorf("Clone shares children")
	}
	if cp.Parent != nil {
		t.Errorf("Clone has a parent")
	}
}

func TestParseSerializeRoundTrip(t *testing.T) {
	d := sampleDoc()
	out := d.XML()
	d2, err := ParseString(out)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if d2.XML() != out {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", out, d2.XML())
	}
	if d2.Size() != d.Size() {
		t.Errorf("sizes differ: %d vs %d", d2.Size(), d.Size())
	}
}

func TestParseAttributes(t *testing.T) {
	d, err := ParseString(`<a x="1"><b accessibility="0">hi &amp; bye</b></a>`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if v, ok := d.Root.Attr("x"); !ok || v != "1" {
		t.Errorf("attr x = %q, %v", v, ok)
	}
	b := d.Root.Children[0]
	if v, _ := b.Attr("accessibility"); v != "0" {
		t.Errorf("attr accessibility = %q", v)
	}
	if got := b.Text(); got != "hi & bye" {
		t.Errorf("Text() = %q", got)
	}
}

// TestTextSingleChildAllocFree: the string value of an element with
// one text child, the shape every [p = "c"] qualifier compares, is that
// child's data, returned without building a new string.
func TestTextSingleChildAllocFree(t *testing.T) {
	d, err := ParseString(`<wardNo>17</wardNo>`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	var got string
	allocs := testing.AllocsPerRun(100, func() { got = d.Root.Text() })
	if got != "17" {
		t.Fatalf("Text() = %q, want 17", got)
	}
	if allocs != 0 {
		t.Errorf("Text() allocates %v times per call, want 0", allocs)
	}
	if got := E("empty").Text(); got != "" {
		t.Errorf("Text() of an element without text children = %q", got)
	}
}

// TestTextMixedContent: mixed content concatenates every text child in
// order and skips the element children between them.
func TestTextMixedContent(t *testing.T) {
	d, err := ParseString(`<p>one <b>bold</b> two <i/>three</p>`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if got := d.Root.Text(); got != "one  two three" {
		t.Errorf("Text() = %q, want %q", got, "one  two three")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"<a></a><b></b>",
		"text only",
		"<a><b></a></b>",
	} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestHeightAndStats(t *testing.T) {
	d := sampleDoc()
	// hospital/dept/patientInfo/patient/name/#text = 5 edges.
	if got := d.Height(); got != 5 {
		t.Errorf("Height() = %d, want 5", got)
	}
	s := d.ComputeStats()
	if s.Nodes != d.Size() {
		t.Errorf("stats nodes = %d, size = %d", s.Nodes, d.Size())
	}
	if s.Labels["patient"] != 2 || s.Labels["name"] != 2 {
		t.Errorf("label counts = %v", s.Labels)
	}
	if s.TextNodes != 4 {
		t.Errorf("text nodes = %d, want 4", s.TextNodes)
	}
	if s.Elements+s.TextNodes != s.Nodes {
		t.Errorf("stats do not add up: %+v", s)
	}
}

func TestSortDocOrder(t *testing.T) {
	d := sampleDoc()
	var all []*Node
	d.Root.Walk(func(n *Node) bool { all = append(all, n); return true })
	shuffled := []*Node{all[5], all[1], all[5], all[0], all[3], all[1]}
	got := SortDocOrder(shuffled)
	if len(got) != 4 {
		t.Fatalf("SortDocOrder kept %d nodes, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Ord() >= got[i].Ord() {
			t.Errorf("not sorted at %d", i)
		}
	}
}

func TestWalkPrune(t *testing.T) {
	d := sampleDoc()
	var visited []string
	d.Root.Walk(func(n *Node) bool {
		visited = append(visited, n.Label)
		return n.Label != "patientInfo"
	})
	if !reflect.DeepEqual(visited, []string{"hospital", "dept", "patientInfo"}) {
		t.Errorf("pruned walk = %v", visited)
	}
}

func TestPath(t *testing.T) {
	d := sampleDoc()
	patient := d.Root.Children[0].Children[0].Children[0]
	if got := patient.Path(); got != "/hospital/dept/patientInfo/patient" {
		t.Errorf("Path() = %q", got)
	}
}

const miniDTD = `
root hospital
hospital -> dept*
dept -> patientInfo
patientInfo -> patient*
patient -> name, wardNo
name -> #PCDATA
wardNo -> #PCDATA
`

func TestValidate(t *testing.T) {
	d := dtd.MustParse(miniDTD)
	doc := sampleDoc()
	if err := Validate(doc, d); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if !Conforms(doc, d) {
		t.Errorf("Conforms = false")
	}
	// Wrong root.
	bad := NewDocument(E("dept"))
	if err := Validate(bad, d); err == nil {
		t.Errorf("wrong root accepted")
	}
	// Missing required child.
	bad = NewDocument(E("hospital", E("dept", E("patientInfo", E("patient", T("name", "x"))))))
	if err := Validate(bad, d); err == nil {
		t.Errorf("missing wardNo accepted")
	}
	// Undeclared element.
	bad = NewDocument(E("hospital", E("oops")))
	if err := Validate(bad, d); err == nil {
		t.Errorf("undeclared element accepted")
	}
	// Text where elements are required.
	bad = NewDocument(E("hospital", T("dept", "text")))
	if err := Validate(bad, d); err == nil {
		t.Errorf("stray text accepted")
	}
}

func TestAttrBuilder(t *testing.T) {
	n := A(E("patient"), "accessibility", "1", "id", "p1")
	if v, _ := n.Attr("accessibility"); v != "1" {
		t.Errorf("accessibility = %q", v)
	}
	if v, _ := n.Attr("id"); v != "p1" {
		t.Errorf("id = %q", v)
	}
}

func TestSerializeEscaping(t *testing.T) {
	d := NewDocument(T("a", "x < y & z"))
	out := d.XML()
	if strings.Contains(out, "x < y") {
		t.Errorf("unescaped text in %q", out)
	}
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if got := back.Root.Text(); got != "x < y & z" {
		t.Errorf("Text() after round trip = %q", got)
	}
}

// TestSerializeRoundTripReservedChars: every character XML reserves,
// in text and in attribute values, survives parse → String → parse, and
// the serialized form is itself well-formed XML.
func TestSerializeRoundTripReservedChars(t *testing.T) {
	const reserved = `a&b "q" 'p' <c> d`
	src := `<r x="a&amp;b &quot;q&quot; &apos;p&apos; &lt;c&gt; d" y='"'>` +
		`<t z="&lt;&amp;&gt;">a&amp;b "q" 'p' &lt;c&gt; d</t></r>`
	first, err := ParseString(src)
	if err != nil {
		t.Fatalf("parse source: %v", err)
	}
	out := first.XML()
	back, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse of serialized form: %v\n%s", err, out)
	}
	if v, _ := back.Root.Attr("x"); v != reserved {
		t.Errorf("attribute x = %q, want %q", v, reserved)
	}
	if v, _ := back.Root.Attr("y"); v != `"` {
		t.Errorf("attribute y = %q, want %q", v, `"`)
	}
	tt := back.Root.Children[0]
	if v, _ := tt.Attr("z"); v != "<&>" {
		t.Errorf("attribute z = %q, want %q", v, "<&>")
	}
	if got := tt.Text(); got != reserved {
		t.Errorf("text = %q, want %q", got, reserved)
	}
	if again := back.XML(); again != out {
		t.Errorf("second round trip changed the bytes:\n%s\nvs\n%s", again, out)
	}
}

// TestDocOrderProperty checks with random trees that Renumber assigns
// strictly increasing positions in a pre-order walk.
func TestDocOrderProperty(t *testing.T) {
	gen := func(shape []byte) bool {
		root := NewElement("r")
		cur := root
		for _, b := range shape {
			n := NewElement("n")
			switch b % 3 {
			case 0: // child
				cur.AppendChild(n)
				cur = n
			case 1: // sibling
				if cur.Parent != nil {
					cur.Parent.AppendChild(n)
					cur = n
				} else {
					cur.AppendChild(n)
				}
			case 2: // pop
				if cur.Parent != nil {
					cur = cur.Parent
				}
			}
		}
		doc := NewDocument(root)
		prev := -1
		ok := true
		doc.Root.Walk(func(n *Node) bool {
			if n.Ord() != prev+1 {
				ok = false
			}
			prev = n.Ord()
			return true
		})
		return ok && doc.Size() == prev+1
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
