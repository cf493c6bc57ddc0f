package xmltree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
)

const streamDTD = `
root hospital
hospital -> dept*
dept -> patientInfo
patientInfo -> patient*
patient -> name, wardNo
name -> #PCDATA
wardNo -> #PCDATA
`

// TestValidateStream: validating an XML stream, by loading it and then
// calling Validate, gives the expected verdict on each input.
func TestValidateStream(t *testing.T) {
	d := dtd.MustParse(streamDTD)
	cases := []struct {
		name string
		xml  string
		ok   bool
	}{
		{"valid", `<hospital><dept><patientInfo><patient><name>A</name><wardNo>1</wardNo></patient></patientInfo></dept></hospital>`, true},
		{"empty star", `<hospital></hospital>`, true},
		{"wrong root", `<dept></dept>`, false},
		{"missing child", `<hospital><dept><patientInfo><patient><name>A</name></patient></patientInfo></dept></hospital>`, false},
		{"wrong order", `<hospital><dept><patientInfo><patient><wardNo>1</wardNo><name>A</name></patient></patientInfo></dept></hospital>`, false},
		{"undeclared element", `<hospital><oops/></hospital>`, false},
		{"text where elements", `<hospital>text</hospital>`, false},
		{"extra child", `<hospital><dept><patientInfo/><patientInfo/></dept></hospital>`, false},
		{"missing text", `<hospital><dept><patientInfo><patient><name></name><wardNo>1</wardNo></patient></patientInfo></dept></hospital>`, false},
		{"not xml", `<hospital>`, false},
		{"empty input", ``, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := ParseString(tc.xml)
			if err == nil {
				err = Validate(doc, d)
			}
			if (err == nil) != tc.ok {
				t.Errorf("ParseString then Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestValidateStreamAgreesWithTree: on randomly mutated documents,
// Validate gives the reference validator's verdict and message, both on
// the mutated tree and on the tree its serialization loads back into.
func TestValidateStreamAgreesWithTree(t *testing.T) {
	d := dtd.MustParse(streamDTD)
	base := MustParseString(`<hospital><dept><patientInfo><patient><name>A</name><wardNo>1</wardNo></patient><patient><name>B</name><wardNo>2</wardNo></patient></patientInfo></dept><dept><patientInfo/></dept></hospital>`)
	agree := func(doc *Document) bool {
		got, want := Validate(doc, d), ValidateRef(doc, d)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Logf("Validate = %v, reference = %v for\n%s", got, want, doc.XML())
			return false
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := NewDocument(base.Root.Clone())
		mutate(r, doc)
		if !agree(doc) {
			return false
		}
		reloaded, err := ParseString(doc.XML())
		return err == nil && agree(reloaded)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestValidateViewForms: Validate accepts and rejects the compact view
// forms (starred items in sequences and choices) exactly as the
// reference validator does.
func TestValidateViewForms(t *testing.T) {
	d := dtd.New("r")
	d.SetProduction("r", dtd.Content{Kind: dtd.Star, Items: []dtd.Item{{Name: "x"}}})
	d.SetProduction("x", dtd.Content{Kind: dtd.Choice, Items: []dtd.Item{{Name: "s"}, {Name: "c"}, {Name: "a", Starred: true}}})
	d.SetProduction("s", dtd.Content{Kind: dtd.Seq, Items: []dtd.Item{{Name: "a", Starred: true}, {Name: "a"}, {Name: "b", Starred: true}}})
	d.SetProduction("c", dtd.Content{Kind: dtd.Choice, Items: []dtd.Item{{Name: "a"}, {Name: "b"}}})
	d.SetProduction("a", dtd.EmptyContent())
	d.SetProduction("b", dtd.TextContent())
	for _, src := range []string{
		`<r/>`,
		`<r><x/></r>`,
		`<r><x><a/><a/></x></r>`,
		`<r><x><a/><b>t</b></x></r>`,
		`<r><x><s/></x></r>`,
		`<r><x><s><a/></s></x></r>`,
		`<r><x><s><a/><a/><a/><b>t</b><b>u</b></s></x></r>`,
		`<r><x><s><b>t</b></s></x></r>`,
		`<r><x><s><a/><b>t</b><a/></s></x></r>`,
		`<r><x><c/></x></r>`,
		`<r><x><c><a/></c></x></r>`,
		`<r><x><c><a/><b>t</b></c></x></r>`,
		`<r><x><c><b/></c></x></r>`,
		`<r><x><c><b>t<!---->u</b></c></x></r>`,
		`<r><x><c><a>t</a></c></x></r>`,
	} {
		doc := MustParseString(src)
		got, want := Validate(doc, d), ValidateRef(doc, d)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Errorf("%s: Validate = %v, reference = %v", src, got, want)
		}
	}
}

// mutate applies a random structural edit.
func mutate(r *rand.Rand, doc *Document) {
	var nodes []*Node
	doc.Root.Walk(func(n *Node) bool {
		if n.Kind == ElementNode {
			nodes = append(nodes, n)
		}
		return true
	})
	n := nodes[r.Intn(len(nodes))]
	switch r.Intn(4) {
	case 0: // drop a child
		if len(n.Children) > 0 {
			i := r.Intn(len(n.Children))
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
		}
	case 1: // duplicate a child
		if len(n.Children) > 0 {
			c := n.Children[r.Intn(len(n.Children))].Clone()
			c.Parent = n
			n.Children = append(n.Children, c)
		}
	case 2: // swap two children
		if len(n.Children) >= 2 {
			i, j := r.Intn(len(n.Children)), r.Intn(len(n.Children))
			n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
		}
	case 3: // relabel
		n.Label = []string{"dept", "patient", "name", "bogus"}[r.Intn(4)]
		if n.Parent == nil {
			n.Label = "hospital" // keep the root parseable scenario varied but valid-rooted sometimes
		}
	}
	doc.Renumber()
}
