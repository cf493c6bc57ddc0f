package xmltree_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// row is one entry of a node table, in the form loaders are compared on.
type row struct {
	Kind        xmltree.NodeKind
	Label, Data string
	Attrs       string // name="value" pairs, sorted by name
	Parent      int    // the parent's ordinal, -1 for the root
	Ord, Desc   int
}

// table lists a document's nodes in document order.
func table(d *xmltree.Document) []row {
	rows := make([]row, 0, d.Size())
	for _, n := range d.Nodes() {
		r := row{Kind: n.Kind, Label: n.Label, Data: n.Data, Parent: -1, Ord: n.Ord(), Desc: n.DescendantCount()}
		if n.Parent != nil {
			r.Parent = n.Parent.Ord()
		}
		names := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			r.Attrs += fmt.Sprintf("%s=%q ", k, n.Attrs[k])
		}
		rows = append(rows, r)
	}
	return rows
}

// sameDocument reports the first difference between two documents'
// node tables, sizes, heights and label postings, or "".
func sameDocument(got, want *xmltree.Document) string {
	if got.Size() != want.Size() || got.Height() != want.Height() {
		return fmt.Sprintf("size/height %d/%d, want %d/%d", got.Size(), got.Height(), want.Size(), want.Height())
	}
	g, w := table(got), table(want)
	for i := range w {
		if g[i] != w[i] {
			return fmt.Sprintf("node %d is %+v, want %+v", i, g[i], w[i])
		}
	}
	seen := make(map[string]bool)
	for _, n := range want.Nodes() {
		if seen[n.Label] {
			continue
		}
		seen[n.Label] = true
		if !reflect.DeepEqual(got.Labeled(n.Label), want.Labeled(n.Label)) {
			return fmt.Sprintf("Labeled(%q) differs", n.Label)
		}
	}
	return ""
}

// generated returns one xmlgen document for every DTD in internal/dtds:
// hospital, fig7, adex, forum and three random recursive specs.
func generated() map[string]*xmltree.Document {
	docs := map[string]*xmltree.Document{
		"hospital": dtds.GenerateHospital(3, 3),
		"fig7":     xmlgen.Generate(dtds.Fig7(), xmlgen.Config{Seed: 7, MaxRepeat: 3, MaxNodes: 200}),
		"adex":     dtds.GenerateAdex(5, 3),
		"forum":    dtds.GenerateForum(2, 3, 4),
	}
	for seed := int64(1); seed <= 3; seed++ {
		d := dtds.RandomRecursiveDTD(rand.New(rand.NewSource(seed)), dtds.RecursiveGen{})
		docs[fmt.Sprintf("random-%d", seed)] = xmlgen.Generate(d, xmlgen.Config{Seed: seed, MaxNodes: 200})
	}
	return docs
}

// TestParseGeneratedRoundTrip: loading a generated document's
// serialization gives back its node table, height and label postings,
// and the same tree the reference loader builds.
func TestParseGeneratedRoundTrip(t *testing.T) {
	for name, doc := range generated() {
		src := doc.XML()
		got, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diff := sameDocument(got, doc); diff != "" {
			t.Errorf("%s: loaded document differs from the generated one: %s", name, diff)
		}
		want, err := xmltree.OracleParse(src)
		if err != nil {
			t.Fatalf("%s: reference loader: %v", name, err)
		}
		if diff := sameDocument(got, want); diff != "" {
			t.Errorf("%s: loaded document differs from the reference loader's: %s", name, diff)
		}
	}
}

// loaderCases are inputs both loaders must accept, with the same tree:
// every construct the loader reads, with its edge cases.
var loaderCases = []string{
	`<a/>`,
	`<a></a>`,
	`<a x="1"><b accessibility="0">hi &amp; bye</b></a>`,
	`<p>one <b>bold</b> two <i/>three</p>`,
	`<r x="a&amp;b &quot;q&quot; &apos;p&apos; &lt;c&gt; d" y='"'><t z="&lt;&amp;&gt;">a&amp;b "q" 'p' &lt;c&gt; d</t></r>`,
	"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!-- > --> <!ATTLIST a x CDATA '>'>]>\n<a>t</a>\n",
	"<?xml version='1.0' standalone='yes' ?><a/>",
	"<!-- lead --><?pi data?><a><?pi?>x<!-- c -->y</a><!-- trail -->\n",
	"<a>\r\nline\rtwo\r\n</a>",
	"<a x=\"1\r\n\t2\"/>",
	`<a>&#65;&#x42;&#x10FFFF;&#13;</a>`,
	`<a> &#32; </a>`,
	"<a> <b/>\u0085</a>",
	`<a><![CDATA[<not> &amp; markup]]]></a>`,
	`<a>x<![CDATA[]]>y<![CDATA[ ]]>z</a>`,
	`<a>]]&gt; ] ]] > </a>`,
	"<a   x = \"1\"\n y='2'\t/>",
	`<a x="1"y="2"/>`,
	`<a-b.c_d><_e/></a-b.c_d >`,
	`<a xmlns="urn:x"><b/></a>`,
	"<a>é ü \U0001F600 �</a>",
	"<a>" + strings.Repeat("<b>", 300) + "deep" + strings.Repeat("</b>", 300) + "</a>",
}

// TestParseMatchesOracle: on every loader case, the loader and the
// reference loader both accept and build the same tree.
func TestParseMatchesOracle(t *testing.T) {
	for _, src := range loaderCases {
		got, err := xmltree.ParseString(src)
		if err != nil {
			t.Errorf("ParseString(%q): %v", src, err)
			continue
		}
		want, err := xmltree.OracleParse(src)
		if err != nil {
			t.Errorf("OracleParse(%q): %v", src, err)
			continue
		}
		if diff := sameDocument(got, want); diff != "" {
			t.Errorf("ParseString(%q): %s", src, diff)
		}
	}
}

// TestParseRejects: inputs the loader rejects, each with the line its
// error names. The loader is stricter than encoding/xml on some of them
// (namespace prefixes, duplicate attributes, misplaced declarations).
func TestParseRejects(t *testing.T) {
	for _, tc := range []struct {
		src  string
		line int
	}{
		{"", 1},
		{"<a></a><b></b>", 1},
		{"text only", 1},
		{"<a><b></a></b>", 1},
		{"<a>\n<b>\n</c>\n</a>", 3},
		{"<a>\n\n&bogus;</a>", 3},
		{"<a>&#0;</a>", 1},
		{"<a>&#xD800;</a>", 1},
		{"<a>&#x110000;</a>", 1},
		{"<a>&amp</a>", 1},
		{"<a>\x01</a>", 1},
		{"<a>\xff</a>", 1},
		{"<a>]]></a>", 1},
		{"<a x=1/>", 1},
		{"<a x='<'/>", 1},
		{"<a x='1' x='2'/>", 1},
		{"<p:a/>", 1},
		{"<a p:x='1'/>", 1},
		{"<a/ >", 1},
		{"<a>\n<!-- a -- b -->\n</a>", 2},
		{"<a><!DOCTYPE a></a>", 1},
		{"<a/><?xml version='1.0'?>", 1},
		{"<?xml version='1.1'?><a/>", 1},
		{"<?xml version='1.0' encoding='latin1'?><a/>", 1},
		{"<a><![CDATA[x</a>", 1},
		{"<a>\n<b>", 2},
		{"</a>", 1},
		{"<a>x</a>y", 1},
	} {
		_, err := xmltree.ParseString(tc.src)
		if err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", tc.src)
			continue
		}
		if want := fmt.Sprintf("line %d:", tc.line); !strings.Contains(err.Error(), want) {
			t.Errorf("ParseString(%q) = %v, want an error naming %s", tc.src, err, want)
		}
	}
}

// FuzzParse holds the loader to encoding/xml (through OracleParse): it
// must reject every input the oracle rejects, and where both accept,
// build the same node table. It may reject more.
func FuzzParse(f *testing.F) {
	for _, src := range loaderCases {
		f.Add(src)
	}
	for _, doc := range generated() {
		f.Add(doc.XML())
	}
	for _, src := range []string{"", "<a></a><b></b>", "text only", "<a><b></a></b>", "<wardNo>17</wardNo>", "<a>\n<!-- -- -->"} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, err := xmltree.ParseString(src)
		want, oracleErr := xmltree.OracleParse(src)
		switch {
		case oracleErr != nil && err == nil:
			t.Fatalf("loader accepts what encoding/xml rejects (%v)", oracleErr)
		case err == nil:
			if diff := sameDocument(got, want); diff != "" {
				t.Fatalf("trees differ: %s", diff)
			}
		}
	})
}

// hospitalXML is a generated hospital document of about 10k nodes, the
// size of the serving benchmark's large document.
func hospitalXML() string {
	return xmlgen.Generate(dtds.Hospital(), xmlgen.Config{Seed: 1, MinRepeat: 20, MaxRepeat: 20}).XML()
}

// TestLoadAllocations: loading a 10k-node document allocates a fixed
// budget (arena chunks, child windows, growth of the scan's stacks and
// the text slab), not a few objects per node; validating it allocates
// per call and per element type, never per element.
func TestLoadAllocations(t *testing.T) {
	src := hospitalXML()
	doc := xmltree.MustParseString(src)
	if doc.Size() < 9000 {
		t.Fatalf("document has %d nodes, want about 10k", doc.Size())
	}
	if a := testing.AllocsPerRun(3, func() { xmltree.MustParseString(src) }); a >= 1000 {
		t.Errorf("loading %d nodes allocates %v times, want fewer than 1000", doc.Size(), a)
	}
	d := dtds.Hospital()
	if a := testing.AllocsPerRun(3, func() {
		if err := xmltree.Validate(doc, d); err != nil {
			t.Fatal(err)
		}
	}); a >= 64 {
		t.Errorf("validating %d nodes allocates %v times, want fewer than 64", doc.Size(), a)
	}
}

func BenchmarkParseDocument(b *testing.B) {
	src := hospitalXML()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	doc := xmltree.MustParseString(hospitalXML())
	d := dtds.Hospital()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := xmltree.Validate(doc, d); err != nil {
			b.Fatal(err)
		}
	}
}
