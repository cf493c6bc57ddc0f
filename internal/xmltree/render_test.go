package xmltree_test

import (
	"strings"
	"testing"

	"repro/internal/dtds"
	"repro/internal/xmltree"
)

// renderCases are hand-built trees for the shapes the writer treats
// specially: reserved characters in text and attribute values (quotes
// included), mixed content, empty elements and a single text child.
func renderCases() map[string]*xmltree.Node {
	E, T, Txt, A := xmltree.E, xmltree.T, xmltree.Txt, xmltree.A
	attrs := A(E("r", T("t", `a&b "q" 'p' <c> d`), A(E("e"), "k", "")),
		"x", `a&b "q" 'p' <c> d`, "b", `"`, "a", "<&>")
	return map[string]*xmltree.Node{
		"reserved text":     T("a", "x < y & z > w ]]> \"q\" 'p'"),
		"reserved attrs":    attrs,
		"mixed":             E("p", Txt("one "), T("b", "bold"), Txt(" two "), E("i"), Txt("three")),
		"empty":             E("a"),
		"empty children":    E("a", E("b"), E("c", E("d"))),
		"single text":       T("a", "only"),
		"text only kids":    E("a", Txt("x"), Txt("y")),
		"deep":              E("a", E("b", E("c", E("d", T("e", "leaf"))))),
		"unicode and space": T("a", "  é\tü \U0001F600\n  "),
	}
}

// TestAppendXMLMatchesOracle: AppendXML writes the same bytes as the
// reference writer (OracleXML) on every subtree of the generated
// documents (hospital, fig7, adex, forum, random recursive) and of the
// hand-built cases, and appends after what dst already holds.
func TestAppendXMLMatchesOracle(t *testing.T) {
	docs := generated()
	docs["hospital-large"] = dtds.GenerateHospital(4, 6)
	for name, root := range renderCases() {
		docs[name] = xmltree.NewDocument(root)
	}
	for name, doc := range docs {
		for _, n := range doc.Nodes() {
			want := xmltree.OracleXML(n)
			if got := string(n.AppendXML(nil)); got != want {
				t.Fatalf("%s: node %d (%s): AppendXML differs from the oracle:\n%s\nvs\n%s", name, n.Ord(), n.Label, got, want)
			}
			if got := n.String(); got != want {
				t.Fatalf("%s: node %d: String differs from the oracle", name, n.Ord())
			}
		}
		if got, want := string(doc.Root.AppendXML([]byte("prefix"))), "prefix"+xmltree.OracleXML(doc.Root); got != want {
			t.Fatalf("%s: AppendXML does not append to dst", name)
		}
		var b strings.Builder
		if err := doc.Serialize(&b); err != nil || b.String() != doc.XML() || doc.XML() != xmltree.OracleXML(doc.Root) {
			t.Fatalf("%s: Serialize/XML differ from the oracle (err %v)", name, err)
		}
	}
}

// TestAppendXMLGrowsOnce: rendering into a buffer with room allocates
// nothing for an element-only tree, however large.
func TestAppendXMLGrowsOnce(t *testing.T) {
	kids := make([]*xmltree.Node, 1000)
	for i := range kids {
		kids[i] = xmltree.E("k", xmltree.E("leaf"))
	}
	root := xmltree.E("r", kids...)
	buf := make([]byte, 0, len(root.AppendXML(nil)))
	if a := testing.AllocsPerRun(5, func() { buf = root.AppendXML(buf[:0]) }); a != 0 {
		t.Errorf("AppendXML into a large enough buffer: %v allocs, want 0", a)
	}
}

// sameReload reports how reload, the document loaded back from the
// rendering of orig, differs from it; "" if it does not. The writer
// indents children of mixed content onto their own lines, so text is
// compared exactly only where it is an element's single child, and
// otherwise with whitespace removed. Attribute values compare exactly.
func sameReload(orig, reload *xmltree.Node) string {
	if orig.Kind != reload.Kind || orig.Label != reload.Label || len(orig.Attrs) != len(reload.Attrs) {
		return "node " + orig.Path() + " differs"
	}
	for k, v := range orig.Attrs {
		if w, ok := reload.Attr(k); !ok || w != v {
			return "attribute " + k + " of " + orig.Path() + " differs"
		}
	}
	if orig.Kind == xmltree.TextNode {
		if reload.Data != orig.Data {
			return "text of " + orig.Path() + " differs"
		}
		return ""
	}
	if len(orig.Children) == 1 && orig.Children[0].Kind == xmltree.TextNode {
		if len(reload.Children) != 1 {
			return "single text child of " + orig.Path() + " differs"
		}
		return sameReload(orig.Children[0], reload.Children[0])
	}
	oe, re := orig.ElementChildren(), reload.ElementChildren()
	if len(oe) != len(re) {
		return "element children of " + orig.Path() + " differ"
	}
	if squeeze(directText(orig)) != squeeze(directText(reload)) {
		return "mixed text of " + orig.Path() + " differs"
	}
	for i := range oe {
		if d := sameReload(oe[i], re[i]); d != "" {
			return d
		}
	}
	return ""
}

func directText(n *xmltree.Node) string {
	var b strings.Builder
	for _, c := range n.Children {
		if c.Kind == xmltree.TextNode {
			b.WriteString(c.Data)
		}
	}
	return b.String()
}

func squeeze(s string) string { return strings.Join(strings.Fields(s), "") }
