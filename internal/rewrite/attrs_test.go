package rewrite

import (
	"testing"

	"repro/internal/access"
	"repro/internal/dtd"
	"repro/internal/secview"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// attrFixture mirrors the secview attribute fixture: patient attributes
// id (required), ssn (denied), insurer.
func attrFixture(t *testing.T) (*secview.View, *xmltree.Document) {
	t.Helper()
	d := dtd.MustParse(`
root clinic
clinic -> patient*
patient -> name, record
name -> #PCDATA
record -> #PCDATA
attlist patient id!, ssn, insurer
attlist record code
`)
	s := access.MustParseAnnotations(d, "ann(patient, @ssn) = N\n")
	v, err := secview.Derive(s)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	a := xmltree.A
	doc := xmltree.NewDocument(xmltree.E("clinic",
		a(xmltree.E("patient", xmltree.T("name", "Alice"), a(xmltree.T("record", "flu"), "code", "J11")),
			"id", "p1", "ssn", "123-45-6789", "insurer", "Acme"),
		a(xmltree.E("patient", xmltree.T("name", "Bob"), xmltree.T("record", "ok")),
			"id", "p2"),
	))
	if err := xmltree.Validate(doc, d); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return v, doc
}

func TestRewriteAttrQualifiers(t *testing.T) {
	v, doc := attrFixture(t)
	r, err := ForView(v)
	if err != nil {
		t.Fatalf("ForView: %v", err)
	}
	// Visible attribute: qualifier passes through and selects correctly.
	pt, err := r.Rewrite(xpath.MustParse(`patient[@id = "p2"]/name`))
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	res := xpath.EvalDoc(pt, doc)
	if len(res) != 1 || res[0].Text() != "Bob" {
		t.Errorf("visible attr qualifier: %d results", len(res))
	}
	// Presence test.
	pt, err = r.Rewrite(xpath.MustParse(`patient[@insurer]/name`))
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	res = xpath.EvalDoc(pt, doc)
	if len(res) != 1 || res[0].Text() != "Alice" {
		t.Errorf("presence qualifier: %v", len(res))
	}
	// Hidden attribute: probing it yields nothing, even though the
	// document node carries it.
	pt, err = r.Rewrite(xpath.MustParse(`patient[@ssn]/name`))
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if !xpath.IsEmpty(pt) {
		t.Errorf("hidden attr qualifier = %s", xpath.String(pt))
	}
	// Negated hidden attribute: ¬false = true, everyone matches — users
	// cannot distinguish "hidden" from "absent".
	pt, err = r.Rewrite(xpath.MustParse(`patient[not(@ssn)]/name`))
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	res = xpath.EvalDoc(pt, doc)
	if len(res) != 2 {
		t.Errorf("negated hidden attr: %d results, want 2", len(res))
	}
}

// TestRewriteAttrEquivalence pins p(T_v) = p_t(T) for attribute
// qualifiers.
func TestRewriteAttrEquivalence(t *testing.T) {
	v, doc := attrFixture(t)
	for _, q := range []string{
		`patient[@id = "p1"]`,
		"patient[@insurer]/record",
		"patient[@ssn]",
		"patient[not(@ssn)]",
		`//record[@code = "J11"]`,
	} {
		checkRewrite(t, v, doc, q)
	}
}
