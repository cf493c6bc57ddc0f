package main

import (
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"

	"repro/internal/access"
	"repro/internal/dtds"
	"repro/internal/secview"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// writeResult renders an answer the way /query does: the nodes'
// subtrees inside a <result count="n"> envelope.
func writeResult(b *strings.Builder, nodes []*xmltree.Node) {
	b.WriteString(`<result count="`)
	b.WriteString(strconv.Itoa(len(nodes)))
	b.WriteString("\">\n")
	for _, n := range nodes {
		b.WriteString(n.String())
	}
	b.WriteString("</result>\n")
}

// verifier computes the answer the paper defines for a view query,
// p(T_v): the query evaluated over the materialized view of the
// binding, mapped back to document nodes and serialized in document
// order. By the paper's guarantee it equals the served answer p_t(T).
type verifier struct {
	p     *plan
	doc   *xmltree.Document
	spec  *access.Spec
	views map[int32]*secview.Materialized
}

func newVerifier(p *plan, doc *xmltree.Document) (*verifier, error) {
	spec, err := access.ParseAnnotations(dtds.Hospital(), nurseAnnotations)
	if err != nil {
		return nil, err
	}
	return &verifier{p: p, doc: doc, spec: spec, views: map[int32]*secview.Materialized{}}, nil
}

// view materializes T_v for one ward binding, once.
func (v *verifier) view(ward int32) (*secview.Materialized, error) {
	if m, ok := v.views[ward]; ok {
		return m, nil
	}
	bound, err := v.spec.Bind(map[string]string{"wardNo": v.p.wards[ward]})
	if err != nil {
		return nil, err
	}
	view, err := secview.Derive(bound)
	if err != nil {
		return nil, err
	}
	m, err := secview.Materialize(view, v.doc)
	if err != nil {
		return nil, err
	}
	v.views[ward] = m
	return m, nil
}

// expected returns the reference body of one request.
func (v *verifier) expected(r pair) (string, error) {
	m, err := v.view(r.ward)
	if err != nil {
		return "", err
	}
	q, err := xpath.Parse(v.p.queries[r.query])
	if err != nil {
		return "", err
	}
	viewNodes := xpath.EvalDoc(q, m.View)
	nodes := make([]*xmltree.Node, len(viewNodes))
	for i, n := range viewNodes {
		nodes[i] = m.DocOf[n]
	}
	var b strings.Builder
	writeResult(&b, xmltree.SortDocOrder(nodes))
	return b.String(), nil
}

// check compares every recorded answer with its reference body and
// returns how many answers differ.
func (v *verifier) check(t *tally) (mismatches int, err error) {
	for r, hashes := range t.answers {
		want, err := v.expected(r)
		if err != nil {
			return 0, fmt.Errorf("reference answer for %s: %w", v.p.describe(r), err)
		}
		wh := maphash.String(hashSeed, want)
		for h, n := range hashes {
			if h != wh {
				mismatches += n
			}
		}
	}
	return mismatches, nil
}
