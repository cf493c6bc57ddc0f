package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Cross-binding isolation. One plan serves every binding of a class, so
// these tests check that no answer crosses from one ward, or one
// literal value, to another: each served body must equal the one built
// from the requester's own view instance T_v (secview.Materialize).

// isolationServer serves the nurse class over a document whose patients
// are in wards 6 and 7.
func isolationServer(t *testing.T) *Server {
	t.Helper()
	spec := dtds.NurseSpec()
	reg := policy.NewRegistry(spec.D)
	if _, err := reg.DefineSpec("nurse", spec); err != nil {
		t.Fatalf("DefineSpec: %v", err)
	}
	doc := xmlgen.Generate(spec.D, xmlgen.Config{
		Seed:      11,
		MinRepeat: 1,
		MaxRepeat: 4,
		Value: func(r *rand.Rand, label string) string {
			if label == "wardNo" {
				return fmt.Sprintf("%d", 6+r.Intn(2))
			}
			return fmt.Sprintf("%s-%d", label, r.Intn(1000))
		},
	})
	return New(reg, doc, Config{})
}

// viewBody is the oracle: the body /query must return for one ward,
// built from the ward's materialized view — the query runs over T_v and
// its answer maps back to document nodes.
func viewBody(t *testing.T, doc *xmltree.Document, ward, q string) (body string, count int) {
	t.Helper()
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": ward})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Materialize(doc)
	if err != nil {
		t.Fatalf("materialize ward %s: %v", ward, err)
	}
	var nodes []*xmltree.Node
	for _, v := range xpath.EvalDoc(xpath.MustParse(q), m.View) {
		nodes = append(nodes, m.DocOf[v])
	}
	nodes = xmltree.SortDocOrder(nodes)
	w := httptest.NewRecorder()
	writeResult(w, nodes)
	return w.Body.String(), len(nodes)
}

// isolationQueries: the same texts for both wards; literal-only
// variants of one shape; a base query before its qualified restriction.
var isolationQueries = []string{
	"//patient/name",
	`//patient[wardNo = "6"]/name`,
	`//patient[wardNo = "7"]/name`,
	"//patient",
	`//patient[not(wardNo = "6")]`,
	`//patient[not(wardNo = "7")]`,
	`//dept[.//wardNo = "7"]//bill`,
	`//dept[.//wardNo = "6"]//bill`,
}

// isolationShapes is the number of plan shapes among isolationQueries.
const isolationShapes = 5

func TestCrossBindingIsolation(t *testing.T) {
	s := isolationServer(t)
	h := s.Handler()
	nonEmpty, served := 0, 0
	// Two rounds, wards interleaved: the second round finds every plan
	// already cached, under the other ward's binding as well as its own.
	for round := 0; round < 2; round++ {
		for _, q := range isolationQueries {
			for _, ward := range []string{"6", "7"} {
				want, n := viewBody(t, s.doc, ward, q)
				w := get(t, h, "/query?class=nurse&param=wardNo="+ward+"&q="+url.QueryEscape(q))
				if w.Code != http.StatusOK {
					t.Fatalf("ward %s %q: status %d: %s", ward, q, w.Code, w.Body.String())
				}
				if got := w.Body.String(); got != want {
					t.Fatalf("round %d, ward %s, %q: served body differs from the ward's T_v answer\ngot  %.300q\nwant %.300q", round, ward, q, got, want)
				}
				served++
				if n > 0 {
					nonEmpty++
				}
			}
		}
	}
	if nonEmpty < served/2 {
		t.Fatalf("only %d of %d answers non-empty; the document does not exercise the wards", nonEmpty, served)
	}
	m := scrape(t, h)
	if n := m.value("sv_plan_cache_entries", obs.L("class", "nurse")); n != isolationShapes {
		t.Errorf("plan cache holds %d plans, want one per shape (%d)", n, isolationShapes)
	}
	// /queryz has one row per plan shape, and its counts still
	// reconcile with the pipeline total.
	qz := getQueryz(t, h, "/queryz?n=0")
	if len(qz.Top) != isolationShapes {
		t.Errorf("/queryz has %d rows, want one per shape (%d)", len(qz.Top), isolationShapes)
	}
	var total uint64
	for _, r := range qz.Top {
		total += r.Count
	}
	pipeline := m.value("sv_pipeline_total")
	if total != pipeline || pipeline != uint64(served) || qz.Registry.Observations != pipeline {
		t.Errorf("/queryz counts %d, observations %d, sv_pipeline_total %d, served %d", total, qz.Registry.Observations, pipeline, served)
	}
}

// TestLiteralVariantsShareOnePlan: two queries that differ only in a
// literal share one plan, yet each is answered for its own literal.
func TestLiteralVariantsShareOnePlan(t *testing.T) {
	s := isolationServer(t)
	h := s.Handler()
	for _, q := range []string{`//patient[wardNo = "6"]/name`, `//patient[wardNo = "7"]/name`, `//patient[wardNo = "6"]/name`} {
		want, _ := viewBody(t, s.doc, "6", q)
		w := get(t, h, "/query?class=nurse&param=wardNo=6&q="+url.QueryEscape(q))
		if w.Code != http.StatusOK || w.Body.String() != want {
			t.Fatalf("%q: status %d, body differs from the T_v answer\ngot  %.300q\nwant %.300q", q, w.Code, w.Body.String(), want)
		}
	}
	e := s.reg.Stats()[0].Engine
	if e.PlanCache.Entries != 1 || e.PlanCache.Hits != 2 || e.Evals != 3 {
		t.Errorf("plan cache %+v, %d evals: want one plan, hit twice, and every query evaluated", e.PlanCache, e.Evals)
	}
}

// TestExplainzShowsPlaceholders: /explainz prints the plan as the plan
// cache holds it — the query's literal as a placeholder, the class's
// $wardNo unbound — together with the environment that binds both.
func TestExplainzShowsPlaceholders(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	q := `//patient[wardNo = "2"]/name`
	w := get(t, s.Handler(), "/explainz?class=nurse&param=wardNo=1&q="+url.QueryEscape(q))
	if w.Code != http.StatusOK {
		t.Fatalf("explainz status = %d: %s", w.Code, w.Body.String())
	}
	var resp explainzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	ex := resp.Explain
	lit := "$" + xpath.LiteralVar(0)
	if !strings.Contains(ex.Optimized, lit) || !strings.Contains(ex.Optimized, "$wardNo") || strings.Contains(ex.Optimized, `"2"`) {
		t.Errorf("optimized plan %s: want placeholder %s and $wardNo, no literal", ex.Optimized, lit)
	}
	want := map[string]string{"wardNo": "1", xpath.LiteralVar(0): "2"}
	if !reflect.DeepEqual(ex.Env, want) {
		t.Errorf("explain env = %v, want %v", ex.Env, want)
	}
	if ex.Query != xpath.String(xpath.MustParse(q)) || ex.ResultCount == 0 {
		t.Errorf("explain query %q answered %d nodes", ex.Query, ex.ResultCount)
	}
}
