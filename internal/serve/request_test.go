package serve

import (
	"net/http"
	"net/url"
	"testing"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/policy"
	"repro/internal/xmltree"
)

// wardDoc is a one-department hospital with one patient in each of
// wards 1 and 2.
const wardDoc = `<hospital><dept>
<clinicalTrial><patientInfo/></clinicalTrial>
<patientInfo>
<patient><name>ann</name><wardNo>1</wardNo><treatment><trial><bill>10</bill></trial></treatment></patient>
<patient><name>bob</name><wardNo>2</wardNo><treatment><trial><bill>20</bill></trial></treatment></patient>
</patientInfo>
<staffInfo/>
</dept></hospital>`

// newWardServer serves wardDoc under the unbound nurse policy, its class
// engine built with cfg.
func newWardServer(t testing.TB, cfg core.Config) http.Handler {
	t.Helper()
	spec := dtds.NurseSpec()
	reg := policy.NewRegistryWithConfig(spec.D, 0, cfg)
	if _, err := reg.DefineSpec("nurse", spec); err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(wardDoc)
	if err != nil {
		t.Fatal(err)
	}
	return New(reg, doc, Config{}).Handler()
}

// queryRequest is a GET /query built the way an in-process client
// builds it: no body, no parsing of the target.
func queryRequest(class, param, q string) *http.Request {
	return &http.Request{
		Method:     http.MethodGet,
		URL:        &url.URL{Path: "/query", RawQuery: "class=" + class + "&param=" + url.QueryEscape(param) + "&q=" + url.QueryEscape(q)},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
	}
}

// queryAllocBudget is what one plan-cache-hit /query request with a
// param and a literal qualifier may allocate, one text answer included:
// 22 measured, plus one (see DESIGN.md, "What a request allocates").
const queryAllocBudget = 23

// TestQueryAllocs holds a plan-cache-hit request to queryAllocBudget.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers, so allocation counts vary")
	}
	h := newWardServer(t, core.Config{})
	r := queryRequest("nurse", "wardNo=1", `//patient[wardNo = "1"]/name`)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, r)
	if w.bytes == 0 {
		t.Fatal("empty answer")
	}
	got := testing.AllocsPerRun(50, func() { h.ServeHTTP(w, r) })
	t.Logf("%.1f allocs per request", got)
	if got > queryAllocBudget {
		t.Errorf("a plan-cache-hit /query allocates %.1f times, over its budget of %d", got, queryAllocBudget)
	}
}

// BenchmarkServeQuery serves ward-specific churn queries through the
// handler: every request hits the plan cache (hit), or, with a
// one-entry plan cache and two alternating shapes, every request
// rewrites and optimizes its plan (miss).
func BenchmarkServeQuery(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  core.Config
	}{
		{"hit", core.Config{}},
		{"miss", core.Config{PlanCacheCapacity: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := newWardServer(b, bc.cfg)
			reqs := []*http.Request{
				queryRequest("nurse", "wardNo=1", `//patient[wardNo = "1"]/name`),
				queryRequest("nurse", "wardNo=2", `//dept[*/patient/wardNo = "2"]//*`),
			}
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, reqs[i%len(reqs)])
			}
		})
	}
}
