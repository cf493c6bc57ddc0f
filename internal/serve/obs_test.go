package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// metrics is one /metricsz scrape, parsed by obs.ParseSamples (the
// exposition validator's own parser), so every value a test reads has
// passed the validator.
type metrics struct {
	t       *testing.T
	text    string
	samples []obs.Sample
}

// scrape reads and parses /metricsz.
func scrape(t *testing.T, h http.Handler) metrics {
	t.Helper()
	w := get(t, h, "/metricsz")
	if w.Code != http.StatusOK {
		t.Fatalf("metricsz status = %d", w.Code)
	}
	samples, err := obs.ParseSamples(strings.NewReader(w.Body.String()))
	if err != nil {
		t.Fatalf("/metricsz fails validation: %v\n%s", err, w.Body.String())
	}
	return metrics{t: t, text: w.Body.String(), samples: samples}
}

// value returns the sample named name whose label set is exactly
// labels, as a count; a missing sample fails the test.
func (m metrics) value(name string, labels ...obs.Label) uint64 {
	m.t.Helper()
	return uint64(m.float(name, labels...))
}

// float is value for a sample that is not a count (a histogram _sum).
func (m metrics) float(name string, labels ...obs.Label) float64 {
	m.t.Helper()
	for _, sm := range m.samples {
		if sm.Name != name || len(sm.Labels) != len(labels) {
			continue
		}
		match := true
		for _, l := range labels {
			if v, ok := sm.Labels[l.Name]; !ok || v != l.Value {
				match = false
			}
		}
		if match {
			return sm.Value
		}
	}
	m.t.Fatalf("sample %s%v not found in /metricsz:\n%s", name, labels, m.text)
	return 0
}

// sum adds the samples named name over every label set (0 if none).
func (m metrics) sum(name string) uint64 {
	var n uint64
	for _, sm := range m.samples {
		if sm.Name == name {
			n += uint64(sm.Value)
		}
	}
	return n
}

// TestMetricszExposition: /metricsz passes the independent format
// validator, and the pipeline invariant holds — every phase histogram's
// count equals sv_pipeline_total equals the OK-response count, with the
// plan-cache split summing to the same total.
func TestMetricszExposition(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	const n = 5
	for i := 0; i < n; i++ {
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name")); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
	}
	// A failed request must not contribute a pipeline observation.
	get(t, h, "/query?class=nurse")

	if ct := get(t, h, "/metricsz").Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	m := scrape(t, h)
	if got := m.value("sv_requests_total"); got != n+1 {
		t.Errorf("sv_requests_total = %d, want %d", got, n+1)
	}
	if got := m.value("sv_responses_total", obs.L("code", "200")); got != n {
		t.Errorf("ok responses = %d, want %d", got, n)
	}
	pipeline := m.value("sv_pipeline_total")
	if pipeline != n {
		t.Errorf("sv_pipeline_total = %d, want %d", pipeline, n)
	}
	for _, phase := range phaseNames {
		if got := m.value("sv_phase_duration_seconds_count", obs.L("phase", phase)); got != pipeline {
			t.Errorf("phase %s count = %d, want pipeline count %d", phase, got, pipeline)
		}
	}
	hits := m.value("sv_plan_cache_total", obs.L("result", "hit"))
	misses := m.value("sv_plan_cache_total", obs.L("result", "miss"))
	if hits+misses != pipeline {
		t.Errorf("plan cache hit+miss = %d+%d, want pipeline count %d", hits, misses, pipeline)
	}
	if misses != 1 {
		t.Errorf("plan-cache misses = %d, want 1 (one distinct query)", misses)
	}
	// Every pipeline runs the evaluator.
	if got := m.value("sv_class_evals_total", obs.L("class", "nurse")); got != pipeline {
		t.Errorf("class evals = %d, want pipeline count %d", got, pipeline)
	}
	if got := m.value("sv_request_duration_seconds_count"); got != n {
		t.Errorf("request histogram count = %d, want %d (admitted requests only)", got, n)
	}
}

// TestMetricszReadOrder: WriteText reads families in registration
// order, so every effect family must come before the families counted
// earlier in a request (its causes); otherwise a mid-flight scrape can
// show an effect whose cause it has not read yet.
func TestMetricszReadOrder(t *testing.T) {
	text := scrape(t, newTestServer(t, Config{}, 3).Handler()).text
	pos := func(family string) int {
		i := strings.Index(text, "# TYPE "+family+" ")
		if i < 0 {
			t.Fatalf("family %s not in /metricsz", family)
		}
		return i
	}
	for _, c := range []struct{ effect, cause string }{
		{"sv_responses_total", "sv_requests_total"},
		{"sv_request_duration_seconds", "sv_requests_total"},
		{"sv_phase_duration_seconds", "sv_pipeline_total"},
		{"sv_plan_cache_total", "sv_pipeline_total"},
		{"sv_qstats_observations_total", "sv_pipeline_total"},
		{"sv_pipeline_total", "sv_class_evals_total"},
	} {
		if pos(c.effect) > pos(c.cause) {
			t.Errorf("%s is read after its cause %s", c.effect, c.cause)
		}
	}
}

// TestStatszPipelineSection: /metricsz carries the pipeline accounting
// the removed /statsz pipeline section had: the count, the plan-cache
// split, a phase digest per phase with the pipeline's count, and the
// class's evals.
func TestStatszPipelineSection(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//staff/name")); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
	}
	m := scrape(t, h)
	if n := m.value("sv_pipeline_total"); n != 3 {
		t.Fatalf("pipeline count = %d, want 3", n)
	}
	hits, misses := m.value("sv_plan_cache_total", obs.L("result", "hit")), m.value("sv_plan_cache_total", obs.L("result", "miss"))
	if hits != 2 || misses != 1 {
		t.Errorf("plan cache = %d hits / %d misses, want 2/1", hits, misses)
	}
	if evals := m.value("sv_class_evals_total", obs.L("class", "nurse")); evals != 3 {
		t.Errorf("class evals = %d, want 3", evals)
	}
	for _, phase := range phaseNames {
		if n := m.value("sv_phase_duration_seconds_count", obs.L("phase", phase)); n != 3 {
			t.Errorf("phase %q count = %d, want 3", phase, n)
		}
	}
	for _, phase := range []string{"eval", "serialize"} {
		if m.float("sv_phase_duration_seconds_sum", obs.L("phase", phase)) == 0 {
			t.Errorf("%s phase sum is zero across 3 queries", phase)
		}
	}
}

// TestExplainzEndpoint: the JSON document carries the engine explain
// (fresh nonzero phase timings, intermediate queries) plus the record of
// this exact request, with the same phase times; malformed requests map
// to 400.
func TestExplainzEndpoint(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	// Warm the plan cache first: the explain must still re-time phases.
	get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))

	w := get(t, h, "/explainz?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))
	if w.Code != http.StatusOK {
		t.Fatalf("explainz status = %d, body %q", w.Code, w.Body.String())
	}
	var resp struct {
		Explain *core.Explain `json:"explain"`
		Record  event         `json:"record"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("explainz does not decode: %v\n%s", err, w.Body.String())
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("explainz missing explain section")
	}
	if ex.RewriteNs <= 0 || ex.OptimizeNs <= 0 || ex.EvalNs <= 0 {
		t.Errorf("phase durations not all positive: %+v", ex)
	}
	if ex.Rewritten == "" || ex.Optimized == "" || ex.NodesVisited == 0 {
		t.Errorf("explain fields missing: %+v", ex)
	}
	if !ex.PlanWasCached {
		t.Error("explain after a warm /query does not report the cached plan")
	}
	rec := resp.Record
	if rec.Kind != "explain" || rec.Status != http.StatusOK || rec.RequestID == 0 || rec.Class != "nurse" || rec.TimeUnixUs == 0 {
		t.Errorf("record identity: %+v", rec)
	}
	if rec.Params["wardNo"] != "1" || rec.Query != "//patient/name" || rec.Fingerprint == "" {
		t.Errorf("record request: %+v", rec)
	}
	if rec.RewriteUs != ex.RewriteNs/1e3 || rec.OptimizeUs != ex.OptimizeNs/1e3 || rec.EvalUs != ex.EvalNs/1e3 {
		t.Errorf("record phases %d/%d/%d µs, explain %d/%d/%d ns",
			rec.RewriteUs, rec.OptimizeUs, rec.EvalUs, ex.RewriteNs, ex.OptimizeNs, ex.EvalNs)
	}
	if rec.TotalUs < rec.RewriteUs+rec.OptimizeUs+rec.EvalUs || rec.PlanCacheHit != ex.PlanWasCached || rec.NodesVisited != ex.NodesVisited || rec.ResultCount != ex.ResultCount {
		t.Errorf("record outcome: %+v", rec)
	}
	if ex.MemoCells == 0 {
		t.Error("explain reports no rewriter memo cells")
	}

	if w := get(t, h, "/explainz?class=nurse"); w.Code != http.StatusBadRequest {
		t.Errorf("missing q: status = %d, want 400", w.Code)
	}
	if w := get(t, h, "/explainz?class=ghost&q=//name"); w.Code != http.StatusBadRequest {
		t.Errorf("unknown class: status = %d, want 400", w.Code)
	}
	// The missing-q request fails validation before admission; the ghost
	// class is admitted and fails in the registry — both 400, but only
	// the admitted one counts as an explain.
	m := scrape(t, h)
	if n := m.value("sv_explains_total"); n != 2 {
		t.Errorf("sv_explains_total = %d, want 2 (the admitted explains)", n)
	}
	// /explainz must not perturb the /query pipeline accounting.
	if n := m.value("sv_pipeline_total"); n != 1 {
		t.Errorf("pipeline count = %d after explain, want 1", n)
	}
}

// TestHealthzDrainTransition: /healthz answers 200 until BeginDrain,
// 503 after — the signal load balancers use to stop routing here.
func TestHealthzDrainTransition(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	h := s.Handler()
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("pre-drain healthz = %d", w.Code)
	}
	s.BeginDrain()
	w := get(t, h, "/healthz")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Errorf("post-drain healthz = %d %q, want 503 draining", w.Code, w.Body.String())
	}
	if scrape(t, h).value("sv_draining") != 1 {
		t.Error("sv_draining does not report the drain")
	}
	// Queries already in the building keep working during the drain —
	// only the health signal flips.
	if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//name")); w.Code != http.StatusOK {
		t.Errorf("query during drain = %d", w.Code)
	}
	s.BeginDrain() // idempotent
	if w := get(t, h, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz after second BeginDrain = %d", w.Code)
	}
}

// TestStatsUnderConcurrentLoad hammers the server from many goroutines
// while scraping /metricsz mid-flight: every scrape must hold the cause
// of each effect it shows (responses never exceed requests; phase
// counts, plan-cache outcomes and /queryz observations never exceed the
// pipeline count, which never exceeds the class evals; every histogram's
// buckets sum to its count), and totals must be exact once the load
// stops. The race detector covers the memory model; this covers the
// accounting.
func TestStatsUnderConcurrentLoad(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	targets := []string{
		"/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//patient/name"),
		"/query?class=nurse&param=wardNo=2&q=" + url.QueryEscape("//dept//bill"),
		"/query?class=nurse&param=wardNo=3&q=" + url.QueryEscape("//staff/name"),
		"/query?class=nurse", // 400, never admitted
	}
	const workers, perWorker = 8, 30
	var sent atomic.Uint64
	stop := make(chan struct{})

	// Scraper racing the writers. It reports with Errorf only: Fatal
	// must not run off the test goroutine.
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			text := get(t, h, "/metricsz").Body.String()
			// ParseSamples validates the scrape, which includes each
			// histogram's _count equalling its +Inf bucket.
			samples, err := obs.ParseSamples(strings.NewReader(text))
			if err != nil {
				t.Errorf("mid-flight /metricsz invalid: %v", err)
				return
			}
			m := metrics{t: t, text: text, samples: samples}
			requests, pipeline := m.sum("sv_requests_total"), m.sum("sv_pipeline_total")
			if responses := m.sum("sv_responses_total"); responses > requests {
				t.Errorf("mid-flight responses %d exceed requests %d", responses, requests)
			}
			if n := m.sum("sv_request_duration_seconds_count"); n > requests {
				t.Errorf("mid-flight request histogram count %d exceeds requests %d", n, requests)
			}
			for _, sm := range samples {
				if sm.Name == "sv_phase_duration_seconds_count" && uint64(sm.Value) > pipeline {
					t.Errorf("mid-flight phase %q count %v exceeds pipeline %d", sm.Labels["phase"], sm.Value, pipeline)
				}
			}
			if n := m.sum("sv_plan_cache_total"); n > pipeline {
				t.Errorf("mid-flight plan-cache hits+misses %d exceed pipeline %d", n, pipeline)
			}
			if n := m.sum("sv_qstats_observations_total"); n > pipeline {
				t.Errorf("mid-flight qstats observations %d exceed pipeline %d", n, pipeline)
			}
			if evals := m.sum("sv_class_evals_total"); pipeline > evals {
				t.Errorf("mid-flight pipeline %d exceeds class evals %d", pipeline, evals)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sent.Add(1)
				get(t, h, targets[(g+i)%len(targets)])
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	m := scrape(t, h)
	requests := m.value("sv_requests_total")
	if requests != sent.Load() {
		t.Errorf("requests = %d, sent %d", requests, sent.Load())
	}
	if got := m.sum("sv_responses_total"); got != requests {
		t.Errorf("response classes sum to %d, requests %d", got, requests)
	}
	code := func(c string) uint64 { return m.value("sv_responses_total", obs.L("code", c)) }
	pipeline := m.value("sv_pipeline_total")
	if ok := code("200"); pipeline != ok {
		t.Errorf("pipeline count %d != ok %d", pipeline, ok)
	}
	for _, phase := range phaseNames {
		if n := m.value("sv_phase_duration_seconds_count", obs.L("phase", phase)); n != pipeline {
			t.Errorf("phase %s count %d, pipeline %d", phase, n, pipeline)
		}
	}
	if n := m.sum("sv_plan_cache_total"); n != pipeline {
		t.Errorf("plan-cache hits+misses %d, pipeline %d", n, pipeline)
	}
	if n := m.value("sv_qstats_observations_total"); n != pipeline {
		t.Errorf("qstats observations %d, pipeline %d", n, pipeline)
	}
	if admitted := code("200") + code("504") + code("500") + code("499"); m.value("sv_request_duration_seconds_count") != admitted {
		t.Errorf("latency count %d, admitted %d", m.value("sv_request_duration_seconds_count"), admitted)
	}
	if n := m.value("sv_in_flight"); n != 0 {
		t.Errorf("in-flight = %d after load", n)
	}
}

// TestResponseAccountingSumsToRequests: sv_responses_total counts
// /query outcomes only, so it sums to the /query request count. /query answers 200, 400 and 413 here, mixed
// with /queryz and /explainz errors, which count in neither.
func TestResponseAccountingSumsToRequests(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	h := s.Handler()
	q := "/query?class=nurse&param=wardNo=1&q="
	for _, c := range []struct {
		target string
		code   int
	}{
		{q + url.QueryEscape("//patient/name"), http.StatusOK},
		{"/queryz?n=abc", http.StatusBadRequest},
		{"/query?class=nurse", http.StatusBadRequest},
		{"/queryz?sort=bogus", http.StatusBadRequest},
		{"/explainz?class=nurse", http.StatusBadRequest},
		{"/explainz?class=ghost&q=//name", http.StatusBadRequest},
		{q + url.QueryEscape("//"+strings.Repeat("x", MaxQueryBytes)), http.StatusRequestEntityTooLarge},
		{"/explainz?class=nurse&q=" + url.QueryEscape("//"+strings.Repeat("x", MaxQueryBytes)), http.StatusRequestEntityTooLarge},
		{q + url.QueryEscape("//["), http.StatusBadRequest},
		{q + url.QueryEscape("//name"), http.StatusOK},
	} {
		if w := get(t, h, c.target); w.Code != c.code {
			t.Fatalf("%.80s: status %d, want %d", c.target, w.Code, c.code)
		}
	}
	m := scrape(t, h)
	requests := m.value("sv_requests_total")
	ok, bad, tooLarge := m.value("sv_responses_total", obs.L("code", "200")), m.value("sv_responses_total", obs.L("code", "400")), m.value("sv_responses_total", obs.L("code", "413"))
	if requests != 5 || ok != 2 || bad != 2 || tooLarge != 1 {
		t.Errorf("requests %d, ok %d, bad %d, too large %d; want 5, 2, 2, 1", requests, ok, bad, tooLarge)
	}
	var responses uint64
	for _, code := range []string{"200", "400", "413", "429", "499", "500", "504"} {
		responses += m.value("sv_responses_total", obs.L("code", code))
	}
	if responses != requests {
		t.Errorf("sv_responses_total sums to %d, sv_requests_total %d", responses, requests)
	}
}

// TestSlowQueryLog: queries at or above the threshold are counted and
// written to the event log as "slow" records with their per-phase
// breakdown; without an event log they are only counted, and a negative
// threshold disables the classification.
func TestSlowQueryLog(t *testing.T) {
	// Threshold 1ns: everything is slow.
	s, events := eventLogServer(t, Config{SlowQueryThreshold: time.Nanosecond}, 4)
	if w := get(t, s.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name")); w.Code != http.StatusOK {
		t.Fatalf("query status = %d", w.Code)
	}
	got := events()
	if len(got) != 1 {
		t.Fatalf("events = %d, want 1: %+v", len(got), got)
	}
	ev := got[0]
	if ev.Kind != "slow" || ev.Status != http.StatusOK || ev.Class != "nurse" || ev.NodesVisited == 0 {
		t.Errorf("slow event: %+v", ev)
	}
	if ev.ResultCount == 0 || ev.TotalUs < ev.RewriteUs+ev.OptimizeUs+ev.EvalUs+ev.SerializeUs {
		t.Errorf("slow event phases: %+v", ev)
	}
	if n := scrape(t, s.Handler()).value("sv_slow_queries_total"); n != 1 {
		t.Errorf("sv_slow_queries_total = %d, want 1", n)
	}

	// Without an event log a slow query is only counted.
	quiet := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond}, 4)
	get(t, quiet.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))
	if n := scrape(t, quiet.Handler()).value("sv_slow_queries_total"); n != 1 {
		t.Errorf("sv_slow_queries_total without an event log = %d, want 1", n)
	}

	// Negative threshold disables slow classification entirely.
	s2, events2 := eventLogServer(t, Config{SlowQueryThreshold: -1}, 4)
	get(t, s2.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))
	if got := events2(); len(got) != 0 {
		t.Errorf("disabled threshold wrote %d events", len(got))
	}
	if n := scrape(t, s2.Handler()).value("sv_slow_queries_total"); n != 0 {
		t.Errorf("disabled threshold counted %d slow queries", n)
	}
}

// TestPprofEndpoint: the profiler index is wired into the handler.
func TestPprofEndpoint(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	w := get(t, s.Handler(), "/debug/pprof/")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "goroutine") {
		t.Errorf("pprof index: %d %.80q", w.Code, w.Body.String())
	}
}

// BenchmarkMetricsScrape renders /metricsz with the class's plan cache
// full: 512 cached plans (the default capacity) from distinct
// //a/b and //a//b query shapes over the hospital labels.
func BenchmarkMetricsScrape(b *testing.B) {
	s := newTestServer(b, Config{}, 3)
	h := s.Handler()
	labels := []string{"hospital", "dept", "clinicalTrial", "patientInfo", "patient", "name", "wardNo", "treatment",
		"trial", "regular", "bill", "medication", "staffInfo", "staff", "doctor", "nurse"}
	for _, sep := range []string{"/", "//"} {
		for _, a := range labels {
			for _, c := range labels {
				q := "//" + a + sep + c
				if w := get(b, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(q)); w.Code != http.StatusOK {
					b.Fatalf("%s: status %d", q, w.Code)
				}
			}
		}
	}
	w := &discardWriter{h: http.Header{}}
	r := httptest.NewRequest("GET", "/metricsz", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, r)
	}
}
