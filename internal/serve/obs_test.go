package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// metricValue extracts one sample value from a Prometheus exposition
// (the full sample name including any label set, e.g.
// `sv_phase_duration_seconds_count{phase="rewrite"}`).
func metricValue(t *testing.T, exposition, sample string) uint64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(sample) + " ([0-9]+)$")
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("sample %q not found in exposition:\n%s", sample, exposition)
	}
	var v uint64
	fmt.Sscanf(m[1], "%d", &v)
	return v
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

	w := get(t, h, "/metricsz")
	if w.Code != http.StatusOK {
		t.Fatalf("metricsz status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := w.Body.String()
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metricsz fails validation: %v\n%s", err, body)
	}

	if got := metricValue(t, body, "sv_requests_total"); got != n+1 {
		t.Errorf("sv_requests_total = %d, want %d", got, n+1)
	}
	if got := metricValue(t, body, `sv_responses_total{code="200"}`); got != n {
		t.Errorf("ok responses = %d, want %d", got, n)
	}
	pipeline := metricValue(t, body, "sv_pipeline_total")
	if pipeline != n {
		t.Errorf("sv_pipeline_total = %d, want %d", pipeline, n)
	}
	for _, phase := range []string{"rewrite", "optimize", "eval", "serialize"} {
		sample := fmt.Sprintf(`sv_phase_duration_seconds_count{phase=%q}`, phase)
		if got := metricValue(t, body, sample); got != pipeline {
			t.Errorf("%s = %d, want pipeline count %d", sample, got, pipeline)
		}
	}
	hits := metricValue(t, body, `sv_plan_cache_total{result="hit"}`)
	misses := metricValue(t, body, `sv_plan_cache_total{result="miss"}`)
	if hits+misses != pipeline {
		t.Errorf("plan cache hit+miss = %d+%d, want pipeline count %d", hits, misses, pipeline)
	}
	if misses != 1 {
		t.Errorf("plan-cache misses = %d, want 1 (one distinct query)", misses)
	}
	// Every pipeline runs the evaluator.
	if got := s.Stats().Classes[0].Engine.Evals; got != pipeline {
		t.Errorf("engine evals = %d, want pipeline count %d", got, pipeline)
	}
	if got := metricValue(t, body, "sv_request_duration_seconds_count"); got != n {
		t.Errorf("request histogram count = %d, want %d (admitted requests only)", got, n)
	}
}

// TestStatszPipelineSection: the JSON twin of the exposition reports the
// same always-on pipeline accounting.
func TestStatszPipelineSection(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//staff/name")); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
	}
	p := s.Stats().Server.Pipeline
	if p.Count != 3 {
		t.Fatalf("pipeline count = %d, want 3", p.Count)
	}
	if p.PlanCacheHits != 2 || p.PlanCacheMisses != 1 {
		t.Errorf("plan cache = %d hits / %d misses, want 2/1", p.PlanCacheHits, p.PlanCacheMisses)
	}
	if evals := s.Stats().Classes[0].Engine.Evals; evals != 3 {
		t.Errorf("engine evals = %d, want 3", evals)
	}
	for _, phase := range []string{"rewrite", "optimize", "eval", "serialize"} {
		lat, ok := p.Phases[phase]
		if !ok || lat.Count != p.Count {
			t.Errorf("phase %q: %+v (want count %d)", phase, lat, p.Count)
		}
	}
	if p.Phases["eval"].SumMicros == 0 || p.Phases["serialize"].SumMicros == 0 {
		t.Error("eval or serialize phase sum is zero across 3 queries")
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
	if rec.TotalUs < rec.RewriteUs+rec.OptimizeUs+rec.EvalUs || rec.PlanCacheHit || rec.NodesVisited != ex.NodesVisited || rec.ResultCount != ex.ResultCount {
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
	if st := s.Stats().Server; st.Explains != 2 {
		t.Errorf("Explains = %d, want 2 (the admitted explains)", st.Explains)
	}
	// /explainz must not perturb the /query pipeline accounting.
	if p := s.Stats().Server.Pipeline; p.Count != 1 {
		t.Errorf("pipeline count = %d after explain, want 1", p.Count)
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
	if s.Draining() {
		t.Fatal("Draining() true before BeginDrain")
	}
	s.BeginDrain()
	w := get(t, h, "/healthz")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Errorf("post-drain healthz = %d %q, want 503 draining", w.Code, w.Body.String())
	}
	if !s.Stats().Server.Draining {
		t.Error("stats do not report draining")
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
// while snapshotting /statsz and /metricsz mid-flight: snapshots must
// stay internally consistent (histogram sums to count, responses never
// exceed requests) and totals must be exact once the load stops. The
// race detector covers the memory model; this covers the accounting.
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
	var snapErrs atomic.Uint64

	// Snapshot reader racing the writers.
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
			st := s.Stats().Server
			var sum uint64
			for _, n := range st.Latency.Buckets {
				sum += n
			}
			if sum != st.Latency.Count {
				snapErrs.Add(1)
				t.Errorf("mid-flight histogram sums to %d, count %d", sum, st.Latency.Count)
			}
			if st.OK+st.BadRequests+st.TooLarge+st.Timeouts+st.InternalErrors+st.Rejected+st.ClientCancels > st.Requests {
				snapErrs.Add(1)
				t.Errorf("mid-flight responses exceed requests: %+v", st)
			}
			for phase, lat := range st.Pipeline.Phases {
				// Stats reads phase digests before the pipeline counter, so
				// mid-flight a phase count may trail but never lead it.
				if lat.Count > st.Pipeline.Count {
					snapErrs.Add(1)
					t.Errorf("mid-flight phase %q count %d exceeds pipeline %d", phase, lat.Count, st.Pipeline.Count)
				}
				// Phases snapshot one digest at a time, so only assert
				// within one phase's own snapshot.
				var psum uint64
				for _, n := range lat.Buckets {
					psum += n
				}
				if psum != lat.Count {
					snapErrs.Add(1)
					t.Errorf("mid-flight phase %q buckets sum %d != count %d", phase, psum, lat.Count)
				}
			}
			if w := get(t, h, "/metricsz"); w.Code == http.StatusOK {
				if err := obs.ValidateExposition(strings.NewReader(w.Body.String())); err != nil {
					snapErrs.Add(1)
					t.Errorf("mid-flight /metricsz invalid: %v", err)
				}
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

	st := s.Stats().Server
	if st.Requests != sent.Load() {
		t.Errorf("requests = %d, sent %d", st.Requests, sent.Load())
	}
	if got := st.OK + st.BadRequests + st.TooLarge + st.Timeouts + st.InternalErrors + st.Rejected + st.ClientCancels; got != st.Requests {
		t.Errorf("response classes sum to %d, requests %d", got, st.Requests)
	}
	if st.OK != st.Pipeline.Count {
		t.Errorf("pipeline count %d != ok %d", st.Pipeline.Count, st.OK)
	}
	if st.Latency.Count != st.OK+st.Timeouts+st.InternalErrors+st.ClientCancels {
		t.Errorf("latency count %d, admitted %d", st.Latency.Count, st.OK+st.Timeouts)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d after load", st.InFlight)
	}
}

// TestResponseAccountingSumsToRequests: the /statsz response classes
// and sv_responses_total count /query outcomes only, so each sums to
// the /query request count. /query answers 200, 400 and 413 here, mixed
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
	st := s.Stats().Server
	if st.Requests != 5 || st.OK != 2 || st.BadRequests != 2 || st.TooLarge != 1 {
		t.Errorf("requests %d, ok %d, bad %d, too large %d; want 5, 2, 2, 1", st.Requests, st.OK, st.BadRequests, st.TooLarge)
	}
	if sum := st.OK + st.BadRequests + st.TooLarge + st.Timeouts + st.InternalErrors + st.Rejected + st.ClientCancels; sum != st.Requests {
		t.Errorf("response classes sum to %d, requests %d: %+v", sum, st.Requests, st)
	}
	body := get(t, h, "/metricsz").Body.String()
	var responses uint64
	for _, code := range []string{"200", "400", "413", "429", "499", "500", "504"} {
		responses += metricValue(t, body, `sv_responses_total{code="`+code+`"}`)
	}
	if requests := metricValue(t, body, "sv_requests_total"); responses != requests {
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
	if s.Stats().Server.SlowQueries != 1 {
		t.Errorf("SlowQueries = %d, want 1", s.Stats().Server.SlowQueries)
	}

	// Without an event log a slow query is only counted.
	quiet := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond}, 4)
	get(t, quiet.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))
	if quiet.Stats().Server.SlowQueries != 1 {
		t.Errorf("SlowQueries without an event log = %d, want 1", quiet.Stats().Server.SlowQueries)
	}

	// Negative threshold disables slow classification entirely.
	s2, events2 := eventLogServer(t, Config{SlowQueryThreshold: -1}, 4)
	get(t, s2.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))
	if got := events2(); len(got) != 0 {
		t.Errorf("disabled threshold wrote %d events", len(got))
	}
	if s2.Stats().Server.SlowQueries != 0 {
		t.Errorf("disabled threshold counted %d slow queries", s2.Stats().Server.SlowQueries)
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
