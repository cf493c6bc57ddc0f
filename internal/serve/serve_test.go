package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// newTestServer builds a server over the hospital scenario: the unbound
// nurse policy (wardNo binds per request) and a generated ward document.
func newTestServer(t testing.TB, cfg Config, maxRepeat int) *Server {
	t.Helper()
	spec := dtds.NurseSpec()
	reg := policy.NewRegistryWithConfig(spec.D, 0, core.Config{})
	if _, err := reg.DefineSpec("nurse", spec); err != nil {
		t.Fatalf("DefineSpec: %v", err)
	}
	doc := xmlgen.Generate(spec.D, xmlgen.Config{
		Seed:      7,
		MinRepeat: maxRepeat - 2,
		MaxRepeat: maxRepeat,
		Value: func(r *rand.Rand, label string) string {
			if label == "wardNo" {
				return fmt.Sprintf("%d", r.Intn(4))
			}
			return fmt.Sprintf("%s-%d", label, r.Intn(1000))
		},
	})
	return New(reg, doc, cfg)
}

func get(t testing.TB, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	return w
}

func TestQueryOK(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/xml") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := w.Body.String()
	if !strings.HasPrefix(body, "<result count=") || !strings.HasSuffix(strings.TrimSpace(body), "</result>") {
		t.Errorf("body is not a result envelope: %.120q", body)
	}
	m := scrape(t, h)
	if m.value("sv_requests_total") != 1 || m.value("sv_responses_total", obs.L("code", "200")) != 1 || m.value("sv_request_duration_seconds_count") != 1 {
		t.Errorf("metrics after one query:\n%s", m.text)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	h := s.Handler()
	cases := []struct {
		name, target string
	}{
		{"missing q", "/query?class=nurse"},
		{"missing class", "/query?q=//name"},
		{"bad param", "/query?class=nurse&q=//name&param=wardNo"},
		{"bad timeout", "/query?class=nurse&param=wardNo=1&q=//name&timeout=soon"},
		{"negative timeout", "/query?class=nurse&param=wardNo=1&q=//name&timeout=-1s"},
		{"unknown class", "/query?class=admin&q=//name"},
		{"unparsable query", "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//[")},
		{"unbound param", "/query?class=nurse&q=//name"},
	}
	for _, c := range cases {
		if w := get(t, h, c.target); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %q)", c.name, w.Code, w.Body.String())
		}
	}
	if n := scrape(t, h).value("sv_responses_total", obs.L("code", "400")); n != uint64(len(cases)) {
		t.Errorf("400 responses = %d, want %d", n, len(cases))
	}
}

// TestAdmissionControl: with MaxInFlight=2 and two requests pinned in
// flight, a third is refused with 429 + Retry-After instead of queueing;
// after the slots free up the server accepts work again.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2}, 3)
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.testHook = func() {
		entered <- struct{}{}
		<-release
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	target := srv.URL + "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//name")

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(target)
			if err != nil {
				t.Errorf("pinned request %d: %v", i, err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	// Both slots taken...
	<-entered
	<-entered
	// ...so the third request must be refused immediately.
	resp, err := http.Get(target)
	if err != nil {
		t.Fatalf("saturating request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("429 response missing Retry-After")
	}

	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("pinned request %d: status %d", i, code)
		}
	}
	s.testHook = nil
	if w := get(t, s.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//name")); w.Code != http.StatusOK {
		t.Errorf("post-drain request: status %d", w.Code)
	}
	m := scrape(t, s.Handler())
	if n := m.value("sv_responses_total", obs.L("code", "429")); n != 1 {
		t.Errorf("429 responses = %d, want 1", n)
	}
	if n := m.value("sv_in_flight"); n != 0 {
		t.Errorf("sv_in_flight = %d after drain", n)
	}
}

// TestDeadline504: a 1ms budget on an expensive query over a large
// document comes back 504 well within the handler's own clock (the
// evaluators poll deadlines cooperatively).
func TestDeadline504(t *testing.T) {
	s := newTestServer(t, Config{}, 28)
	h := s.Handler()
	q := url.QueryEscape("//*[//name]//*[//name]//name")
	start := time.Now()
	w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+q+"&timeout=1ms")
	elapsed := time.Since(start)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %.120q)", w.Code, w.Body.String())
	}
	if elapsed >= 100*time.Millisecond {
		t.Errorf("deadline response took %v, want well under 100ms", elapsed)
	}
	if n := scrape(t, h).value("sv_responses_total", obs.L("code", "504")); n != 1 {
		t.Errorf("504 responses = %d, want 1", n)
	}
	// Same query with a generous budget succeeds — the cancelled run left
	// the class engine and its plan cache usable.
	w = get(t, h, "/query?class=nurse&param=wardNo=1&q="+q+"&timeout=30s")
	if w.Code != http.StatusOK {
		t.Errorf("retry status = %d (body %.120q)", w.Code, w.Body.String())
	}
}

// TestStatszShape: /statsz is gone (404); /metricsz is the one counter
// surface, and the per-class facts /statsz carried are series with a
// class label, one per defined class.
func TestStatszShape(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name")); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
	}
	if w := get(t, h, "/statsz"); w.Code != http.StatusNotFound {
		t.Errorf("/statsz status = %d, want 404", w.Code)
	}
	m := scrape(t, h)
	for _, name := range []string{"sv_class_evals_total", "sv_plan_cache_evictions_total", "sv_plan_cache_entries"} {
		var classes []string
		for _, sm := range m.samples {
			if sm.Name == name {
				classes = append(classes, sm.Labels["class"])
			}
		}
		if len(classes) != 1 || classes[0] != "nurse" {
			t.Errorf("%s: class labels %q, want one series for nurse", name, classes)
		}
	}
	nurse := obs.L("class", "nurse")
	if evals, entries, evictions := m.value("sv_class_evals_total", nurse), m.value("sv_plan_cache_entries", nurse), m.value("sv_plan_cache_evictions_total", nurse); evals != 3 || entries != 1 || evictions != 0 {
		t.Errorf("nurse: %d evals, %d plans, %d evictions; want 3, 1, 0", evals, entries, evictions)
	}
}

// TestInternalErrorIs500: an engine-side failure on a well-formed
// request is the server's fault — it must come back 500 and increment
// internal_errors, not masquerade as a client 400.
func TestInternalErrorIs500(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	s.query = func(context.Context, time.Time, string, map[string]string, *xmltree.Document, string) ([]*xmltree.Node, error) {
		return nil, errors.New("rewrite: internal invariant broken")
	}
	w := get(t, s.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//name"))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %q)", w.Code, w.Body.String())
	}
	m := scrape(t, s.Handler())
	if n := m.value("sv_responses_total", obs.L("code", "500")); n != 1 {
		t.Errorf("500 responses = %d, want 1", n)
	}
	if n := m.value("sv_responses_total", obs.L("code", "400")); n != 0 {
		t.Errorf("400 responses = %d, want 0 (internal failure misreported as client fault)", n)
	}
}

// TestClientFaultClassification: the real registry errors that are the
// client's fault keep coming back 400 through the classifier, and none
// of them bump internal_errors.
func TestClientFaultClassification(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	h := s.Handler()
	cases := []struct {
		name, target string
	}{
		{"unknown class", "/query?class=admin&q=//name"},
		{"parse error", "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//[")},
		{"unbound param", "/query?class=nurse&q=//name"},
		{"unbound query var", "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape(`//patient[wardNo = $other]`)},
	}
	for _, c := range cases {
		if w := get(t, h, c.target); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %q)", c.name, w.Code, w.Body.String())
		}
	}
	m := scrape(t, h)
	if n := m.value("sv_responses_total", obs.L("code", "500")); n != 0 {
		t.Errorf("500 responses = %d, want 0", n)
	}
	if n := m.value("sv_responses_total", obs.L("code", "400")); n != uint64(len(cases)) {
		t.Errorf("400 responses = %d, want %d", n, len(cases))
	}
}

// TestHistogramSumsToCount: after a spread of requests (fast, slow, and
// timed-out), every observation landed in exactly one bucket of the
// finer ladder, so the bucket counts sum to the histogram's count.
func TestHistogramSumsToCount(t *testing.T) {
	s := newTestServer(t, Config{}, 8)
	h := s.Handler()
	targets := []string{
		"/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//patient/name"),
		"/query?class=nurse&param=wardNo=2&q=" + url.QueryEscape("//dept//bill"),
		"/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//*[//name]//name") + "&timeout=1ms",
		"/query?class=nurse&param=wardNo=3&q=" + url.QueryEscape("//staff/name"),
	}
	for i := 0; i < 3; i++ {
		for _, target := range targets {
			get(t, h, target)
		}
	}
	lat := s.lat.Snapshot()
	if lat.Count != uint64(3*len(targets)) {
		t.Fatalf("latency count = %d, want %d", lat.Count, 3*len(targets))
	}
	var total uint64
	for _, n := range lat.Buckets {
		total += n
	}
	if total != lat.Count {
		t.Errorf("histogram buckets sum to %d, count %d", total, lat.Count)
	}
	// The exposition renders the same digest: its _count and +Inf bucket
	// (equal, or ParseSamples fails) match the snapshot.
	if n := scrape(t, h).value("sv_request_duration_seconds_count"); n != lat.Count {
		t.Errorf("sv_request_duration_seconds_count = %d, digest count %d", n, lat.Count)
	}
}

// TestHealthz: the liveness endpoint answers without touching the
// query path.
func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	w := get(t, s.Handler(), "/healthz")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Errorf("healthz: %d %q", w.Code, w.Body.String())
	}
}

// TestTimeoutClamp: an explicit timeout above MaxTimeout is clamped, and
// a config with no default still caps requests at MaxTimeout.
func TestTimeoutClamp(t *testing.T) {
	cfg := Config{DefaultTimeout: -1, MaxTimeout: time.Nanosecond}
	s := newTestServer(t, cfg, 3)
	h := s.Handler()
	// No explicit timeout: the 1ns hard cap still applies, so the query
	// must come back 504 rather than running unbounded.
	w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//name"))
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("capped default: status = %d, want 504", w.Code)
	}
	// Explicit timeout above the cap is clamped to it.
	w = get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//name")+"&timeout=10s")
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("clamped explicit: status = %d, want 504", w.Code)
	}
}
