package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/obs"
)

func post(t *testing.T, h http.Handler, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", target, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestQueryBoundsRejectDeepQueries: queries built to exhaust the stack
// of a recursive parser get a 4xx, are counted on /metricsz, and leave
// the server answering. The first body once killed the process with a
// fatal stack overflow; byte bounds refuse it before parsing, and
// xpath.MaxQueryDepth refuses deep queries that fit the byte bounds.
func TestQueryBoundsRejectDeepQueries(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	h := s.Handler()
	const n = 1150000
	nested := "class=nurse&param=wardNo%3D1&q=" + strings.Repeat("a[", n) + "b" + strings.Repeat("]", n)
	if len(nested) != 3450032 {
		t.Fatalf("nested body is %d bytes, want 3450032", len(nested))
	}
	chained := "class=nurse&param=wardNo%3D1&q=" + strings.Repeat("a/", n) + "b"
	for name, body := range map[string]string{"nested": nested, "chained": chained} {
		if w := post(t, h, "/query", body); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s POST body: status %d, want 413 (%.100q)", name, w.Code, w.Body.String())
		}
	}
	long := "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//"+strings.Repeat("x", MaxQueryBytes))
	if w := get(t, h, long); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("query over MaxQueryBytes: status %d, want 413", w.Code)
	}
	for name, q := range map[string]string{
		"nested":  strings.Repeat("a[", 1200) + "b" + strings.Repeat("]", 1200),
		"chained": strings.Repeat("a/", 1200) + "b",
		"union":   strings.Repeat("a | ", 1200) + "b",
		"and":     "a[" + strings.Repeat("b and ", 1200) + "c]",
	} {
		w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(q))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "deeper than") {
			t.Errorf("%s query of depth > MaxQueryDepth: status %d, body %.100q", name, w.Code, w.Body.String())
		}
	}
	if w := post(t, h, "/explainz", "class=nurse&param=wardNo%3D1&q="+url.QueryEscape(strings.Repeat("a/", 1200)+"b")); w.Code != http.StatusBadRequest {
		t.Errorf("deep /explainz: status %d, want 400", w.Code)
	}
	if w := post(t, h, "/query", "class=nurse&param=wardNo%3D1&q="+url.QueryEscape("//patient/name")); w.Code != http.StatusOK {
		t.Fatalf("server stopped answering after the rejections: status %d %q", w.Code, w.Body.String())
	}
	m := scrape(t, h)
	if got := m.value("sv_responses_total", obs.L("code", "413")); got != 3 {
		t.Errorf(`sv_responses_total{code="413"} = %d, want 3`, got)
	}
	if got := m.value("sv_query_limit_rejections_total", obs.L("limit", "bytes")); got != 3 {
		t.Errorf("byte-bound rejections = %d, want 3", got)
	}
	// The deep /explainz is refused too, but the limit counters count
	// /query responses only, like sv_responses_total.
	if got := m.value("sv_query_limit_rejections_total", obs.L("limit", "depth")); got != 4 {
		t.Errorf("depth-bound rejections = %d, want 4", got)
	}
}
