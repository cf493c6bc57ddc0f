package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/obs"
)

// A request's deadline is a value the evaluator compares with the
// clock, and its context carries only client cancellation. These tests
// pin the responses that arrangement must keep: 504 past the deadline,
// 499 for a client that went away, and a plan cached either way.

// TestDeadlineKeepsPlan: a timeout shorter than the evaluation answers
// 504 and counts it under code 504, while the plan built before the
// evaluation stays cached, so the retry is a plan-cache hit.
func TestDeadlineKeepsPlan(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	target := "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//patient/name")
	if w := get(t, h, target+"&timeout=1ns"); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %.120q)", w.Code, w.Body.String())
	}
	m := scrape(t, h)
	if n := m.value("sv_responses_total", obs.L("code", "504")); n != 1 {
		t.Errorf("504 responses = %d, want 1", n)
	}
	if n := m.value("sv_plan_cache_entries", obs.L("class", "nurse")); n != 1 {
		t.Errorf("plan-cache entries after the 504 = %d, want 1", n)
	}
	if w := get(t, h, target+"&timeout=30s"); w.Code != http.StatusOK {
		t.Fatalf("retry status = %d (body %.120q)", w.Code, w.Body.String())
	}
	m = scrape(t, h)
	if hits, misses := m.value("sv_plan_cache_total", obs.L("result", "hit")), m.value("sv_plan_cache_total", obs.L("result", "miss")); hits != 1 || misses != 0 {
		t.Errorf("retry plan-cache outcomes: %d hits, %d misses; want the plan the 504 cached", hits, misses)
	}
	c, _ := s.reg.Class("nurse")
	if n := c.Stats().Cancelled; n != 1 {
		t.Errorf("engine cancelled = %d, want 1", n)
	}
}

// TestClientCancel499: a request whose context is cancelled (the client
// went away) answers 499 and counts it under code 499, not as a
// timeout.
func TestClientCancel499(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest("GET", "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"), nil).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != 499 {
		t.Fatalf("status = %d, want 499 (body %.120q)", w.Code, w.Body.String())
	}
	m := scrape(t, h)
	if n := m.value("sv_responses_total", obs.L("code", "499")); n != 1 {
		t.Errorf("499 responses = %d, want 1", n)
	}
	if n := m.value("sv_responses_total", obs.L("code", "504")); n != 0 {
		t.Errorf("504 responses = %d, want 0", n)
	}
	c, _ := s.reg.Class("nurse")
	if n := c.Stats().Cancelled; n != 1 {
		t.Errorf("engine cancelled = %d, want 1", n)
	}
}
