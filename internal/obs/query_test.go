package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// The record accessors are nil-safe by contract: library callers and
// benchmarks run without a record and must pay exactly one nil check.
func TestQueryMetricsFromContextNilPaths(t *testing.T) {
	if qm := QueryMetricsFromContext(nil); qm != nil {
		t.Errorf("nil context returned %v, want nil", qm)
	}
	if qm := QueryMetricsFromContext(context.Background()); qm != nil {
		t.Errorf("record-free context returned %v, want nil", qm)
	}
}

// WithQueryMetrics with a nil record is a no-op returning the same
// context — installing "no metrics" must not allocate a value entry
// that QueryMetricsFromContext would then type-assert against.
func TestWithQueryMetricsNilCarrier(t *testing.T) {
	ctx := context.Background()
	if got := WithQueryMetrics(ctx, nil); got != ctx {
		t.Error("WithQueryMetrics(ctx, nil) did not return ctx unchanged")
	}
}

func TestQueryMetricsRoundTrip(t *testing.T) {
	qm := &QueryMetrics{RequestID: 1}
	ctx := WithQueryMetrics(context.Background(), qm)
	if got := QueryMetricsFromContext(ctx); got != qm {
		t.Errorf("round trip returned %p, want %p", got, qm)
	}
}

// TestRecordJSONGolden pins the record's JSON form, which is the event
// log's line format: key names, their order, microsecond units, HTML
// escaping as encoding/json does it, and the truncation of query text
// and parameter values.
func TestRecordJSONGolden(t *testing.T) {
	qm := &QueryMetrics{
		RequestID:      42,
		Class:          "nurse",
		Params:         map[string]string{"wardNo": "7", "bed": strings.Repeat("b", MaxLoggedBytes+1)},
		Query:          `//patient[name = "<x>"]/name`,
		Fingerprint:    "9f3c",
		Kind:           "slow",
		Status:         200,
		ResultCount:    3,
		Time:           time.UnixMicro(1_700_000_000_123_456),
		Total:          1_234_567 * time.Nanosecond,
		Rewrite:        11_999 * time.Nanosecond,
		Optimize:       22 * time.Microsecond,
		Eval:           333 * time.Microsecond,
		Serialize:      444 * time.Microsecond,
		PlanCacheHit:   true,
		EngineCacheHit: true,
		NodesVisited:   55,
		PlanText:       "/hospital/dept",
	}
	got, err := json.Marshal(qm)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"time_unix_us":1700000000123456,"kind":"slow","request_id":42,"class":"nurse",` +
		`"params":{"bed":"` + strings.Repeat("b", MaxLoggedBytes) + `...[truncated]","wardNo":"7"},` +
		`"status":200,"query":"//patient[name = \"\u003cx\u003e\"]/name","fingerprint":"9f3c",` +
		`"total_us":1234,"rewrite_us":11,"optimize_us":22,"eval_us":333,"serialize_us":444,` +
		`"plan_cache_hit":true,"nodes_visited":55,"result_count":3}`
	if string(got) != want {
		t.Errorf("record JSON\n got %s\nwant %s", got, want)
	}
}

// TestTruncate: text within the bound is kept; longer text is cut at
// the bound, or before a character the bound would split, and marked.
func TestTruncate(t *testing.T) {
	short := strings.Repeat("a", MaxLoggedBytes)
	if got := truncate(short); got != short {
		t.Errorf("text at the bound was cut to %d bytes", len(got))
	}
	ascii := strings.Repeat("a", MaxLoggedBytes-1)
	for _, s := range []string{ascii + "é" + "tail", ascii + "€" + "tail", ascii + "a" + "éz"} {
		got := truncate(s)
		kept, ok := strings.CutSuffix(got, "...[truncated]")
		if !ok || !strings.HasPrefix(s, kept) || !utf8.ValidString(kept) || len(kept) > MaxLoggedBytes {
			t.Errorf("truncate(%q…) = %q…, want a whole-character prefix plus the marker", s[MaxLoggedBytes-4:], got[len(got)-20:])
		}
	}
}
