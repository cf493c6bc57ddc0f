package obs

import (
	"context"
	"testing"
)

// The carrier accessors are nil-safe by contract: library callers and
// benchmarks run without a carrier and must pay exactly one nil check.
func TestQueryMetricsFromContextNilPaths(t *testing.T) {
	if qm := QueryMetricsFromContext(nil); qm != nil {
		t.Errorf("nil context returned %v, want nil", qm)
	}
	if qm := QueryMetricsFromContext(context.Background()); qm != nil {
		t.Errorf("carrier-free context returned %v, want nil", qm)
	}
}

// WithQueryMetrics with a nil carrier is a no-op returning the same
// context — installing "no metrics" must not allocate a value entry
// that QueryMetricsFromContext would then type-assert against.
func TestWithQueryMetricsNilCarrier(t *testing.T) {
	ctx := context.Background()
	if got := WithQueryMetrics(ctx, nil); got != ctx {
		t.Error("WithQueryMetrics(ctx, nil) did not return ctx unchanged")
	}
}

func TestQueryMetricsRoundTrip(t *testing.T) {
	qm := &QueryMetrics{EvalMode: ModeEval}
	ctx := WithQueryMetrics(context.Background(), qm)
	if got := QueryMetricsFromContext(ctx); got != qm {
		t.Errorf("round trip returned %p, want %p", got, qm)
	}
}
