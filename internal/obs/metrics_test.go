package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/latency"
)

// TestExpositionPin pins the exact Prometheus text exposition for a
// small registry: HELP/TYPE blocks, sorted labels, cumulative le buckets
// in seconds, _sum in seconds, _count equal to the +Inf bucket. Any
// change to the wire format must show up here as an explicit diff.
func TestExpositionPin(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_requests_total", "Total requests.", func() uint64 { return 3 }, L("code", "200"))
	r.CounterFunc("test_requests_total", "Total requests.", func() uint64 { return 1 }, L("code", "500"))
	r.GaugeFunc("test_in_flight", "In-flight requests.", func() float64 { return 1.5 })
	var d latency.Digest
	d.Observe(50 * time.Microsecond)  // le 0.0001
	d.Observe(300 * time.Microsecond) // le 0.0005
	d.Observe(2 * time.Second)        // le 2.5
	r.HistogramFunc("test_duration_seconds", "Request duration.", d.Snapshot)

	const want = `# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total{code="200"} 3
test_requests_total{code="500"} 1
# HELP test_in_flight In-flight requests.
# TYPE test_in_flight gauge
test_in_flight 1.5
# HELP test_duration_seconds Request duration.
# TYPE test_duration_seconds histogram
test_duration_seconds_bucket{le="0.0001"} 1
test_duration_seconds_bucket{le="0.00025"} 1
test_duration_seconds_bucket{le="0.0005"} 2
test_duration_seconds_bucket{le="0.001"} 2
test_duration_seconds_bucket{le="0.0025"} 2
test_duration_seconds_bucket{le="0.005"} 2
test_duration_seconds_bucket{le="0.01"} 2
test_duration_seconds_bucket{le="0.025"} 2
test_duration_seconds_bucket{le="0.05"} 2
test_duration_seconds_bucket{le="0.1"} 2
test_duration_seconds_bucket{le="0.25"} 2
test_duration_seconds_bucket{le="0.5"} 2
test_duration_seconds_bucket{le="1"} 2
test_duration_seconds_bucket{le="2.5"} 3
test_duration_seconds_bucket{le="5"} 3
test_duration_seconds_bucket{le="10"} 3
test_duration_seconds_bucket{le="+Inf"} 3
test_duration_seconds_sum 2.00035
test_duration_seconds_count 3
`
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if got := b.String(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteTextValidates: the writer's output must pass the independent
// validator for a registry spanning every metric kind and label shape,
// and ParseSamples must read escaped label values and sample values
// back as registered.
func TestWriteTextValidates(t *testing.T) {
	r := NewRegistry()
	const zone = `quoted "z" \ back` + "\nline"
	r.CounterFunc("app_events_total", "Events.", func() uint64 { return 7 }, L("kind", "a"), L("zone", zone))
	r.CounterFunc("app_reads_total", "Reads.", func() uint64 { return 12 })
	r.GaugeFunc("app_temp", "Temp with\nnewline help.", func() float64 { return -2.25 })
	var wait latency.Digest
	for i := 0; i < 100; i++ {
		wait.Observe(time.Duration(i) * time.Millisecond)
	}
	r.HistogramFunc("app_wait_seconds", "Wait.", wait.Snapshot, L("q", "fast"))
	var idle latency.Digest
	r.HistogramFunc("app_idle_seconds", "Idle (empty histogram).", idle.Snapshot)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	samples, err := ParseSamples(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("writer output fails the validator: %v\n%s", err, b.String())
	}
	if got := samples[0]; got.Name != "app_events_total" || got.Labels["zone"] != zone || got.Labels["kind"] != "a" || got.Value != 7 {
		t.Errorf("first sample = %+v, want app_events_total{kind=a, zone=%q} 7", got, zone)
	}
	var count float64
	for _, sm := range samples {
		if sm.Name == "app_wait_seconds_count" && sm.Labels["q"] == "fast" {
			count = sm.Value
		}
	}
	if count != 100 {
		t.Errorf("app_wait_seconds_count = %v, want 100", count)
	}
}

// TestValidateExpositionRejects: the validator must catch each class of
// malformed exposition it exists for.
func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"empty", ""},
		{"sample before TYPE", "foo_total 3\n"},
		{"bad value", "# TYPE foo counter\nfoo pancake\n"},
		{"duplicate TYPE", "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n"},
		{"bad label grammar", "# TYPE foo counter\nfoo{code=200} 1\n"},
		{"histogram without +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n"},
		{"non-cumulative buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"count not +Inf bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 7\n"},
		{"bare histogram sample", "# TYPE h histogram\nh 3\n"},
	}
	for _, c := range cases {
		if err := ValidateExposition(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: validator accepted malformed input", c.name)
		}
	}
}
