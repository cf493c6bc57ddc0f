package latency

import (
	"sync"
	"testing"
	"time"
)

func TestBucketShape(t *testing.T) {
	for i := 1; i < len(Bounds); i++ {
		if Bounds[i] <= Bounds[i-1] {
			t.Errorf("Bounds not increasing at %d: %v then %v", i, Bounds[i-1], Bounds[i])
		}
	}
}

func TestObserveLandsInOneBucket(t *testing.T) {
	var d Digest
	cases := []time.Duration{
		0, 50 * time.Microsecond, 100 * time.Microsecond, 101 * time.Microsecond,
		time.Millisecond, 70 * time.Millisecond, time.Second, time.Minute,
	}
	for _, v := range cases {
		d.Observe(v)
	}
	s := d.Snapshot()
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != uint64(len(cases)) || s.Count != uint64(len(cases)) {
		t.Fatalf("buckets sum to %d, count %d, want %d", total, s.Count, len(cases))
	}
	if s.MaxNs != uint64(time.Minute.Nanoseconds()) {
		t.Errorf("MaxNs = %d", s.MaxNs)
	}
	if s.MaxNs/1e3 != uint64(time.Minute.Microseconds()) {
		t.Errorf("MaxUs = %d", s.MaxNs/1e3)
	}
}

func TestQuantileOrderingAndClamp(t *testing.T) {
	var d Digest
	// 1000 observations spread 1ms..100ms.
	for i := 0; i < 1000; i++ {
		d.Observe(time.Millisecond + time.Duration(i)*99*time.Microsecond)
	}
	s := d.Snapshot()
	p50, p95, p99 := s.QuantileUs(0.50), s.QuantileUs(0.95), s.QuantileUs(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Errorf("quantiles not ordered: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p99 > float64(s.MaxNs/1e3) {
		t.Errorf("p99 %v exceeds observed max %d", p99, s.MaxNs/1e3)
	}
	// The true median is ≈50ms; the histogram estimate must land in the
	// bucket-resolution neighbourhood (25ms..100ms rungs).
	if p50 < 20_000 || p50 > 110_000 {
		t.Errorf("p50 = %.0fus, want within bucket resolution of 50ms", p50)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	var d Digest
	d.Observe(3 * time.Millisecond)
	s := d.Snapshot()
	for _, q := range []float64{0.5, 0.99, 1} {
		got := s.QuantileUs(q)
		if got > float64(s.MaxNs/1e3) || got <= 0 {
			t.Errorf("QuantileUs(%v) = %v with max %d", q, got, s.MaxNs/1e3)
		}
	}
	if s.Summarize().Count != 1 {
		t.Errorf("summary count: %+v", s.Summarize())
	}
}

func TestEmptyDigest(t *testing.T) {
	var d Digest
	s := d.Snapshot()
	if s.QuantileUs(0.99) != 0 || s.MeanUs() != 0 {
		t.Errorf("empty digest not zero: %+v", s)
	}
}

func TestConcurrentObserve(t *testing.T) {
	var d Digest
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				d.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	s := d.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Errorf("buckets sum to %d, count %d", total, s.Count)
	}
}

// TestSnapshotMidFlight pins the invariant the serving stats tests
// build on: a snapshot taken while Observe calls are in flight still
// has its histogram summing exactly to its count (Count is derived from
// the buckets, not stored separately), and successive counts are
// monotone.
func TestSnapshotMidFlight(t *testing.T) {
	var d Digest
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					d.Observe(123 * time.Microsecond)
				}
			}
		}()
	}
	last := uint64(0)
	for i := 0; i < 200; i++ {
		s := d.Snapshot()
		var total uint64
		for _, n := range s.Buckets {
			total += n
		}
		if total != s.Count {
			t.Fatalf("mid-flight snapshot: buckets sum to %d, count %d", total, s.Count)
		}
		if s.Count < last {
			t.Fatalf("count went backwards: %d after %d", s.Count, last)
		}
		last = s.Count
	}
	close(stop)
	wg.Wait()
}
