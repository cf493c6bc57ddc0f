package qstats

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func obsWith(class, plan, query string, eval time.Duration) *obs.QueryMetrics {
	return &obs.QueryMetrics{
		Class:        class,
		PlanText:     plan,
		Query:        query,
		Total:        eval + time.Millisecond,
		Eval:         eval,
		NodesVisited: 10,
		ResultCount:  3,
	}
}

func TestObserveAccumulates(t *testing.T) {
	r := New(0)
	for i := 0; i < 5; i++ {
		o := obsWith("nurse", "/hospital/ward/patient", "//patient", time.Duration(i+1)*time.Millisecond)
		o.PlanCacheHit = i > 0
		r.Observe(o)
	}
	top := r.Top(0, SortEvalTime)
	if len(top) != 1 {
		t.Fatalf("tracked %d fingerprints, want 1", len(top))
	}
	fs := top[0]
	if fs.Count != 5 || fs.CountSlack != 0 {
		t.Errorf("count = %d (slack %d), want 5 exact", fs.Count, fs.CountSlack)
	}
	if fs.PlanCacheHits != 4 {
		t.Errorf("plan cache hits = %d, want 4", fs.PlanCacheHits)
	}
	if fs.NodesVisited != 50 || fs.ResultNodes != 15 {
		t.Errorf("nodes = %d results = %d, want 50/15", fs.NodesVisited, fs.ResultNodes)
	}
	// 1+2+3+4+5 ms of eval time.
	if fs.EvalSumUs != 15000 {
		t.Errorf("eval sum = %dus, want 15000", fs.EvalSumUs)
	}
	if fs.Eval.Count != 5 || fs.Total.Count != 5 {
		t.Errorf("digest counts = %d/%d, want 5", fs.Eval.Count, fs.Total.Count)
	}
	if fs.LastSeenUnixUs == 0 {
		t.Error("last-seen timestamp not set")
	}
	if fs.Class != "nurse" || fs.Query != "//patient" || fs.Plan != "/hospital/ward/patient" {
		t.Errorf("identity fields = %+v", fs)
	}
	if fs.Fingerprint != Fingerprint("nurse", "/hospital/ward/patient") {
		t.Errorf("fingerprint %q does not match Fingerprint()", fs.Fingerprint)
	}
}

// Fingerprints are per (class, plan): same plan under two classes, or
// two plans under one class, never share a row.
func TestFingerprintIdentity(t *testing.T) {
	r := New(0)
	r.Observe(obsWith("nurse", "/a/b", "//b", time.Millisecond))
	r.Observe(obsWith("doctor", "/a/b", "//b", time.Millisecond))
	r.Observe(obsWith("nurse", "/a/c", "//c", time.Millisecond))
	if got := r.Stats().Fingerprints; got != 3 {
		t.Fatalf("tracked %d fingerprints, want 3", got)
	}
	if Fingerprint("nurse", "/a/b") == Fingerprint("doctor", "/a/b") {
		t.Error("class does not contribute to the fingerprint hash")
	}
}

// The space-saving bound: under adversarial query diversity the
// registry never exceeds its capacity, the Count sum over tracked rows
// still equals the observation total exactly, and a heavy hitter
// observed throughout keeps an exact (slack-free) count.
func TestSpaceSavingBound(t *testing.T) {
	r := New(32)
	cap := r.Capacity()
	const distinct = 1000
	heavy := "/hot/query"
	for i := 0; i < distinct; i++ {
		r.Observe(obsWith("c", heavy, heavy, time.Millisecond))
		plan := "/cold/" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + itoa(i)
		r.Observe(obsWith("c", plan, plan, time.Microsecond))
	}
	st := r.Stats()
	if st.Fingerprints > cap {
		t.Fatalf("tracked %d fingerprints, capacity %d", st.Fingerprints, cap)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under 1000 distinct fingerprints")
	}
	all := r.Top(0, SortCount)
	var sum uint64
	var hot *FingerprintStats
	for i := range all {
		sum += all[i].Count
		if all[i].Plan == heavy {
			hot = &all[i]
		}
	}
	if sum != st.Observations || sum != 2*distinct {
		t.Errorf("count sum = %d, observations = %d, want %d", sum, st.Observations, 2*distinct)
	}
	if hot == nil {
		t.Fatal("heavy hitter evicted")
	}
	if hot.Count != distinct || hot.CountSlack != 0 {
		t.Errorf("heavy hitter count = %d slack = %d, want %d exact", hot.Count, hot.CountSlack, distinct)
	}
	// Every row's error bound is honest: count never below slack.
	for _, fs := range all {
		if fs.CountSlack > fs.Count {
			t.Errorf("row %q: slack %d exceeds count %d", fs.Plan, fs.CountSlack, fs.Count)
		}
	}
}

func TestTopSortAndLimit(t *testing.T) {
	r := New(0)
	for i := 0; i < 3; i++ {
		r.Observe(obsWith("c", "/cheap", "/cheap", time.Microsecond))
	}
	r.Observe(obsWith("c", "/slow", "/slow", 50*time.Millisecond))
	r.Observe(obsWith("c", "/mid", "/mid", time.Millisecond))

	if top := r.Top(1, SortEvalTime); len(top) != 1 || top[0].Plan != "/slow" {
		t.Errorf("top by eval_time = %+v, want /slow", top)
	}
	if top := r.Top(1, SortCount); len(top) != 1 || top[0].Plan != "/cheap" {
		t.Errorf("top by count = %+v, want /cheap", top)
	}
	if top := r.Top(1, SortTotalTime); len(top) != 1 || top[0].Plan != "/slow" {
		t.Errorf("top by total_time = %+v, want /slow", top)
	}
	if all := r.Top(0, ""); len(all) != 3 {
		t.Errorf("Top(0) returned %d rows, want all 3", len(all))
	}
}

// Stored sample texts are clipped; long plans still fingerprint on the
// full text (two plans sharing a 256-byte prefix stay distinct rows).
func TestTextClipping(t *testing.T) {
	r := New(0)
	long := strings.Repeat("/x", 10000)
	r.Observe(obsWith("c", long+"/a", long, time.Millisecond))
	r.Observe(obsWith("c", long+"/b", long, time.Millisecond))
	all := r.Top(0, SortCount)
	// The fingerprint normalizes on the clipped text, so these two
	// collapse into one row — the documented memory/bounded-text
	// tradeoff; what must never happen is an unbounded stored string.
	if len(all) != 1 {
		t.Errorf("clipped plans tracked as %d rows, want 1", len(all))
	}
	for _, fs := range all {
		if len(fs.Plan) > MaxTextLen || len(fs.Query) > MaxTextLen {
			t.Errorf("stored text exceeds MaxTextLen: plan %d, query %d bytes", len(fs.Plan), len(fs.Query))
		}
	}
}

// A nil registry is a no-op sink, so callers need no guard.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Observe(obsWith("c", "/p", "/q", time.Millisecond))
	if got := r.Top(5, SortCount); got != nil {
		t.Errorf("nil Top = %v", got)
	}
	if got := r.Stats(); got != (Stats{}) {
		t.Errorf("nil Stats = %+v", got)
	}
}

// Concurrent observers and readers: run under -race, and check the
// count-sum invariant from a reader racing the writers (the sum over a
// snapshot can never exceed the observation counter read afterward).
func TestConcurrentObserve(t *testing.T) {
	r := New(64)
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				plan := "/w" + itoa(w) + "/q" + itoa(i%100)
				r.Observe(obsWith("c", plan, plan, time.Microsecond))
			}
		}(w)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sum uint64
			for _, fs := range r.Top(0, SortCount) {
				sum += fs.Count
			}
			if obs := r.Stats().Observations; sum > obs {
				t.Errorf("count sum %d exceeds observations %d", sum, obs)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()

	var sum uint64
	for _, fs := range r.Top(0, SortCount) {
		sum += fs.Count
	}
	if want := r.Stats().Observations; sum != want || want != 8000 {
		t.Errorf("quiescent count sum = %d, observations = %d, want 8000", sum, want)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
