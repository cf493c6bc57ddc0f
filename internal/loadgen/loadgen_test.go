package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/xmlgen"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		status int
		want   Outcome
	}{
		{200, OK},
		{400, BadRequest},
		{429, Rejected},
		{504, Timeout},
		{500, Internal},
		{503, Internal},
		{404, Other},
	}
	for _, c := range cases {
		if got := Classify(c.status); got != c.want {
			t.Errorf("Classify(%d) = %v, want %v", c.status, got, c.want)
		}
	}
	for _, o := range []Outcome{OK, BadRequest, Internal, Timeout, Other} {
		if !o.Admitted() {
			t.Errorf("outcome %v should count as admitted", o)
		}
	}
	for _, o := range []Outcome{Rejected, Transport} {
		if o.Admitted() {
			t.Errorf("outcome %v should not count as admitted", o)
		}
	}
}

func TestParseEntry(t *testing.T) {
	e, err := ParseEntry(`cheap:4:nurse://patient/name:wardNo=2,shift=night`)
	if err != nil {
		t.Fatalf("ParseEntry: %v", err)
	}
	want := Entry{
		Name: "cheap", Weight: 4, Class: "nurse", Query: "//patient/name",
		Params: map[string]string{"wardNo": "2", "shift": "night"},
	}
	if !reflect.DeepEqual(e, want) {
		t.Errorf("ParseEntry = %+v, want %+v", e, want)
	}
	// Query text may itself contain colons past the fourth field.
	e, err = ParseEntry(`q:1:guest://post/author`)
	if err != nil {
		t.Fatalf("ParseEntry: %v", err)
	}
	if e.Query != "//post/author" || e.Params != nil {
		t.Errorf("ParseEntry = %+v", e)
	}
	for _, bad := range []string{"", "name:2:class", "name:zero:class:q", "name:-1:class:q", "n:1:c:q:noequals"} {
		if _, err := ParseEntry(bad); err == nil {
			t.Errorf("ParseEntry(%q) did not fail", bad)
		}
	}
}

func TestMixPickRespectsWeights(t *testing.T) {
	m := Mix{
		{Name: "heavy", Weight: 9},
		{Name: "light", Weight: 1},
	}
	r := rand.New(rand.NewSource(42))
	counts := [2]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[m.pick(r)]++
	}
	if frac := float64(counts[0]) / n; frac < 0.85 || frac > 0.95 {
		t.Errorf("heavy entry picked %.3f of the time, want ~0.9", frac)
	}
	single := Mix{{Name: "only"}}
	for i := 0; i < 10; i++ {
		if single.pick(r) != 0 {
			t.Fatal("single-entry mix must always pick 0")
		}
	}
}

func TestDefaultMixesCoverCostSpectrum(t *testing.T) {
	for _, name := range []string{"hospital", "adex", "fig7"} {
		m, err := MixFor(name)
		if err != nil {
			t.Fatalf("MixFor(%s): %v", name, err)
		}
		if len(m) < 3 {
			t.Errorf("%s mix has %d entries, want >= 3", name, len(m))
		}
	}
	if _, err := MixFor("nope"); err == nil {
		t.Error("MixFor(nope) did not fail")
	}
}

// statusTarget answers each request with the next status in a fixed
// cycle.
type statusTarget struct {
	statuses []int
	i        atomic.Uint64
}

func (s *statusTarget) Query(class, query string, params map[string]string, timeout time.Duration) (int, error) {
	n := s.i.Add(1) - 1
	return s.statuses[int(n)%len(s.statuses)], nil
}

func TestRunClosedAccounting(t *testing.T) {
	target := &statusTarget{statuses: []int{200, 200, 429, 504, 400}}
	res, err := Run(context.Background(), target, Config{
		Mix:           Mix{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}},
		Duration:      50 * time.Millisecond,
		Concurrency:   4,
		RejectBackoff: -1, // spin: the stub target is free, so no starvation
		Timeout:       time.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Mode != "" && res.Mode != "closed" {
		t.Errorf("mode = %q", res.Mode)
	}
	sum := res.OK + res.BadRequests + res.Rejected + res.Internal + res.Timeouts + res.TransportErrors + res.Other
	if sum != res.Requests || res.Requests == 0 {
		t.Errorf("outcome sum %d != requests %d", sum, res.Requests)
	}
	if res.OK == 0 || res.Rejected == 0 || res.Timeouts == 0 || res.BadRequests == 0 {
		t.Errorf("cycle outcomes missing: %+v", res)
	}
	var perClass uint64
	for _, c := range res.PerClass {
		perClass += c.Requests
	}
	if perClass != res.Requests {
		t.Errorf("per-class requests %d != total %d", perClass, res.Requests)
	}
	if res.All.Count != res.Requests {
		t.Errorf("all-latency count %d != requests %d", res.All.Count, res.Requests)
	}
	if want := res.Requests - res.Rejected; res.Admitted.Count != want {
		t.Errorf("admitted-latency count %d, want %d", res.Admitted.Count, want)
	}
}

// blockingTarget parks every request until the run's context would end,
// so the open loop's outstanding cap fills immediately.
type blockingTarget struct{ release chan struct{} }

func (b *blockingTarget) Query(class, query string, params map[string]string, timeout time.Duration) (int, error) {
	<-b.release
	return 200, nil
}

func TestRunOpenDropsAtOutstandingCap(t *testing.T) {
	target := &blockingTarget{release: make(chan struct{})}
	done := make(chan struct{})
	var res Result
	go func() {
		defer close(done)
		var err error
		res, err = Run(context.Background(), target, Config{
			Mix:            Mix{{Name: "a"}},
			Duration:       80 * time.Millisecond,
			RateRPS:        2000,
			MaxOutstanding: 4,
		})
		if err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	time.Sleep(120 * time.Millisecond)
	close(target.release)
	<-done
	if res.Mode != "" && res.Mode != "open" {
		t.Errorf("mode = %q", res.Mode)
	}
	if res.Requests != 4 {
		t.Errorf("issued %d requests, want exactly the cap (4)", res.Requests)
	}
	if res.Dropped == 0 {
		t.Errorf("no arrivals dropped at the cap (requests=%d)", res.Requests)
	}
}

func TestRunEmptyMix(t *testing.T) {
	if _, err := Run(context.Background(), &statusTarget{statuses: []int{200}}, Config{}); err == nil {
		t.Error("empty mix did not error")
	}
}

// newHospitalServer is the in-process serving stack the load smoke
// drives: nurse policy, generated ward document, tight admission limit.
func newHospitalServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	spec := dtds.NurseSpec()
	reg := policy.NewRegistryWithConfig(spec.D, 0, core.Config{})
	if _, err := reg.DefineSpec("nurse", spec); err != nil {
		t.Fatalf("DefineSpec: %v", err)
	}
	doc := xmlgen.Generate(spec.D, xmlgen.Config{
		Seed:      7,
		MinRepeat: 4,
		MaxRepeat: 6,
		Value: func(r *rand.Rand, label string) string {
			if label == "wardNo" {
				return fmt.Sprintf("%d", r.Intn(4))
			}
			return fmt.Sprintf("%s-%d", label, r.Intn(1000))
		},
	})
	return serve.New(reg, doc, cfg)
}

// TestHospitalSaturationSmoke is the satellite acceptance check in
// miniature: drive the hospital scenario with more closed-loop workers
// than the admission limit and verify overload behaves — rejections
// happen, admitted queries answer, and their latency stays under the
// deadline with no violations past the polling grace.
func TestHospitalSaturationSmoke(t *testing.T) {
	const deadline = 250 * time.Millisecond
	srv := newHospitalServer(t, serve.Config{
		DefaultTimeout: deadline,
		MaxTimeout:     2 * deadline,
		MaxInFlight:    4,
	})
	res, err := Run(context.Background(), HandlerTarget{Handler: srv.Handler()}, Config{
		Mix:         HospitalMix(),
		Duration:    300 * time.Millisecond,
		Concurrency: 32,
		Timeout:     deadline,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.OK == 0 {
		t.Fatalf("no queries answered: %+v", res)
	}
	if res.Rejected == 0 {
		t.Fatalf("32 workers against MaxInFlight=4 produced no 429s: %+v", res)
	}
	if res.BadRequests != 0 || res.Internal != 0 || res.TransportErrors != 0 {
		t.Errorf("unexpected failures: 400=%d 500=%d transport=%d", res.BadRequests, res.Internal, res.TransportErrors)
	}
	if res.Admitted.P99Us >= float64(deadline.Microseconds()) {
		t.Errorf("admitted p99 %.0fus not under the %v deadline", res.Admitted.P99Us, deadline)
	}
	// Client-observed wall time includes goroutine scheduling delay,
	// which on a small-GOMAXPROCS machine can push a handful of fast
	// 200s past deadline+grace; demand that stays a thin tail, not a
	// pattern.
	if limit := res.Admitted.Count / 50; res.DeadlineViolations > limit {
		t.Errorf("%d of %d admitted requests exceeded deadline+grace (limit %d)",
			res.DeadlineViolations, res.Admitted.Count, limit)
	}
	// The server's own accounting (/metricsz) must agree on the status
	// classes.
	var text strings.Builder
	srv.Metrics().WriteText(&text)
	samples, err := obs.ParseSamples(strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("/metricsz: %v", err)
	}
	responses := map[string]uint64{}
	for _, sm := range samples {
		if sm.Name == "sv_responses_total" {
			responses[sm.Labels["code"]] = uint64(sm.Value)
		}
	}
	if responses["429"] != res.Rejected {
		t.Errorf("server counted %d rejections, client saw %d", responses["429"], res.Rejected)
	}
	if responses["200"] != res.OK {
		t.Errorf("server counted %d oks, client saw %d", responses["200"], res.OK)
	}
}

func TestZipfMixSkewsWeights(t *testing.T) {
	base := HospitalMix()
	z := ZipfMix(base, 1.2)
	if len(z) != len(base) {
		t.Fatalf("ZipfMix changed entry count: %d != %d", len(z), len(base))
	}
	for i := range z {
		if z[i].Name != base[i].Name || z[i].Class != base[i].Class || z[i].Query != base[i].Query {
			t.Errorf("entry %d identity changed: %+v", i, z[i])
		}
		if z[i].Weight < 1 {
			t.Errorf("entry %d weight %d < 1", i, z[i].Weight)
		}
		if i > 0 && z[i].Weight > z[i-1].Weight {
			t.Errorf("weights not nonincreasing at %d: %d > %d", i, z[i].Weight, z[i-1].Weight)
		}
	}
	if z[0].Weight <= z[len(z)-1].Weight {
		t.Errorf("no skew: head weight %d, tail weight %d", z[0].Weight, z[len(z)-1].Weight)
	}
	// The head entry must dominate: with s=1.2 it should carry several
	// times the traffic share of any tail entry.
	if z[0].Weight < 4*z[len(z)-1].Weight {
		t.Errorf("head weight %d not >= 4x tail weight %d", z[0].Weight, z[len(z)-1].Weight)
	}
	// s <= 0 is the identity.
	same := ZipfMix(base, 0)
	for i := range same {
		if same[i].Weight != base[i].Weight {
			t.Fatalf("ZipfMix(0) changed weight at %d", i)
		}
	}
}
