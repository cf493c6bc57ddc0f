package main

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestConfigPinned(t *testing.T) {
	if got := effectiveConfig(); !bytes.Equal(got, pinnedConfig) {
		t.Fatalf("config.json is stale; regenerate it with `go run . --print-config > config.json`. Current configuration:\n%s", got)
	}
}

// workloadBytes renders everything a seed generates for a workload:
// the document, the warm-up requests, the first requests of each
// closed-loop client, the open-loop schedule and the verified wards.
func workloadBytes(p *plan, seed int64) []byte {
	var b bytes.Buffer
	b.WriteString(genDocXML(p.w.Doc, seed))
	for _, r := range p.warmPairs(seed) {
		b.WriteString(p.rawQuery(r) + "\n")
	}
	for c := 0; c < closedClients; c++ {
		rng := rand.New(rand.NewSource(streamSeed(seed, streamClient+c)))
		for i := 0; i < 500; i++ {
			b.WriteString(p.rawQuery(p.draw(rng)) + "\n")
		}
	}
	due, reqs := openSchedule(p, seed, p.w.OpenLoopRPS, time.Second)
	for i := range due {
		b.WriteString(due[i].String() + " " + p.rawQuery(reqs[i]) + "\n")
	}
	for _, v := range p.verifyWard(seed) {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.Bytes()
}

func TestSameSeedSameWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := workloadBytes(newPlan(w), 7)
		b := workloadBytes(newPlan(w), 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different workloads", w.Name)
		}
		if bytes.Equal(a, workloadBytes(newPlan(w), 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same workload", w.Name)
		}
	}
}

func TestDocumentSizeIndependentOfSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		p := newPlan(w)
		var sizes []int
		for seed := int64(1); seed <= 3; seed++ {
			in, err := setUp(p, seed)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			sizes = append(sizes, in.doc.Size())
		}
		if sizes[0] != sizes[1] || sizes[1] != sizes[2] {
			t.Errorf("%s: document sizes %v differ by seed", w.Name, sizes)
		}
	}
}

// TestQuantileMatchesSort checks nearest-rank quantiles against their
// definition on a sort of the raw samples: at least a q share of the
// samples lie at or below the value, and less than a q share below it.
func TestQuantileMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 10, 99, 100, 101, 1000, 4321} {
		raw := make([]int64, n)
		for i := range raw {
			raw[i] = r.Int63n(1000) // ties on purpose
		}
		sorted := slices.Clone(raw)
		slices.Sort(sorted)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			v := quantile(sorted, q)
			atOrBelow, below := 0, 0
			for _, x := range raw {
				if x <= v {
					atOrBelow++
				}
				if x < v {
					below++
				}
			}
			need := q * float64(n)
			if float64(atOrBelow) < need-1e-9 || float64(below) >= need-1e-9 {
				t.Errorf("n=%d q=%v: value %d has %d samples at or below and %d below", n, q, v, atOrBelow, below)
			}
			if want := sorted[int(math.Ceil(q*float64(n)-1e-9))-1]; v != want {
				t.Errorf("n=%d q=%v: got %d, sorted samples give %d", n, q, v, want)
			}
		}
	}
}

func TestWindowedQuantile(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	small := make([]int64, 2*latencyWindow-1)
	for i := range small {
		small[i] = r.Int63n(1_000_000)
	}
	sorted := slices.Clone(small)
	slices.Sort(sorted)
	for _, q := range []float64{0.5, 0.99} {
		if got, windows := windowedQuantile(small, q); windows != 1 || got != quantile(sorted, q) {
			t.Errorf("q=%v under two windows: got %d over %d windows, want %d over 1", q, got, windows, quantile(sorted, q))
		}
	}
	// Stalls in a minority of the windows must not set the figure.
	lat := make([]int64, 5*latencyWindow)
	for i := range lat {
		lat[i] = 100 + int64(i%100)
	}
	for i := 0; i < 2*latencyWindow; i += 2 {
		lat[i] = 1_000_000
	}
	if got, windows := windowedQuantile(lat, 0.99); windows != 5 || got != 198 {
		t.Errorf("p99 with two stalled windows: got %d over %d windows, want 198 over 5", got, windows)
	}
	if got, windows := windowedQuantile(lat, 0.5); windows != 5 || got != 149 {
		t.Errorf("p50 with two stalled windows: got %d over %d windows, want 149 over 5", got, windows)
	}
}

func TestVerifierRejectsCorruptedBody(t *testing.T) {
	w, err := workloadByName("hot-small")
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(w)
	in, err := setUp(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	verify := p.verifyWard(3)
	good, bad := newTally(), newTally()
	c := newClient(p, in.handler)
	for _, r := range p.entries {
		status := c.do(r)
		good.record(r, status, c.w.body.Bytes(), verify)
		body := slices.Clone(c.w.body.Bytes())
		i := bytes.Index(body, []byte("</"))
		body[i+2] ^= 0x20 // flip the case of a closing tag's first letter
		bad.record(r, status, body, verify)
	}
	v, err := newVerifier(p, in.doc)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := v.check(good); err != nil || n != 0 {
		t.Fatalf("served answers: %d mismatches, err %v; want none", n, err)
	}
	if n, err := v.check(bad); err != nil || n != len(p.entries) {
		t.Fatalf("corrupted answers: %d mismatches, err %v; want %d", n, err, len(p.entries))
	}
}

// TestChurnAnswersVerify serves a sample of the churn query space,
// including //*, and checks every answer against the materialized view.
func TestChurnAnswersVerify(t *testing.T) {
	w, err := workloadByName("churn")
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(w)
	in, err := setUp(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]bool, len(p.wards))
	for i := range all {
		all[i] = true
	}
	tl := newTally()
	c := newClient(p, in.handler)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		req := pair{ward: int32(r.Intn(4)), query: int32(r.Intn(len(p.queries)))}
		if i < 4 {
			req.query = 0 // //*
		}
		tl.record(req, c.do(req), c.w.body.Bytes(), all)
	}
	v, err := newVerifier(p, in.doc)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := v.check(tl); err != nil || n != 0 || tl.non200 != 0 {
		t.Fatalf("%d mismatches, %d non-200 answers, err %v", n, tl.non200, err)
	}
	if p.queries[0] != "//*" {
		t.Fatalf("churn query 0 is %q, want //*", p.queries[0])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{req: 1, id: 1, name: spRequest, start: 0, end: 100},
		{req: 1, id: 2, parent: 1, name: spEngine, start: 0, end: 30},
		{req: 1, id: 3, parent: 1, name: spEval, start: 40, end: 90},
		{req: 2, id: 4, name: spReplan, start: 200, end: 260},
		{req: 2, id: 5, parent: 4, name: spRewrite, start: 200, end: 220},
		{req: 2, id: 6, parent: 4, name: spOptimize, start: 220, end: 260},
	}
	self := selfTimes(spans)
	want := map[spanName]int64{spRequest: 20, spEngine: 30, spEval: 50, spReplan: 0, spRewrite: 20, spOptimize: 40}
	for name, ns := range want {
		if self[name] != ns {
			t.Errorf("%s: self time %d, want %d", spanNames[name], self[name], ns)
		}
	}
}

// TestTracedReplay runs a short traced replay and checks its
// bookkeeping: every request has its five layer spans, warm caches
// hit, and the served answers verify.
func TestTracedReplay(t *testing.T) {
	w, err := workloadByName("hot-small")
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(w)
	a, err := setUp(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setUp(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	verify := p.verifyWard(4)
	tr, err := tracedReplay(p, a, b, 4, 100*time.Millisecond, verify)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[spanName]int{}
	for _, s := range tr.spans {
		counts[s.name]++
	}
	for _, l := range layerSpans {
		if counts[l] != tr.requests {
			t.Errorf("%s: %d spans for %d requests", spanNames[l], counts[l], tr.requests)
		}
	}
	if tr.engineMiss != 0 || tr.planMiss != 0 {
		t.Errorf("warm hot-small replay missed: %d engine, %d plan misses", tr.engineMiss, tr.planMiss)
	}
	if tr.replanned != len(p.entries) {
		t.Errorf("rebuilt %d plans, want one per mix entry (%d)", tr.replanned, len(p.entries))
	}
	v, err := newVerifier(p, b.doc)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := v.check(tr.tally); err != nil || n != 0 {
		t.Fatalf("%d mismatches, err %v", n, err)
	}
}
