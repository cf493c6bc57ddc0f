package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/xmltree"
)

// engineConfig and serveConfig are the serving defaults the benchmark
// runs: indexed evaluation on; answer cache, parallel evaluation,
// tracing and the event log off.
var (
	engineConfig = core.Config{Indexed: true}
	serveConfig  = serve.Config{}
)

// instance is one set-up server with the document it serves.
type instance struct {
	reg     *policy.Registry
	doc     *xmltree.Document
	handler http.Handler
}

// setUp builds the registry, generates and parses the document, and
// warms the server with the workload's warm-up requests, which derive
// each binding's engine, plan each query and build the label index.
func setUp(p *plan, seed int64) (*instance, error) {
	reg := policy.NewRegistryWithConfig(dtds.Hospital(), 0, engineConfig)
	if _, err := reg.Define(nurseClass, nurseAnnotations); err != nil {
		return nil, err
	}
	doc, err := xmltree.ParseString(genDocXML(p.w.Doc, seed))
	if err != nil {
		return nil, fmt.Errorf("parse generated document: %w", err)
	}
	if err := xmltree.Validate(doc, reg.DTD()); err != nil {
		return nil, fmt.Errorf("generated document does not conform: %w", err)
	}
	in := &instance{reg: reg, doc: doc, handler: serve.New(reg, doc, serveConfig).Handler()}
	c := newClient(p, in.handler)
	for _, r := range p.warmPairs(seed) {
		if status := c.do(r); status != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s: status %d: %s", p.describe(r), status, strings.TrimSpace(c.w.body.String()))
		}
	}
	return in, nil
}

func (p *plan) describe(r pair) string {
	return fmt.Sprintf("wardNo=%s q=%q", p.wards[r.ward], p.queries[r.query])
}

// capture is the ResponseWriter the in-process client hands the
// handler: it keeps the status and body for verification.
type capture struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (c *capture) Header() http.Header { return c.header }

func (c *capture) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
}

func (c *capture) Write(b []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	return c.body.Write(b)
}

func (c *capture) reset() {
	clear(c.header)
	c.status = 0
	c.body.Reset()
}

// hashSeed keys every body hash of one process.
var hashSeed = maphash.MakeSeed()

// client issues requests through the handler, one at a time.
type client struct {
	p *plan
	h http.Handler
	w capture
}

func newClient(p *plan, h http.Handler) *client {
	return &client{p: p, h: h, w: capture{header: http.Header{}}}
}

// do serves one request and returns its status; the body stays in c.w.
func (c *client) do(r pair) int {
	c.w.reset()
	c.h.ServeHTTP(&c.w, &http.Request{
		Method:     http.MethodGet,
		URL:        &url.URL{Path: "/query", RawQuery: c.p.rawQuery(r)},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Host:       "perfbench",
	})
	return c.w.status
}

// tally counts one client's outcomes. Answers of verified wards are
// kept as (pair → body hash → count), so the verifier can check every
// one of them after the timed phases without storing bodies.
type tally struct {
	// non200 counts requests that got no 200 answer, dropped ones too.
	attempted, non200 int
	answers           map[pair]map[uint64]int
}

func newTally() *tally { return &tally{answers: map[pair]map[uint64]int{}} }

func (t *tally) record(r pair, status int, body []byte, verify []bool) {
	t.attempted++
	if status != http.StatusOK {
		t.non200++
		return
	}
	if !verify[r.ward] {
		return
	}
	m := t.answers[r]
	if m == nil {
		m = map[uint64]int{}
		t.answers[r] = m
	}
	m[maphash.Bytes(hashSeed, body)]++
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.non200 += o.non200
	for r, hs := range o.answers {
		m := t.answers[r]
		if m == nil {
			m = map[uint64]int{}
			t.answers[r] = m
		}
		for h, n := range hs {
			m[h] += n
		}
	}
}

// completions counts one client's completions in a closed-loop
// segment, with the times of the first and the last.
type completions struct {
	n           int
	first, last time.Duration
}

func (s *completions) add(at time.Duration) {
	if s.n == 0 {
		s.first = at
	}
	s.last = at
	s.n++
}

// rate is the segment's completions per second, measured between its
// first and last completion so the figure is not rounded to whole
// requests per segment.
func (s completions) rate() float64 {
	if s.n < 2 || s.last <= s.first {
		return 0
	}
	return float64(s.n-1) / (s.last - s.first).Seconds()
}

// closedLoop runs one back-to-back request loop per rng for d and
// returns their merged tally, the requests per second they completed
// together, and each request's latency in ns. Time the hypervisor gave
// this machine's processors to other guests during the segment was not
// the program's, so that share is taken out of its time.
func closedLoop(p *plan, h http.Handler, rngs []*rand.Rand, d time.Duration, verify []bool) (*tally, float64, []int64) {
	tallies := make([]*tally, len(rngs))
	done := make([]completions, len(rngs))
	latency := make([][]int64, len(rngs))
	s0, t0, ok := cpuTicks()
	var wg sync.WaitGroup
	start := time.Now()
	for i, rng := range rngs {
		tallies[i] = newTally()
		wg.Add(1)
		go func(i int, rng *rand.Rand) {
			defer wg.Done()
			c := newClient(p, h)
			for at := time.Duration(0); at < d; {
				r := p.draw(rng)
				sent := time.Since(start)
				status := c.do(r)
				at = time.Since(start)
				latency[i] = append(latency[i], int64(at-sent))
				tallies[i].record(r, status, c.w.body.Bytes(), verify)
				done[i].add(at)
			}
		}(i, rng)
	}
	wg.Wait()
	rate := 0.0
	for i, t := range tallies {
		if i > 0 {
			tallies[0].merge(t)
			latency[0] = append(latency[0], latency[i]...)
		}
		rate += done[i].rate()
	}
	if s1, t1, ok1 := cpuTicks(); ok && ok1 && t1 > t0 {
		rate /= 1 - float64(s1-s0)/float64(t1-t0)
	}
	return tallies[0], rate, latency[0]
}

// clientRngs returns the request streams of the closed-loop clients.
func clientRngs(seed int64) []*rand.Rand {
	rngs := make([]*rand.Rand, closedClients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(streamSeed(seed, streamClient+i)))
	}
	return rngs
}

// openSchedule draws the open loop's requests and their due times,
// offsets from the phase start with exponential gaps of mean 1/rps.
func openSchedule(p *plan, seed int64, rps float64, d time.Duration) (due []time.Duration, reqs []pair) {
	rng := rand.New(rand.NewSource(streamSeed(seed, streamOpen)))
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rps * float64(time.Second))
		if t >= d {
			return due, reqs
		}
		due = append(due, t)
		reqs = append(reqs, p.draw(rng))
	}
}

// openLoopResult is one open-loop phase: latencies measured from each
// request's due time, and how late the generator released each one.
type openLoopResult struct {
	tally   *tally
	latency []int64 // ns, in schedule order
	late    []int64 // ns
	dropped int
}

// openLoop sends requests at a seeded Poisson schedule of rps for d,
// served by workers. A request is timed from its due time, so a stall
// also counts against the requests queued behind it. Requests still
// queued once the phase has overrun by d are dropped and count as
// failed.
func openLoop(p *plan, h http.Handler, seed int64, workers int, rps float64, d time.Duration, verify []bool) *openLoopResult {
	due, reqs := openSchedule(p, seed, rps, d)
	res := &openLoopResult{tally: newTally(), late: make([]int64, len(due)), latency: make([]int64, len(due))}
	// The queue holds the whole schedule, so the generator never waits
	// on the workers: a backlog shows up as latency, not as a late send.
	queue := make(chan int, len(due))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	cutoff := start.Add(2 * d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(p, h)
			t := newTally()
			dropped := 0
			for i := range queue {
				if time.Now().After(cutoff) {
					res.latency[i] = -1
					dropped++
					continue
				}
				status := c.do(reqs[i])
				res.latency[i] = int64(time.Since(start.Add(due[i])))
				t.record(reqs[i], status, c.w.body.Bytes(), verify)
			}
			mu.Lock()
			res.tally.merge(t)
			res.dropped += dropped
			mu.Unlock()
		}()
	}
	// The generator runs on a thread of its own, which it takes down
	// when it exits: it sleeps there with a fine timer slack (see
	// sleepUntil).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		runtime.LockOSThread()
		fineTimerSlack()
		for i, at := range due {
			sleepUntil(start.Add(at))
			res.late[i] = int64(time.Since(start.Add(at)))
			queue <- i
		}
	}()
	wg.Wait()
	res.latency = slices.DeleteFunc(res.latency, func(ns int64) bool { return ns < 0 })
	res.tally.attempted += res.dropped
	res.tally.non200 += res.dropped
	return res
}
