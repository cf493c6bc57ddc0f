// Command perfbench is the repository's serving benchmark. It sets up
// the query server in process, drives its /query handler through
// ServeHTTP with no sockets in between, and verifies every answer it
// checks against the paper's definition p(T_v) = p_t(T).
//
// A run serves one workload (see workload.go) generated from --seed.
// With --trace 0 it reports the end-to-end metrics of two closed-loop
// clients over --seconds: set-up time, throughput, request latency,
// allocations per request and the live heap. With --trace 1 it replays
// the workload through the public function of each layer, with a span
// around every call, reports each layer's time and cache ratios, and
// writes the spans to --spans; an open loop at the workload's fixed
// rate then measures how late its generator sends.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A human-readable table, with the sample counts, goes to standard
// error. The exit status is non-zero when any answer was wrong or
// missing. From the repository root:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Driver settings: the closed loop runs one client per core of the
// machine the benchmark was sized on, and the open loop as many
// workers.
const (
	closedClients = 2
	openWorkers   = 2
	// Set-up runs at least minSetups times and until setupBudget has
	// passed (at most maxSetups times); setup_s is the median.
	minSetups   = 5
	maxSetups   = 100
	setupBudget = time.Second
	// After a warm-up of a tenth of --seconds, the closed loop is
	// measured in measureSegments equal segments; throughput is the
	// median segment's rate, so a slow stretch of the host does not set
	// it. Latency is taken in the closed loop because both cores stay
	// busy there: at an open-loop rate the cores idle between requests,
	// and on a shared virtual machine an idle core can take milliseconds
	// to wake, which moved open-loop percentiles by 2x between runs.
	measureSegments = 10
	// latencyWindow is the fewest requests a latency window holds: its
	// p99 then has at least five samples beyond it.
	latencyWindow = 500
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "hot-small", "workload to run: hot-small, large-descend or churn")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "measured time of the run")
		trace   = flag.Int("trace", 0, "1 replays the workload layer by layer and reports per-layer metrics")
		spans   = flag.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>.jsonl)")
		printCf = flag.Bool("print-config", false, "print the configuration the benchmark runs (the content of config.json) and exit")
	)
	flag.Parse()
	if *printCf {
		os.Stdout.Write(effectiveConfig())
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *spans == "" {
		*spans = ".bench_build/spans-" + w.Name + ".jsonl"
	}
	reportConfigDrift()
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = runTraced(newPlan(w), *seed, d, *spans)
	} else {
		res, err = runEndToEnd(newPlan(w), *seed, d)
	}
	if err != nil {
		fatal(err)
	}
	printTable(res)
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runEndToEnd sets up repeatedly, then warms up and measures the closed
// loop on the last instance (see measureSegments), and verifies the
// answers afterwards.
func runEndToEnd(p *plan, seed int64, d time.Duration) (*result, error) {
	var in *instance
	var setups []float64
	for began := time.Now(); len(setups) < maxSetups && (len(setups) < minSetups || time.Since(began) < setupBudget); {
		runtime.GC() // collect the previous instance outside the timing
		start := time.Now()
		var err error
		if in, err = setUp(p, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	verify := p.verifyWard(seed)
	rngs := clientRngs(seed)
	warm := d / 10
	segment := (d - warm) / measureSegments
	runtime.GC()

	closed, _, _ := closedLoop(p, in.handler, rngs, warm, verify)
	measured := newTally()
	var rates []float64
	var latency []int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < measureSegments; k++ {
		t, rate, lat := closedLoop(p, in.handler, rngs, segment, verify)
		measured.merge(t)
		rates = append(rates, rate)
		latency = append(latency, lat...)
	}
	runtime.ReadMemStats(&m1)
	closed.merge(measured)

	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	runtime.KeepAlive(in)

	v, err := newVerifier(p, in.doc)
	if err != nil {
		return nil, err
	}
	closedBad, err := v.check(closed)
	if err != nil {
		return nil, err
	}
	attempted := closed.attempted
	failed := closed.non200 + closedBad
	p50, windows := windowedQuantile(latency, 0.50)
	p99, _ := windowedQuantile(latency, 0.99)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: closed loop %d requests (%d clients; %d measured in %d segments of %v after %v warm-up, %d latency samples in %d windows); %d set-ups; %d wrong answers\n",
		p.w.Name, seed, closed.attempted, closedClients, measured.attempted, measureSegments, segment, warm, len(latency), windows, len(setups), closedBad)
	n := float64(measured.attempted)
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"throughput_rps": {median(rates) * float64(closed.attempted-closed.non200-closedBad) / float64(closed.attempted), "1/s"},
			"latency_p50_us": {float64(p50) / 1e3, "us"},
			"latency_p99_us": {float64(p99) / 1e3, "us"},
			"allocs_per_req": {float64(m1.Mallocs-m0.Mallocs) / n, "count"},
			"bytes_per_req":  {float64(m1.TotalAlloc-m0.TotalAlloc) / n, "B"},
			"heap_live_mb":   {float64(heap.HeapInuse) / (1 << 20), "MiB"},
		},
	}, nil
}

// runTraced sets up two identical instances, replays the workload
// through both for three quarters of d (see tracedReplay), then runs the
// open loop for the rest to measure how late its generator sends.
func runTraced(p *plan, seed int64, d time.Duration, spansPath string) (*result, error) {
	a, err := setUp(p, seed)
	if err != nil {
		return nil, err
	}
	b, err := setUp(p, seed)
	if err != nil {
		return nil, err
	}
	verify := p.verifyWard(seed)
	runtime.GC()
	tr, err := tracedReplay(p, a, b, seed, d*3/4, verify)
	if err != nil {
		return nil, err
	}
	open := openLoop(p, b.handler, seed, openWorkers, p.w.OpenLoopRPS, d/4, verify)

	v, err := newVerifier(p, b.doc)
	if err != nil {
		return nil, err
	}
	replayBad, err := v.check(tr.tally)
	if err != nil {
		return nil, err
	}
	openBad, err := v.check(open.tally)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	self := selfTimes(tr.spans)
	var spanDur [numSpanNames]int64
	var deriveNs int64
	for _, s := range tr.spans {
		spanDur[s.name] += s.end - s.start
		if s.name == spEngine && s.miss {
			deriveNs += s.end - s.start
		}
	}
	var layerNs int64
	for _, l := range layerSpans {
		layerNs += spanDur[l]
	}
	n := float64(tr.requests)
	perReqUs := func(ns int64) float64 { return float64(ns) / n / 1e3 }
	perUs := func(ns int64, k int) float64 {
		if k == 0 {
			return 0
		}
		return float64(ns) / float64(k) / 1e3
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	iso := float64(tr.isolatedRequests)
	serveUs := perReqUs(tr.serveNs)
	slices.Sort(open.late)
	attempted := tr.tally.attempted + open.tally.attempted
	failed := tr.tally.non200 + replayBad + open.tally.non200 + openBad
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: traced %d requests (%d engine misses, %d plan misses, %d plans rebuilt); isolated pass %d requests; %d spans written to %s; %d wrong answers\n",
		p.w.Name, seed, tr.requests, tr.engineMiss, tr.planMiss, tr.replanned, tr.isolatedRequests, len(tr.spans), spansPath, replayBad+openBad)
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"policy.engine_us":                 {perReqUs(self[spEngine]), "us"},
			"policy.engine_hit_ratio":          {1 - float64(tr.engineMiss)/n, "ratio"},
			"policy.derive_us":                 {perUs(deriveNs, tr.engineMiss), "us"},
			"xpath.parse_us":                   {perReqUs(self[spParse]), "us"},
			"core.plan_us":                     {perReqUs(self[spPlan]), "us"},
			"plancache.hit_ratio":              {1 - float64(tr.planMiss)/n, "ratio"},
			"plancache.evictions_per_kreq":     {float64(tr.evictions) * 1000 / n, "count"},
			"rewrite.us_per_miss":              {perUs(spanDur[spRewrite], tr.replanned), "us"},
			"rewrite.plan_nodes":               {ratio(float64(tr.rewriteNodes), float64(tr.replanned)), "count"},
			"optimize.us_per_miss":             {perUs(spanDur[spOptimize], tr.replanned), "us"},
			"optimize.plan_nodes":              {ratio(float64(tr.optimizeNodes), float64(tr.replanned)), "count"},
			"optimize.growth_ratio":            {ratio(float64(tr.optimizeNodes), float64(tr.rewriteNodes)), "ratio"},
			"xpath.eval_us":                    {perReqUs(self[spEval]), "us"},
			"xpath.result_nodes_per_req":       {float64(tr.resultN) / n, "count"},
			"xpath.eval_allocs_per_req":        {float64(tr.evalAllocs) / iso, "count"},
			"xmltree.serialize_us":             {perReqUs(self[spSerialize]), "us"},
			"xmltree.serialize_bytes_per_req":  {float64(tr.serializeBytes) / iso, "B"},
			"xmltree.serialize_allocs_per_req": {float64(tr.serializeAllocs) / iso, "count"},
			"serve.request_us":                 {serveUs, "us"},
			"serve.span_sum_us":                {perReqUs(layerNs), "us"},
			"serve.unattributed_us":            {serveUs - perReqUs(layerNs), "us"},
			"bench.trace_overhead_frac":        {ratio(float64(self[spRequest]), float64(spanDur[spRequest])), "ratio"},
			"bench.gen_late_us":                {float64(quantile(open.late, 0.99)) / 1e3, "us"},
		},
	}, nil
}

// quantile returns the nearest-rank q-quantile of ascending samples:
// the smallest sample with at least a q share of all samples at or
// below it.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// windowedQuantile splits latencies, in schedule order, into as many
// consecutive windows of at least latencyWindow samples as fit (one if
// fewer), and returns the median of the windows' q-quantiles, so a stall
// in a minority of windows does not set the run's figure.
func windowedQuantile(latency []int64, q float64) (v int64, windows int) {
	windows = max(len(latency)/latencyWindow, 1)
	var qs []float64
	for w := 0; w < windows; w++ {
		win := slices.Clone(latency[w*len(latency)/windows : (w+1)*len(latency)/windows])
		slices.Sort(win)
		qs = append(qs, float64(quantile(win, q)))
	}
	return int64(median(qs)), windows
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%t attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
