package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// spanName names a span: one call into a layer's public function, in
// the order serve's /query handler makes them, plus the benchmark's
// own request and re-plan spans that parent them.
type spanName uint8

const (
	spRequest   spanName = iota // one replayed request
	spEngine                    // policy: Registry.Class + Class.EngineCtx
	spParse                     // xpath.Parse
	spPlan                      // core: Engine.Prepare (plan-cache lookup, build on a miss)
	spEval                      // Engine.QueryCtx with the plan cached
	spSerialize                 // Node.String over the answer plus the envelope
	spReplan                    // after a plan miss: the plan rebuilt stage by stage
	spRewrite                   // Engine.Rewrite
	spOptimize                  // Engine.Optimize
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "policy.engine", "xpath.parse", "core.plan", "xpath.eval",
	"xmltree.serialize", "replan", "rewrite", "optimize",
}

// layerSpans are the children of a request span whose durations add up
// to the layers' share of it.
var layerSpans = []spanName{spEngine, spParse, spPlan, spEval, spSerialize}

// span is one timed call. Times are ns since the replay started; ids
// start at 1 and parent 0 means a root. miss marks engine and plan
// spans whose cache missed.
type span struct {
	req, id, parent uint32
	name            spanName
	miss            bool
	start, end      int64
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its id.
func (t *tracer) add(req, parent uint32, name spanName, start, end int64, miss bool) uint32 {
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, span{req: req, id: id, parent: parent, name: name, miss: miss, start: start, end: end})
	return id
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval its children cover.
func selfTimes(spans []span) [numSpanNames]int64 {
	children := map[uint32][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var out [numSpanNames]int64
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, reach), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.name] += s.end - s.start - covered
	}
	return out
}

// spanRecord is one line of the span file.
type spanRecord struct {
	Req     uint32 `json:"req"`
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Cache is "hit" or "miss" on policy.engine and core.plan spans.
	Cache string `json:"cache,omitempty"`
}

// writeSpans writes one JSON record per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := spanRecord{Req: s.req, ID: s.id, Parent: s.parent, Name: spanNames[s.name], StartNs: s.start, EndNs: s.end}
		if s.name == spEngine || s.name == spPlan {
			rec.Cache = "hit"
			if s.miss {
				rec.Cache = "miss"
			}
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// planTracker tells plan-cache hits from misses of Engine.Prepare. A
// Prepared seen before is a hit; a new one is a miss exactly when the
// engine's plan-cache miss counter moved, since a warm plan from set-up
// is new to the tracker but not to the cache. Evictions happen only on
// misses, so reading the counters then counts all of them.
type planTracker struct {
	byWard    map[int32]*enginePlans
	evictions uint64
}

type enginePlans struct {
	e                 *core.Engine
	seen              map[*core.Prepared]bool
	misses, evictions uint64
}

// engine starts tracking the engine a ward's request got, before
// Prepare runs on it.
func (t *planTracker) engine(ward int32, e *core.Engine) *enginePlans {
	ep := t.byWard[ward]
	if ep == nil || ep.e != e {
		st := e.Stats().PlanCache
		ep = &enginePlans{e: e, seen: map[*core.Prepared]bool{}, misses: st.Misses, evictions: st.Evictions}
		t.byWard[ward] = ep
	}
	return ep
}

func (t *planTracker) missed(ep *enginePlans, prep *core.Prepared) bool {
	if ep.seen[prep] {
		return false
	}
	ep.seen[prep] = true
	st := ep.e.Stats().PlanCache
	miss := st.Misses != ep.misses
	t.evictions += st.Evictions - ep.evictions
	ep.misses, ep.evictions = st.Misses, st.Evictions
	return miss
}

// traceResult holds what the traced run measured.
type traceResult struct {
	spans      []span
	requests   int
	engineMiss int
	planMiss   int
	evictions  uint64
	resultN    int
	serveNs    int64
	// replanned counts plans rebuilt by stage, with their sizes.
	replanned        int
	rewriteNodes     int
	optimizeNodes    int
	evalAllocs       uint64
	serializeAllocs  uint64
	serializeBytes   uint64
	isolatedRequests int
	tally            *tally
}

// replayer runs requests through instance a layer by layer, with a
// span around each call, and through the twin instance b whole via
// ServeHTTP. Both start from the same set-up and see the same
// requests, so their caches hit and miss alike, and b's request time
// is the untraced cost of the same work.
type replayer struct {
	p      *plan
	a, b   *instance
	params []map[string]string
	tr     tracer
	plans  planTracker
	res    *traceResult
	cb     *client
	verify []bool
}

func tracedReplay(p *plan, a, b *instance, seed int64, d time.Duration, verify []bool) (*traceResult, error) {
	rp := &replayer{
		p: p, a: a, b: b,
		plans:  planTracker{byWard: map[int32]*enginePlans{}},
		res:    &traceResult{tally: newTally()},
		cb:     newClient(p, b.handler),
		verify: verify,
	}
	for _, w := range p.wards {
		rp.params = append(rp.params, map[string]string{"wardNo": w})
	}
	rng := rand.New(rand.NewSource(streamSeed(seed, streamTrace)))
	var replayed []pair
	rp.tr.t0 = time.Now()
	deadline := rp.tr.t0.Add(d)
	for i := uint32(1); time.Now().Before(deadline); i++ {
		req := p.draw(rng)
		// Alternate which twin goes first, so neither always finds the
		// other's data warm in the processor caches.
		if i%2 == 0 {
			rp.serve(req)
		}
		if err := rp.layered(i, req); err != nil {
			return nil, err
		}
		if i%2 == 1 {
			rp.serve(req)
		}
		if len(replayed) < isolatedRequests {
			replayed = append(replayed, req)
		}
		rp.res.requests++
	}
	if rp.res.replanned == 0 {
		// Every plan hit, so rebuild each of the mix's plans once to
		// still report what a plan costs to build.
		for i, r := range p.entries {
			if err := rp.replan(uint32(rp.res.requests+1+i), r); err != nil {
				return nil, err
			}
		}
	}
	rp.res.evictions = rp.plans.evictions
	if err := rp.isolated(replayed); err != nil {
		return nil, err
	}
	rp.res.spans = rp.tr.spans
	return rp.res, nil
}

// serve sends one request through b's handler, timed whole.
func (rp *replayer) serve(r pair) {
	start := time.Now()
	status := rp.cb.do(r)
	rp.res.serveNs += int64(time.Since(start))
	rp.res.tally.record(r, status, rp.cb.w.body.Bytes(), rp.verify)
}

// layered sends one request through a's layers, a span per call.
func (rp *replayer) layered(id uint32, r pair) error {
	tr := &rp.tr
	qm := &obs.QueryMetrics{}
	ctx := obs.WithQueryMetrics(context.Background(), qm)
	t0 := tr.now()
	c, ok := rp.a.reg.Class(nurseClass)
	if !ok {
		return fmt.Errorf("class %q not defined", nurseClass)
	}
	e, err := c.EngineCtx(ctx, rp.params[r.ward])
	t1 := tr.now()
	if err != nil {
		return err
	}
	ep := rp.plans.engine(r.ward, e)
	t1b := tr.now()
	q, err := xpath.Parse(rp.p.queries[r.query])
	t2 := tr.now()
	if err != nil {
		return err
	}
	prep, err := e.Prepare(q)
	t3 := tr.now()
	if err != nil {
		return err
	}
	planMiss := rp.plans.missed(ep, prep)
	t3b := tr.now()
	nodes, err := e.QueryCtx(ctx, rp.a.doc, q)
	t4 := tr.now()
	if err != nil {
		return err
	}
	var b strings.Builder
	writeResult(&b, nodes)
	t5 := tr.now()

	root := tr.add(id, 0, spRequest, t0, t5, false)
	tr.add(id, root, spEngine, t0, t1, !qm.EngineCacheHit)
	tr.add(id, root, spParse, t1b, t2, false)
	tr.add(id, root, spPlan, t2, t3, planMiss)
	tr.add(id, root, spEval, t3b, t4, false)
	tr.add(id, root, spSerialize, t4, t5, false)
	rp.res.resultN += len(nodes)
	if !qm.EngineCacheHit {
		rp.res.engineMiss++
	}
	if planMiss {
		rp.res.planMiss++
		return rp.replanWith(id, e, q)
	}
	return nil
}

// replan rebuilds one request's plan stage by stage.
func (rp *replayer) replan(id uint32, r pair) error {
	c, _ := rp.a.reg.Class(nurseClass)
	e, err := c.EngineCtx(context.Background(), rp.params[r.ward])
	if err != nil {
		return err
	}
	q, err := xpath.Parse(rp.p.queries[r.query])
	if err != nil {
		return err
	}
	return rp.replanWith(id, e, q)
}

// replanWith times Engine.Rewrite and Engine.Optimize on q under a
// replan root span, outside the request it follows. The miss itself
// has already run, so state an engine builds lazily on its first plan
// is warm here; that first-use cost stays in the request's core.plan.
func (rp *replayer) replanWith(id uint32, e *core.Engine, q xpath.Path) error {
	tr := &rp.tr
	t0 := tr.now()
	pt, err := e.Rewrite(q, rp.a.doc.Height())
	t1 := tr.now()
	if err != nil {
		return err
	}
	po := e.Optimize(pt)
	t2 := tr.now()
	root := tr.add(id, 0, spReplan, t0, t2, false)
	tr.add(id, root, spRewrite, t0, t1, false)
	tr.add(id, root, spOptimize, t1, t2, false)
	rp.res.replanned++
	rp.res.rewriteNodes += xpath.Size(pt)
	rp.res.optimizeNodes += xpath.Size(po)
	return nil
}

// isolatedRequests bounds the isolated allocation pass.
const isolatedRequests = 2048

// isolated counts the allocations of evaluation and of serialization
// alone: each batch is prepared first (engine, parse, plan), then its
// evaluations run between two memory-statistics reads, then its
// serializations.
func (rp *replayer) isolated(reqs []pair) error {
	const batch = 256
	c, _ := rp.a.reg.Class(nurseClass)
	var m0, m1 runtime.MemStats
	for lo := 0; lo < len(reqs); lo += batch {
		part := reqs[lo:min(lo+batch, len(reqs))]
		engines := make([]*core.Engine, len(part))
		queries := make([]xpath.Path, len(part))
		ctxs := make([]context.Context, len(part))
		answers := make([][]*xmltree.Node, len(part))
		for i, r := range part {
			e, err := c.EngineCtx(context.Background(), rp.params[r.ward])
			if err != nil {
				return err
			}
			q, err := xpath.Parse(rp.p.queries[r.query])
			if err != nil {
				return err
			}
			if _, err := e.Prepare(q); err != nil {
				return err
			}
			engines[i], queries[i] = e, q
			ctxs[i] = obs.WithQueryMetrics(context.Background(), &obs.QueryMetrics{})
		}
		runtime.ReadMemStats(&m0)
		for i := range part {
			out, err := engines[i].QueryCtx(ctxs[i], rp.a.doc, queries[i])
			if err != nil {
				return err
			}
			answers[i] = out
		}
		runtime.ReadMemStats(&m1)
		rp.res.evalAllocs += m1.Mallocs - m0.Mallocs
		runtime.ReadMemStats(&m0)
		for i := range part {
			var b strings.Builder
			writeResult(&b, answers[i])
		}
		runtime.ReadMemStats(&m1)
		rp.res.serializeAllocs += m1.Mallocs - m0.Mallocs
		rp.res.serializeBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	rp.res.isolatedRequests = len(reqs)
	return nil
}
