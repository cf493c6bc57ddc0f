package xpath

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nodeset"
	"repro/internal/xmltree"
)

// DefaultParallelThreshold is the context-set / document size below
// which the parallel evaluator falls back to the sequential fast path:
// goroutine and merge overhead beats the win on small inputs.
const DefaultParallelThreshold = 512

// ParallelConfig tunes EvalDocParallel / EvalAtParallel. The zero value
// selects sensible defaults.
type ParallelConfig struct {
	// Workers bounds the number of extra goroutines evaluating at once
	// (the calling goroutine always works too). 0 means GOMAXPROCS.
	Workers int
	// Threshold is the minimum input size (document nodes, or context
	// nodes for partitioned steps) that turns parallelism on. 0 means
	// DefaultParallelThreshold; negative forces parallelism for tests.
	Threshold int
}

func (c ParallelConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c ParallelConfig) threshold() int {
	switch {
	case c.Threshold > 0:
		return c.Threshold
	case c.Threshold < 0:
		return 1
	}
	return DefaultParallelThreshold
}

// ParallelStats counts the parallel evaluator's decisions. Counters are
// atomic so one Stats value can be shared by concurrent evaluations.
type ParallelStats struct {
	// SequentialEvals counts top-level calls that stayed on the
	// sequential fast path (input under threshold).
	SequentialEvals atomic.Uint64
	// ParallelEvals counts top-level calls that used the parallel
	// evaluator.
	ParallelEvals atomic.Uint64
	// UnionForks counts union branches evaluated on their own goroutine.
	UnionForks atomic.Uint64
	// Partitions counts context-set chunks handed to the worker pool by
	// partitioned Descend and qualifier-filter steps.
	Partitions atomic.Uint64
}

// Snapshot returns a plain-value copy of the counters.
func (s *ParallelStats) Snapshot() (sequential, parallel, unionForks, partitions uint64) {
	return s.SequentialEvals.Load(), s.ParallelEvals.Load(), s.UnionForks.Load(), s.Partitions.Load()
}

// AddFrom accumulates another stats value's counters into s, so a
// per-call local ParallelStats (which reports one request's fan-out)
// can roll up into an engine-wide aggregate.
func (s *ParallelStats) AddFrom(o *ParallelStats) {
	if o == nil {
		return
	}
	s.SequentialEvals.Add(o.SequentialEvals.Load())
	s.ParallelEvals.Add(o.ParallelEvals.Load())
	s.UnionForks.Add(o.UnionForks.Load())
	s.Partitions.Add(o.Partitions.Load())
}

// EvalDocParallel evaluates a query over a whole document like
// EvalDocErr, fanning union branches and large descendant context sets
// out over a bounded worker pool. Documents smaller than the threshold
// take the sequential path unchanged. stats may be nil.
func EvalDocParallel(p Path, doc *xmltree.Document, cfg ParallelConfig, stats *ParallelStats) ([]*xmltree.Node, error) {
	return EvalDocParallelCtx(nil, p, doc, cfg, stats)
}

// EvalDocParallelCtx is EvalDocParallel honoring a context: every worker
// polls for cancellation cooperatively (at path steps, partition
// boundaries, and inside per-node loops) and the evaluation returns
// ctx.Err() once the context is done, after draining the in-flight
// workers so no goroutine outlives the call. A nil context disables the
// checks.
func EvalDocParallelCtx(ctx context.Context, p Path, doc *xmltree.Document, cfg ParallelConfig, stats *ParallelStats) ([]*xmltree.Node, error) {
	if doc.Size() < cfg.threshold() {
		if stats != nil {
			stats.SequentialEvals.Add(1)
		}
		return EvalDocCtx(ctx, p, doc)
	}
	return EvalAtParallelCtx(ctx, p, []*xmltree.Node{doc.Root}, cfg, stats)
}

// EvalAtParallel evaluates at a set of context nodes like EvalAtErr,
// with parallel union fan-out and descendant partitioning. The gate is
// the total subtree size under the context nodes. stats may be nil.
func EvalAtParallel(p Path, ctx []*xmltree.Node, cfg ParallelConfig, stats *ParallelStats) ([]*xmltree.Node, error) {
	return EvalAtParallelCtx(nil, p, ctx, cfg, stats)
}

// EvalAtParallelCtx is EvalAtParallel honoring a context; see
// EvalDocParallelCtx.
func EvalAtParallelCtx(ctx context.Context, p Path, nodes []*xmltree.Node, cfg ParallelConfig, stats *ParallelStats) ([]*xmltree.Node, error) {
	thresh := cfg.threshold()
	// The gate and evaluation both need the canonical (sorted,
	// deduplicated) context: summing subtree sizes over the raw set
	// double-counts when callers pass duplicates or overlapping nodes
	// (an ancestor and its descendant), which would flip the gate to
	// parallel on inputs that are really below threshold. Contexts that
	// already arrive canonical — ordinal-sorted outputs from the indexed
	// and bitset paths, or a single root — are used as-is; only the rest
	// pay a copy, and that copy comes from pooled scratch instead of a
	// fresh allocation per call. The scratch is released on return:
	// evaluation never retains or returns its context (leaf Self copies),
	// so nothing downstream aliases it.
	if !docOrdered(nodes) {
		scratch := ctxScratchPool.Get().(*[]*xmltree.Node)
		*scratch = append((*scratch)[:0], nodes...)
		nodes = xmltree.SortDocOrder(*scratch)
		defer func() {
			*scratch = (*scratch)[:0]
			ctxScratchPool.Put(scratch)
		}()
	}
	size := xmltree.CoverSize(nodes)
	if size < thresh {
		if stats != nil {
			stats.SequentialEvals.Add(1)
		}
		return EvalAtCtx(ctx, p, nodes)
	}
	if stats != nil {
		stats.ParallelEvals.Add(1)
	}
	e := &pEval{ctx: ctx, sem: make(chan struct{}, cfg.workers()), threshold: thresh, stats: stats}
	if ctx != nil {
		e.deadline, e.timed = ctx.Deadline()
	}
	if err := e.cancelled(); err != nil {
		return nil, err
	}
	out, err := e.eval(p, nodes)
	if err != nil {
		return nil, err
	}
	return unionDocOrder(out), nil
}

// ctxScratchPool recycles the context-copy slices EvalAtParallelCtx
// needs for non-canonical inputs. Entries keep their capacity, so a
// steady request mix stops growing them almost immediately.
var ctxScratchPool = sync.Pool{New: func() any { return new([]*xmltree.Node) }}

// docOrdered reports whether nodes are already canonical: strictly
// increasing in document order, all carrying fresh numbering from one
// document. Strict increase implies deduplication (within one
// renumbered document an ordinal identifies its node), so a true
// return means SortDocOrder would be the identity.
func docOrdered(nodes []*xmltree.Node) bool {
	if len(nodes) == 0 {
		return true
	}
	d := nodes[0].Owner()
	if d == nil {
		return false
	}
	prev := -1
	for _, n := range nodes {
		if n.Owner() != d || n.Ord() <= prev {
			return false
		}
		prev = n.Ord()
	}
	return true
}

// unionDocOrder merges result fragments into one sorted, deduplicated
// slice. When every node carries fresh numbering from one compacted
// document the merge is a pooled-bitset OR plus one ascending
// materialization — O(total + universe/64) with a single exactly-sized
// allocation — replacing the O(n log n) sort the slice merge pays.
// Mixed, stale, or uncompacted inputs fall back to that sort.
func unionDocOrder(parts ...[]*xmltree.Node) []*xmltree.Node {
	total := 0
	var d *xmltree.Document
	for _, part := range parts {
		total += len(part)
		if d == nil && len(part) > 0 {
			d = part[0].Owner()
		}
	}
	if total == 0 {
		return nil
	}
	if d == nil || !d.Compacted() {
		return sortMerge(parts, total)
	}
	s := nodeset.Get(d.Size())
	defer nodeset.Put(s)
	for _, part := range parts {
		for _, n := range part {
			if n.Owner() != d {
				return sortMerge(parts, total)
			}
			s.Add(n.Ord())
		}
	}
	byOrd := d.Nodes()
	out := make([]*xmltree.Node, 0, s.Count())
	s.ForEach(func(ord int) { out = append(out, byOrd[ord]) })
	return out
}

// sortMerge is unionDocOrder's fallback: concatenate and sort.
func sortMerge(parts [][]*xmltree.Node, total int) []*xmltree.Node {
	out := make([]*xmltree.Node, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return xmltree.SortDocOrder(out)
}

// pEval is one parallel evaluation: the cancellation context, a token
// bucket bounding extra goroutines, the partition granularity, and
// optional counters. The document tree is read-only during evaluation,
// so workers share it freely; every intermediate slice is
// goroutine-local, and each worker polls the shared context through its
// own seqEval so cancellation needs no cross-goroutine coordination
// beyond ctx.Done().
type pEval struct {
	ctx       context.Context
	sem       chan struct{}
	threshold int
	stats     *ParallelStats
	deadline  time.Time
	timed     bool
}

// cancelled polls the evaluation's context (deadline-aware; see pollCtx).
// It is called at every path step and before every partition chunk, so a
// cancelled evaluation stops descending promptly; in-flight workers
// notice through their own per-goroutine polls.
func (e *pEval) cancelled() error {
	if e.ctx == nil {
		return nil
	}
	return pollCtx(e.ctx, e.deadline, e.timed)
}

// tryAcquire claims a worker token without blocking; callers that get
// none do the work inline, which keeps the pool deadlock-free no matter
// how deeply unions nest.
func (e *pEval) tryAcquire() bool {
	select {
	case e.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (e *pEval) release() { <-e.sem }

func (e *pEval) eval(p Path, ctx []*xmltree.Node) ([]*xmltree.Node, error) {
	if len(ctx) == 0 {
		return nil, nil
	}
	if err := e.cancelled(); err != nil {
		return nil, err
	}
	switch p := p.(type) {
	case Seq:
		mid, err := e.eval(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		return e.eval(p.Right, xmltree.SortDocOrder(mid))
	case Descend:
		dos, err := newSeqEval(e.ctx).descendantOrSelf(ctx)
		if err != nil {
			return nil, err
		}
		return e.evalChunked(p.Sub, dos)
	case Union:
		if e.tryAcquire() {
			if e.stats != nil {
				e.stats.UnionForks.Add(1)
			}
			var (
				left    []*xmltree.Node
				leftErr error
				done    = make(chan struct{})
			)
			go func() {
				defer close(done)
				defer e.release()
				left, leftErr = e.eval(p.Left, ctx)
			}()
			right, rightErr := e.eval(p.Right, ctx)
			<-done
			if leftErr != nil {
				return nil, leftErr
			}
			if rightErr != nil {
				return nil, rightErr
			}
			return unionDocOrder(left, right), nil
		}
		left, err := e.eval(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := e.eval(p.Right, ctx)
		if err != nil {
			return nil, err
		}
		return unionDocOrder(left, right), nil
	case Qualified:
		mid, err := e.eval(p.Sub, ctx)
		if err != nil {
			return nil, err
		}
		return e.filterChunked(p.Cond, xmltree.SortDocOrder(mid))
	default:
		// Leaf steps (Empty, Self, Label, Wildcard) and Rec have no
		// inner parallelism; the sequential evaluator handles them and
		// any unknown node's error, taking its ordinal path on
		// compacted documents (per-state bitset rows for Rec).
		se := newSeqEval(e.ctx)
		if d := ordinalDoc(ctx); d != nil {
			return evalOrdinal(se, nil, d, p, ctx)
		}
		return se.path(p, ctx)
	}
}

// evalChunked evaluates sub over a (sorted, deduplicated) context set,
// partitioning it across the worker pool when it is large. Evaluation
// distributes over context-set union, so chunk results merged through
// SortDocOrder equal the sequential result.
func (e *pEval) evalChunked(sub Path, nodes []*xmltree.Node) ([]*xmltree.Node, error) {
	chunks := e.split(nodes)
	if len(chunks) == 1 {
		return e.eval(sub, nodes)
	}
	results := make([][]*xmltree.Node, len(chunks))
	errs := make([]error, len(chunks))
	e.forEachChunk(chunks, func(i int) {
		results[i], errs[i] = e.eval(sub, chunks[i])
	})
	for i := range chunks {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return unionDocOrder(results...), nil
}

// filterChunked applies a qualifier filter over a sorted candidate set,
// partitioning it when large — qualifiers can hide arbitrarily expensive
// paths, so this is where p[q] spends its time.
func (e *pEval) filterChunked(q Qual, mid []*xmltree.Node) ([]*xmltree.Node, error) {
	filter := func(nodes []*xmltree.Node) ([]*xmltree.Node, error) {
		// One seqEval per chunk: the tick counter must stay
		// goroutine-local. On compacted documents the chunk is filtered
		// set-at-a-time by a chunk-local bitEval, as on the sequential
		// path.
		se := newSeqEval(e.ctx)
		if d := ordinalDoc(nodes); d != nil {
			b := &bitEval{se: se, doc: d}
			defer b.release()
			cand := b.get()
			for _, v := range nodes {
				cand.Add(v.Ord())
			}
			out, err := b.sat(q, cand)
			if err != nil {
				return nil, err
			}
			return b.materialize(out), nil
		}
		var out []*xmltree.Node
		for _, v := range nodes {
			if err := se.tick(); err != nil {
				return nil, err
			}
			hold, err := se.qual(q, v)
			if err != nil {
				return nil, err
			}
			if hold {
				out = append(out, v)
			}
		}
		return out, nil
	}
	chunks := e.split(mid)
	if len(chunks) == 1 {
		return filter(mid)
	}
	results := make([][]*xmltree.Node, len(chunks))
	errs := make([]error, len(chunks))
	e.forEachChunk(chunks, func(i int) {
		results[i], errs[i] = filter(chunks[i])
	})
	// Chunks are contiguous ranges of the sorted input, so concatenation
	// preserves document order without a re-sort.
	var out []*xmltree.Node
	for i := range chunks {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, results[i]...)
	}
	return out, nil
}

// split partitions nodes into contiguous chunks of at least threshold
// nodes, capped at workers+1 chunks; below 2×threshold it returns the
// input as a single chunk.
func (e *pEval) split(nodes []*xmltree.Node) [][]*xmltree.Node {
	n := len(nodes)
	if n < 2*e.threshold {
		return [][]*xmltree.Node{nodes}
	}
	num := n / e.threshold
	if max := cap(e.sem) + 1; num > max {
		num = max
	}
	size := (n + num - 1) / num
	chunks := make([][]*xmltree.Node, 0, num)
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		chunks = append(chunks, nodes[start:end])
	}
	return chunks
}

// forEachChunk runs fn(i) for every chunk, using a goroutine per chunk
// when a worker token is free and the calling goroutine otherwise. It
// always waits for every dispatched goroutine before returning — on
// cancellation the chunks themselves fail fast (fn leads back to eval or
// filter, both of which poll the context), so the drain is prompt and no
// worker outlives the evaluation.
func (e *pEval) forEachChunk(chunks [][]*xmltree.Node, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < len(chunks); i++ {
		if !e.tryAcquire() {
			fn(i)
			continue
		}
		if e.stats != nil {
			e.stats.Partitions.Add(1)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer e.release()
			fn(i)
		}(i)
	}
	fn(0)
	wg.Wait()
}
