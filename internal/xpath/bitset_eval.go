package xpath

import (
	"fmt"
	"sort"

	"repro/internal/nodeset"
	"repro/internal/xmltree"
)

// This file is the evaluator: its internal currency is not a []*Node
// but a nodeset.Set — a word-packed bitset over the document's preorder
// ordinals. Preorder ordinal order is document order, so the sort/dedup
// work a slice evaluator does at every merge point disappears: union is
// word-wise OR, deduplication is structural, descendant-or-self is a
// bit-range fill over the subtree interval, and the Rec automaton's
// visited set becomes one bitset row per view state. All intermediate
// sets come from a sync.Pool, so a steady-state evaluation allocates
// only its final result slice.
//
// Qualifiers are evaluated set-at-a-time, never per context node: sat
// filters a whole candidate set with one forward pass over each
// qualifier path and one backward pass (pre) from what it reached, so
// a qualifier costs a few bitset passes however many candidates it
// tests. Per-node qualifier semantics live only in the reference
// evaluator (seqEval), which the differential suites compare against.
//
// The numbering contract: evaluation reads the ordinals and node table
// the last Document.Renumber assigned (NewDocument runs one), so every
// context node must be freshly numbered by one document (ordinalDoc).
// After a structural mutation, renumber; a stale, detached or
// mixed-document context fails with ErrUnnumbered.

// ordinalDoc returns the document whose current numbering covers every
// context node, or nil when there is none (stale numbering, detached
// nodes, or mixed owners).
func ordinalDoc(nodes []*xmltree.Node) *xmltree.Document {
	d := nodes[0].Owner()
	if d == nil {
		return nil
	}
	for _, n := range nodes[1:] {
		if n.Owner() != d {
			return nil
		}
	}
	return d
}

// eval runs one bitset evaluation end to end: context slice in, result
// slice out, every intermediate set pooled.
func (b *bitEval) eval(p Path, nodes []*xmltree.Node) ([]*xmltree.Node, error) {
	defer b.release()
	ctx := b.get()
	for _, n := range nodes {
		ctx.Add(n.Ord())
	}
	res, err := b.path(p, ctx)
	if err != nil {
		return nil, err
	}
	return b.materialize(res), nil
}

// bitEval is one ordinal evaluation. It tracks every pooled set it
// obtained (owned) so release can return each to the pool exactly once
// no matter how evaluation unwound; recycle moves a set to the free
// list for reuse within this evaluation without touching ownership.
// A bitEval is single-goroutine, like the ticker it holds. It holds no
// pointer into itself, so Evaluate keeps it on its own stack.
type bitEval struct {
	se    ticker
	doc   *xmltree.Document
	env   Env // binds the plan's variables; see env.go
	owned setStack
	free  setStack
	// backward is set while a pre-image runs; see semiJoin for why an
	// unbound variable then selects nothing instead of failing.
	backward bool
}

// setStack is a stack of sets held in an inline array sized for a
// typical served plan, then in an overflow slice for unusually large
// ones. A slice over the inline array would make its holder point into
// itself and escape to the heap.
type setStack struct {
	n      int
	inline [16]*nodeset.Set
	more   []*nodeset.Set
}

func (st *setStack) push(s *nodeset.Set) {
	if st.n < len(st.inline) {
		st.inline[st.n] = s
	} else {
		st.more = append(st.more, s)
	}
	st.n++
}

// pop removes and returns the top set, or nil when the stack is empty.
func (st *setStack) pop() *nodeset.Set {
	if st.n == 0 {
		return nil
	}
	st.n--
	if st.n < len(st.inline) {
		return st.inline[st.n]
	}
	s := st.more[len(st.more)-1]
	st.more = st.more[:len(st.more)-1]
	return s
}

// get returns a cleared set over the document's ordinal universe,
// reusing an evaluation-local recycled set before hitting the pool.
func (b *bitEval) get() *nodeset.Set {
	if s := b.free.pop(); s != nil {
		s.Reset(b.doc.Size())
		return s
	}
	s := nodeset.Get(b.doc.Size())
	b.owned.push(s)
	return s
}

// recycle makes a set available to the next get of this evaluation.
// The set stays on the owned stack; callers just stop using it.
func (b *bitEval) recycle(s *nodeset.Set) {
	b.free.push(s)
}

// release returns every owned set to the pool. After release no set
// handed out by get may be used — eval materializes the result
// into a fresh slice before releasing.
func (b *bitEval) release() {
	for s := b.owned.pop(); s != nil; s = b.owned.pop() {
		nodeset.Put(s)
	}
}

// materialize maps a result set back to nodes through the document's
// node table. Empty results stay nil, matching the slice evaluator.
// This is the only per-result allocation of the ordinal path.
func (b *bitEval) materialize(s *nodeset.Set) []*xmltree.Node {
	k := s.Count()
	if k == 0 {
		return nil
	}
	byOrd := b.doc.Nodes()
	out := make([]*xmltree.Node, 0, k)
	s.ForEach(func(ord int) { out = append(out, byOrd[ord]) })
	return out
}

// path mirrors seqEval.path case for case over bitsets. The context
// set is borrowed: path never mutates or retains it, and the returned
// set is always a distinct set the caller may mutate or recycle.
func (b *bitEval) path(p Path, ctx *nodeset.Set) (*nodeset.Set, error) {
	if ctx.Empty() {
		return b.get(), nil
	}
	if err := b.se.tick(); err != nil {
		return nil, err
	}
	byOrd := b.doc.Nodes()
	switch p := p.(type) {
	case Empty:
		return b.get(), nil
	case Self:
		out := b.get()
		out.Or(ctx)
		return out, nil
	case Label:
		out := b.get()
		// Selectivity: a posting list no longer than the context is
		// cheaper to filter by parent than the context's children are
		// to scan, since every context node would be visited at least
		// once. This is also how //l reads the label index, the way
		// the paper's "state-of-the-art" evaluator [17] avoids full
		// scans: Descend fills the context's subtree cover, and when
		// the cover is at least as large as l's posting list the
		// postings are filtered against it here.
		if candidates := b.doc.Labeled(p.Name); len(candidates) <= ctx.Count() {
			for _, ord := range candidates {
				if parent := byOrd[ord].Parent; parent != nil && ctx.Has(parent.Ord()) {
					out.Add(int(ord))
				}
			}
			return out, b.se.tickN(len(candidates))
		}
		ctx.ForEach(func(ord int) {
			for _, c := range byOrd[ord].Children {
				if c.Label == p.Name {
					out.Add(c.Ord())
				}
			}
		})
		return out, nil
	case Wildcard:
		out := b.get()
		ctx.ForEach(func(ord int) {
			for _, c := range byOrd[ord].Children {
				if c.Kind == xmltree.ElementNode {
					out.Add(c.Ord())
				}
			}
		})
		return out, nil
	case Seq:
		if out, ok, err := b.chainUp(p, ctx); ok || err != nil {
			return out, err
		}
		mid, err := b.path(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		out, err := b.path(p.Right, mid)
		b.recycle(mid)
		return out, err
	case Descend:
		dos, err := b.descendantOrSelf(ctx)
		if err != nil {
			return nil, err
		}
		out, err := b.path(p.Sub, dos)
		b.recycle(dos)
		return out, err
	case Union:
		left, err := b.path(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := b.path(p.Right, ctx)
		if err != nil {
			return nil, err
		}
		left.Or(right)
		b.recycle(right)
		return left, nil
	case Qualified:
		mid, err := b.path(p.Sub, ctx)
		if err != nil {
			return nil, err
		}
		out, err := b.sat(p.Cond, mid)
		b.recycle(mid)
		return out, err
	case Rec:
		return b.reach(p, ctx, false)
	default:
		return nil, fmt.Errorf("evalPath: unknown path node %T", p)
	}
}

// chainUp evaluates a chain of child label steps l1/.../lk bottom-up:
// every node labeled lk whose ancestors carry l(k-1)...l1 in order and
// whose chain starts under a context node. The rewritten plans of
// non-recursive views are mostly such precise root paths. ok is false
// when p is not a label chain, or when lk's posting list is longer than
// the set's word count: a top-down step costs at least one pass over
// the words, so up to that length the climb costs no more than one
// step, and it skips every intermediate set.
func (b *bitEval) chainUp(p Seq, ctx *nodeset.Set) (*nodeset.Set, bool, error) {
	last := chainLast(p)
	if last == "" {
		return nil, false, nil
	}
	candidates := b.doc.Labeled(last)
	if len(candidates) > b.doc.Size()/64+1 {
		return nil, false, nil
	}
	out := b.get()
	byOrd := b.doc.Nodes()
	for _, ord := range candidates {
		if top := climb(p, byOrd[ord]); top != nil && ctx.Has(top.Ord()) {
			out.Add(int(ord))
		}
	}
	return out, true, b.se.tickN(len(candidates))
}

// chainLast returns the last label of p when p is a sequence of child
// label steps only, else "".
func chainLast(p Path) string {
	switch p := p.(type) {
	case Label:
		return p.Name
	case Seq:
		if chainLast(p.Left) != "" {
			return chainLast(p.Right)
		}
	}
	return ""
}

// climb matches the label chain p upward from n, which carries p's last
// label, and returns the parent of the chain's first node: the node the
// chain must start from. It returns nil on a mismatch.
func climb(p Path, n *xmltree.Node) *xmltree.Node {
	switch p := p.(type) {
	case Label:
		if n.Label != p.Name {
			return nil
		}
		return n.Parent
	case Seq:
		if m := climb(p.Right, n); m != nil {
			return climb(p.Left, m)
		}
	}
	return nil
}

// descendantOrSelf is the bit-range-fill form of the descendant step:
// iterate the context's ordinals ascending, skip any ordinal nested in
// the previous subtree interval (intervals are laminar, so that drops
// exactly the covered duplicates), and fill [ord, ord+desc] for each
// maximal interval. tickN keeps the nodes-visited count and the
// cancellation poll rate proportional to the nodes covered; it is
// called once per tickMask+1 or more covered nodes, not per interval:
// a call per small subtree (each treatment under //bill) made
// BenchmarkDeepDescendant's //dept//treatment//bill 5-10% slower.
func (b *bitEval) descendantOrSelf(ctx *nodeset.Set) (*nodeset.Set, error) {
	out := b.get()
	byOrd := b.doc.Nodes()
	limit, covered := -1, 0
	var loopErr error
	ctx.ForEachUntil(func(ord int) bool {
		if ord <= limit {
			return true // nested inside the previous interval
		}
		hi := ord + byOrd[ord].DescendantCount()
		out.AddRange(ord, hi)
		limit = hi
		if covered += hi - ord + 1; covered > tickMask {
			loopErr, covered = b.se.tickN(covered), 0
		}
		return loopErr == nil
	})
	if loopErr == nil {
		loopErr = b.se.tickN(covered)
	}
	if loopErr != nil {
		return nil, loopErr
	}
	return out, nil
}

// sat returns the members of cand at which q holds: the set-at-a-time
// form of seqEval.qual. Each qualifier occurrence costs a constant
// number of passes over the plan and the document, however many
// candidates it filters. cand is borrowed; the result is a fresh set.
//
// Conjunction and disjunction chain their operands the way the
// per-node form short-circuits: the right operand of an "and" sees
// only the candidates the left accepted, that of an "or" only those it
// rejected. An operand is never evaluated over an empty set, so an
// unbound variable fails exactly when the reference evaluator reaches
// it at some node.
func (b *bitEval) sat(q Qual, cand *nodeset.Set) (*nodeset.Set, error) {
	if cand.Empty() {
		return b.get(), nil
	}
	if err := b.se.tick(); err != nil {
		return nil, err
	}
	switch q := q.(type) {
	case QTrue:
		out := b.get()
		out.Or(cand)
		return out, nil
	case QFalse:
		return b.get(), nil
	case QPath:
		return b.semiJoin(q.Path, cand, nil)
	case QEq:
		val := q.Value
		if q.Var != "" {
			bound, ok := b.env.Lookup(q.Var)
			if !ok {
				if b.backward {
					return b.get(), nil
				}
				return nil, fmt.Errorf("unbound variable $%s in qualifier", q.Var)
			}
			val = bound
		}
		// Resolve the comparand to its id once; a value no node carries
		// gets xmltree.NoValue, which matches no column entry.
		v := b.doc.Values()
		return b.semiJoin(q.Path, cand, &valueTest{col: v.Column(), id: v.ID(val)})
	case QAttrEq:
		return b.filter(cand, func(v *xmltree.Node) bool {
			val, ok := v.Attr(q.Name)
			return ok && val == q.Value
		})
	case QAttrHas:
		return b.filter(cand, func(v *xmltree.Node) bool {
			_, ok := v.Attr(q.Name)
			return ok
		})
	case QAnd:
		left, err := b.sat(q.Left, cand)
		if err != nil {
			return nil, err
		}
		out, err := b.sat(q.Right, left)
		b.recycle(left)
		return out, err
	case QOr:
		left, err := b.sat(q.Left, cand)
		if err != nil {
			return nil, err
		}
		rest := b.get()
		rest.Or(cand)
		rest.AndNot(left)
		right, err := b.sat(q.Right, rest)
		b.recycle(rest)
		if err != nil {
			return nil, err
		}
		left.Or(right)
		b.recycle(right)
		return left, nil
	case QNot:
		hold, err := b.sat(q.Sub, cand)
		if err != nil {
			return nil, err
		}
		out := b.get()
		out.Or(cand)
		out.AndNot(hold)
		b.recycle(hold)
		return out, nil
	default:
		return nil, fmt.Errorf("EvalQual: unknown qualifier node %T", q)
	}
}

// filter returns the members of s for which keep holds, one tick per
// member: the per-node attribute tests that no bitset operation can
// replace.
func (b *bitEval) filter(s *nodeset.Set, keep func(*xmltree.Node) bool) (*nodeset.Set, error) {
	out := b.get()
	byOrd := b.doc.Nodes()
	var err error
	s.ForEachUntil(func(ord int) bool {
		if err = b.se.tick(); err != nil {
			return false
		}
		if keep(byOrd[ord]) {
			out.Add(ord)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// valueTest selects the nodes whose Text() value has id id in the
// document's value column col.
type valueTest struct {
	col []int32
	id  int32
}

// matchValue returns the members of s whose value id is t.id, one tick
// per member like filter.
func (b *bitEval) matchValue(s *nodeset.Set, t *valueTest) (*nodeset.Set, error) {
	out := b.get()
	var err error
	s.ForEachUntil(func(ord int) bool {
		if err = b.se.tick(); err != nil {
			return false
		}
		if t.col[ord] == t.id {
			out.Add(ord)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// semiJoin returns the members of cand from which p reaches a node —
// one whose value passes eq, when eq is non-nil. It is a forward pass
// then a backward one: F = p(cand), X = F or its members that pass, and
// the answer is pre(p, X) ∩ cand.
//
// The forward pass evaluates every nested qualifier exactly where the
// per-node evaluator would, so it alone reports unbound variables. The
// backward pass also visits nodes no context reaches. A nested
// qualifier's value there cannot change the answer, and the forward
// pass has proven the variable unreachable from the ones that do count,
// so under b.backward an unbound variable just selects nothing.
func (b *bitEval) semiJoin(p Path, cand *nodeset.Set, eq *valueTest) (*nodeset.Set, error) {
	img, err := b.path(p, cand)
	if err != nil {
		return nil, err
	}
	if eq != nil {
		hits, err := b.matchValue(img, eq)
		b.recycle(img)
		if err != nil {
			return nil, err
		}
		img = hits
	}
	saved := b.backward
	b.backward = true
	out, err := b.pre(p, img)
	b.backward = saved
	b.recycle(img)
	if err != nil {
		return nil, err
	}
	out.And(cand)
	return out, nil
}

// pre returns the pre-image of x under p: every node v with
// p(v) ∩ x ≠ ∅, over the whole document. It is path run backwards —
// child steps map to parents, a sequence composes right to left, and
// a qualified step first keeps the members where its qualifier holds.
// x is borrowed; the result is a fresh set.
func (b *bitEval) pre(p Path, x *nodeset.Set) (*nodeset.Set, error) {
	if x.Empty() {
		return b.get(), nil
	}
	if err := b.se.tick(); err != nil {
		return nil, err
	}
	byOrd := b.doc.Nodes()
	switch p := p.(type) {
	case Empty:
		return b.get(), nil
	case Self:
		out := b.get()
		out.Or(x)
		return out, nil
	case Label:
		out := b.get()
		x.ForEach(func(ord int) {
			if n := byOrd[ord]; n.Label == p.Name && n.Parent != nil {
				out.Add(n.Parent.Ord())
			}
		})
		return out, nil
	case Wildcard:
		out := b.get()
		x.ForEach(func(ord int) {
			if n := byOrd[ord]; n.Kind == xmltree.ElementNode && n.Parent != nil {
				out.Add(n.Parent.Ord())
			}
		})
		return out, nil
	case Seq:
		mid, err := b.pre(p.Right, x)
		if err != nil {
			return nil, err
		}
		out, err := b.pre(p.Left, mid)
		b.recycle(mid)
		return out, err
	case Descend:
		out, err := b.pre(p.Sub, x)
		if err != nil {
			return nil, err
		}
		return out, b.ancestorsOrSelf(out)
	case Union:
		left, err := b.pre(p.Left, x)
		if err != nil {
			return nil, err
		}
		right, err := b.pre(p.Right, x)
		if err != nil {
			return nil, err
		}
		left.Or(right)
		b.recycle(right)
		return left, nil
	case Qualified:
		held, err := b.sat(p.Cond, x)
		if err != nil {
			return nil, err
		}
		out, err := b.pre(p.Sub, held)
		b.recycle(held)
		return out, err
	case Rec:
		return b.reach(p, x, true)
	default:
		return nil, fmt.Errorf("evalPath: unknown path node %T", p)
	}
}

// ancestorsOrSelf closes s upward in place: the pre-image of the
// descendant-or-self axis. Each walk up the parent chain stops at the
// first node already in s, whose own chain is then already in s or
// still to be walked, so the whole closure marks each node at most
// once. Ancestors have smaller ordinals than their descendants, so the
// ascending iteration never revisits a node it added.
func (b *bitEval) ancestorsOrSelf(s *nodeset.Set) error {
	byOrd := b.doc.Nodes()
	var err error
	s.ForEachUntil(func(ord int) bool {
		for p := byOrd[ord].Parent; p != nil && !s.Has(p.Ord()); p = p.Parent {
			if err = b.se.tick(); err != nil {
				return false
			}
			s.Add(p.Ord())
		}
		return true
	})
	return err
}

// reach is the product reachability of Rec over bitset rows, in either
// direction (seqEval.rec is the reference form). Forward it seeds
// p.Start's row with seed, maps each frontier across the σ edges with path, and answers p.Accept's row.
// Backward it seeds p.Accept's row, maps frontiers back across the
// reversed edges with pre, and answers p.Start's row: the nodes from
// which some σ chain reaches seed, which is pre(p, seed).
//
// The visited set keeps one row per view state (rows[s].Has(ord) ⇔
// (node, s) seen), and frontiers are sets, so per-level dedup against
// everything already visited is one AndNot instead of a map probe per
// (node, state) pair. States iterate in sorted order, keeping σ
// evaluation order, and therefore tick counts, deterministic.
func (b *bitEval) reach(p Rec, seed *nodeset.Set, backward bool) (*nodeset.Set, error) {
	if p.G == nil {
		return b.get(), nil
	}
	from, to, edges, step := p.Start, p.Accept, p.G.edges, b.path
	if backward {
		from, to, edges, step = p.Accept, p.Start, p.G.into, b.pre
	}
	rows := make(map[string]*nodeset.Set, len(p.G.states))
	row := func(state string) *nodeset.Set {
		r := rows[state]
		if r == nil {
			r = b.get()
			rows[state] = r
		}
		return r
	}
	start := b.get()
	start.Or(seed)
	row(from).Or(seed)
	frontier := map[string]*nodeset.Set{from: start}
	states := make([]string, 0, len(p.G.states))
	for len(frontier) > 0 {
		states = states[:0]
		for s := range frontier {
			states = append(states, s)
		}
		sort.Strings(states)
		next := map[string]*nodeset.Set{}
		for _, s := range states {
			nodes := frontier[s]
			for _, edge := range edges[s] {
				hit, err := step(edge.Sig, nodes)
				if err != nil {
					return nil, err
				}
				hit.AndNot(row(edge.To))
				if !hit.Empty() {
					row(edge.To).Or(hit)
					ns := next[edge.To]
					if ns == nil {
						ns = b.get()
						next[edge.To] = ns
					}
					ns.Or(hit)
				}
				b.recycle(hit)
			}
			b.recycle(nodes)
		}
		frontier = next
	}
	out := row(to)
	for s, r := range rows {
		if s != to {
			b.recycle(r)
		}
	}
	return out, nil
}
