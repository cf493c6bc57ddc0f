package optimize

import (
	"slices"
	"sync"

	"repro/internal/dtd"
	"repro/internal/typedp"
	"repro/internal/xpath"
)

// Optimizer rewrites XPath queries into equivalent, cheaper queries over
// instances of one document DTD (Algorithm optimize, Fig. 10). It is
// stateful only as a cache of DTD facts: reach sets, recProc tables for
// '//' and reaching sets are shared across queries under a mutex, so an
// Optimizer is safe for concurrent use. The DP memo lives for one public
// call (OptimizeAt, Reach): plans are cached by the
// caller, so a memo kept across calls would only hold heap, and a plan
// never depends on the calls made before it. The DP and recProc are
// package typedp's, which Algorithm rewrite drives too: this package
// supplies the DTD's label edges, the union and qualifier rules and the
// cyclic fallback.
type Optimizer struct {
	mu sync.Mutex
	d  *dtd.DTD

	dp       *typedp.DP // the DP memo and the recProc tables
	reaching map[string]map[string]bool
	// nodes is the image graphs' node storage, reused call after call,
	// as are the union passes released (passes) and the simulation's
	// memo (sim).
	nodes  inodes
	passes []*unionPass
	sim    map[[2]*inode]bool

	// rules counts DTD-driven simplification decisions (impossible /
	// guaranteed qualifiers, exclusive or implied conjuncts, union
	// containment); pruned counts the subtrees those decisions removed
	// (union branches dropped, qualifier subtrees decided outright).
	// A decision counts each time a call takes it: once per DP cell, and
	// once per image graph built for a union branch or a containment
	// test that holds the qualifier. With the memo scoped to one call,
	// the same query adds the same amounts on every call. Both are
	// guarded by mu.
	rules  uint64
	pruned uint64
}

// New returns an optimizer for the DTD. Recursive DTDs are supported: the
// '//' expansion simply keeps the descendant step instead of enumerating
// paths when the sub-DAG below a node is cyclic.
func New(d *dtd.DTD) *Optimizer {
	o := &Optimizer{d: d, reaching: make(map[string]map[string]bool)}
	o.dp = typedp.New(typedp.Lang{Edges: o.edges, Cyclic: o.cyclic, Qual: o.optSelfQual, Case: o.optCase})
	return o
}

// Optimize rewrites p (evaluated at root elements of the DTD) into an
// equivalent query. Queries proved empty by DTD constraints return ∅.
// rulesFired and pruned are what this call alone decided: the
// DTD-driven rules it fired and the subtrees they pruned (the per-call
// share of Stats), which explain reports.
func (o *Optimizer) Optimize(p xpath.Path) (out xpath.Path, rulesFired, pruned uint64) {
	return o.OptimizeAt(p, o.d.Root())
}

// OptimizeAt is Optimize for p evaluated at elements of type a.
func (o *Optimizer) OptimizeAt(p xpath.Path, a string) (out xpath.Path, rulesFired, pruned uint64) {
	o.mu.Lock()
	defer o.unlock()
	r0, p0 := o.rules, o.pruned
	out = o.optimizeAtLocked(p, a)
	return out, o.rules - r0, o.pruned - p0
}

// unlock ends a public call: the DP memo and the image graphs are
// dropped with the lock.
func (o *Optimizer) unlock() {
	o.dp.EndCall()
	o.nodes.reset()
	o.mu.Unlock()
}

func (o *Optimizer) optimizeAtLocked(p xpath.Path, a string) xpath.Path {
	return xpath.Simplify(o.dp.Cell(p, a).Total())
}

// Stats reports the optimizer's cumulative counters: DTD-driven
// simplification rules fired and subtrees pruned by them.
func (o *Optimizer) Stats() (rulesFired, prunedBranches uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rules, o.pruned
}

// Reach returns reach(p, root): the element types a root-context query
// can select over instances of the DTD (sorted; the pseudo type "#text"
// marks text results). Static analyses build on this.
func (o *Optimizer) Reach(p xpath.Path) []string {
	o.mu.Lock()
	defer o.unlock()
	return o.dp.Cell(p, o.d.Root()).Reach()
}

// edges lists the DTD's edges out of type a, each walked by its child
// label, and a's text edge when its content is #PCDATA.
func (o *Optimizer) edges(a string) ([]typedp.Edge, xpath.Path) {
	var kids []typedp.Edge
	for _, b := range o.d.Children(a) {
		kids = append(kids, typedp.Edge{To: b, Label: b, Query: xpath.L(b)})
	}
	if c, ok := o.d.Production(a); ok && c.Kind == dtd.Text {
		return kids, xpath.L(xpath.TextName)
	}
	return kids, nil
}

// cyclic is recrw(a, b) when the region below a is recursive, where the
// label paths cannot be enumerated: the descendant step //b, which
// reaches exactly the b descendants (and a itself for b = a) — a
// precision fallback, never a correctness one.
func (o *Optimizer) cyclic(a, b string) xpath.Path {
	p := xpath.MakeDescend(xpath.L(b))
	if b == a {
		return xpath.MakeUnion(xpath.Self{}, p)
	}
	return p
}

// optCase computes the DP cells optimize does not share with rewrite.
func (o *Optimizer) optCase(p xpath.Path, a string) typedp.Cell {
	var res typedp.Cell
	switch p := p.(type) {
	case xpath.Union: // case (6): drop a branch contained in the other
		u := o.newUnionPass(p, a)
		defer u.release()
		return u.decide(p, 0, 0, len(u.branches))
	case xpath.Rec:
		// Height-free rewrite of a recursive view region (package rewrite).
		// The automaton is opaque to the optimizer, but its results are
		// typed: every selected node carries ResultLabel. Keep the node,
		// pruning it only when the DTD proves that label (or text, for a
		// text ResultLabel) unreachable from the evaluation context.
		// reach(//, a) includes a itself, and every context a Rec is
		// evaluated at carries its Start type's label by plan
		// construction, so self-reach is covered.
		if o.d.Has(a) && slices.Contains(o.dp.ReachDescend(a), p.ResultLabel) {
			res.Add(p.ResultLabel, p)
		}
	}
	return res
}

// optSelfQual computes the cell of ε[q] at type a (case (7)).
func (o *Optimizer) optSelfQual(q xpath.Qual, a string) typedp.Cell {
	var res typedp.Cell
	switch tv, q := o.optQual(q, a); tv {
	case tvTrue:
		res.Add(a, xpath.Self{})
	case tvFalse:
		// ∅
	default:
		res.Add(a, xpath.Qualified{Sub: xpath.Self{}, Cond: q})
	}
	return res
}

// optQual is the paper's evaluate([q], A): it decides the qualifier where
// DTD constraints fix its truth and otherwise returns an equivalent,
// simplified qualifier.
func (o *Optimizer) optQual(q xpath.Qual, a string) (triBool, xpath.Qual) {
	switch q := q.(type) {
	case xpath.QTrue:
		return tvTrue, q
	case xpath.QFalse:
		return tvFalse, q
	case xpath.QPath:
		if o.impossible(q.Path, a) {
			o.rules++
			o.pruned++
			return tvFalse, xpath.QFalse{}
		}
		if o.guaranteed(q.Path, a) {
			o.rules++
			o.pruned++
			return tvTrue, xpath.QTrue{}
		}
		return tvUnknown, xpath.QPath{Path: o.optimizeAtLocked(q.Path, a)}
	case xpath.QEq:
		if o.impossible(q.Path, a) {
			o.rules++
			o.pruned++
			return tvFalse, xpath.QFalse{}
		}
		return tvUnknown, xpath.QEq{Path: o.optimizeAtLocked(q.Path, a), Value: q.Value, Var: q.Var}
	case xpath.QAnd:
		t1, q1 := o.optQual(q.Left, a)
		t2, q2 := o.optQual(q.Right, a)
		if t1 == tvFalse || t2 == tvFalse {
			return tvFalse, xpath.QFalse{}
		}
		if t1 == tvTrue {
			return t2, q2
		}
		if t2 == tvTrue {
			return t1, q1
		}
		if o.exclusive(a, q1, q2) {
			o.rules++
			o.pruned++
			return tvFalse, xpath.QFalse{}
		}
		if o.qualImplies(q1, q2, a) {
			o.rules++
			return tvUnknown, q1
		}
		if o.qualImplies(q2, q1, a) {
			o.rules++
			return tvUnknown, q2
		}
		return tvUnknown, xpath.QAnd{Left: q1, Right: q2}
	case xpath.QOr:
		t1, q1 := o.optQual(q.Left, a)
		t2, q2 := o.optQual(q.Right, a)
		if t1 == tvTrue || t2 == tvTrue {
			return tvTrue, xpath.QTrue{}
		}
		if t1 == tvFalse {
			return t2, q2
		}
		if t2 == tvFalse {
			return t1, q1
		}
		return tvUnknown, xpath.QOr{Left: q1, Right: q2}
	case xpath.QNot:
		t, sub := o.optQual(q.Sub, a)
		if t != tvUnknown {
			return t.not(), xpath.MakeNot(sub)
		}
		return tvUnknown, xpath.MakeNot(sub)
	default:
		return tvUnknown, q
	}
}
