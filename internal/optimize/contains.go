package optimize

import "repro/internal/xpath"

// Contains reports that p1 is provably contained in p2 over every
// instance of the DTD: every node p1 selects at root context, p2 also
// selects. It is the serving-layer entry point to the Section 5.1
// containment machinery (image graphs compared by the qualifier-flipping
// simulation of Proposition 5.1), exported so the answer cache can prove
// a cached result safe to serve. Like every test in this package it is
// sound and approximate: true is a guarantee, false means "could not
// prove it" — callers must fall back to evaluation, never invert the
// answer. Queries whose image graphs overflow the construction budget,
// or that contain constructs the abstraction cannot model (Rec
// automata), are never proved contained.
func (o *Optimizer) Contains(p1, p2 xpath.Path) bool {
	o.mu.Lock()
	defer o.unlock()
	return o.containsLocked(p1, p2)
}

// Equivalent reports provable mutual containment: p1 and p2 select
// exactly the same nodes over every instance of the DTD. This is the
// answer cache's equal-hit test; the same one-sidedness caveats as
// Contains apply.
func (o *Optimizer) Equivalent(p1, p2 xpath.Path) bool {
	if xpath.Equal(p1, p2) {
		return true
	}
	o.mu.Lock()
	defer o.unlock()
	return o.containsLocked(p1, p2) && o.containsLocked(p2, p1)
}

func (o *Optimizer) containsLocked(p1, p2 xpath.Path) bool {
	a := o.d.Root()
	g1, ok1 := o.image(p1, a)
	if !ok1 {
		return false
	}
	g2, ok2 := o.image(p2, a)
	if !ok2 {
		// g1 == nil (p1 provably empty) is contained in anything, even a
		// query the abstraction cannot model.
		return g1 == nil
	}
	return o.simulate(g1, g2)
}
