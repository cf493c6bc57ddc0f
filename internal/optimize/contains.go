package optimize

import "repro/internal/xpath"

// contains reports that p1 is provably contained in p2 over every
// instance of the DTD: every node p1 selects at root context, p2 also
// selects. It runs the Section 5.1 containment machinery at the root
// type (image graphs compared by the qualifier-flipping simulation of
// Proposition 5.1), the same machinery the union rule applies at any
// context type, so this package's tests exercise it on whole queries.
// Like every test in this package it is sound and approximate: true is
// a guarantee, false means "could not prove it". Queries whose image
// graphs overflow the construction budget, or that contain constructs
// the abstraction cannot model (Rec automata), are never proved
// contained.
func (o *Optimizer) contains(p1, p2 xpath.Path) bool {
	o.mu.Lock()
	defer o.unlock()
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
