package optimize

import "repro/internal/xpath"

// simulate reports whether the image graph rooted at g1 is simulated by
// the one rooted at g2 (nil roots are empty graphs): a sound witness that
// the query of g1 is contained in the query of g2 at their common root
// (Proposition 5.1). The relation extends conventional graph simulation:
//
//  1. matched occurrences carry the same label;
//  2. a frontier (selected) occurrence of g1 must map to a frontier
//     occurrence of g2 — selected nodes stay selected;
//  3. every path child of the g1 occurrence is simulated by some child of
//     the g2 occurrence; and
//  4. every qualifier attached to the g2 occurrence must be implied by
//     some qualifier the g1 occurrence holds (the direction flip of
//     Section 5.1): the container may only demand conditions the
//     containee already guarantees (see inode for quals versus held).
//
// Spine sharing can make image graphs cyclic for recursive DTDs; the
// recursion assumes in-progress pairs hold (coinductive, greatest
// fixpoint), keeping the test quadratic in the image sizes.
func (o *Optimizer) simulate(g1, g2 *inode) bool {
	if g1 == nil {
		return true // the empty query is contained in everything
	}
	if g2 == nil {
		return false
	}
	if o.sim == nil || len(o.sim) > maxKeptSim {
		o.sim = make(map[[2]*inode]bool)
	} else {
		clear(o.sim)
	}
	s := simState{o: o, memo: o.sim}
	return s.simu(g1, g2)
}

// maxKeptSim is the largest memo, in node pairs, that simulate clears
// for the next simulation instead of dropping: clearing costs the size
// the map grew to.
const maxKeptSim = 256

type simState struct {
	o    *Optimizer
	memo map[[2]*inode]bool
}

func (s *simState) simu(v1, v2 *inode) bool {
	if v1.label != v2.label {
		return false
	}
	if v1.frontier && !v2.frontier {
		return false
	}
	key := [2]*inode{v1, v2}
	if ok, seen := s.memo[key]; seen {
		return ok
	}
	s.memo[key] = true // coinductive assumption for cycles
	ok := s.check(v1, v2)
	s.memo[key] = ok
	return ok
}

func (s *simState) check(v1, v2 *inode) bool {
	for _, x := range v1.kids {
		matched := false
		for _, y := range v2.kids {
			if s.simu(x, y) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	for _, y := range v2.quals {
		matched := false
		for _, x := range v1.held {
			if x.at == y.at && s.o.qualImplies(x.q, y.q, x.at) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// qualImplies is a sound, syntax-directed implication test between
// qualifiers evaluated at the same DTD type: it returns true only when
// every node satisfying q1 must satisfy q2.
func (o *Optimizer) qualImplies(q1, q2 xpath.Qual, at string) bool {
	// Constants first.
	if _, ok := q2.(xpath.QTrue); ok {
		return true
	}
	if _, ok := q1.(xpath.QFalse); ok {
		return true
	}
	// Decompose the consequent.
	switch q2 := q2.(type) {
	case xpath.QAnd:
		return o.qualImplies(q1, q2.Left, at) && o.qualImplies(q1, q2.Right, at)
	}
	// Decompose the antecedent.
	switch q1 := q1.(type) {
	case xpath.QOr:
		return o.qualImplies(q1.Left, q2, at) && o.qualImplies(q1.Right, q2, at)
	case xpath.QAnd:
		return o.qualImplies(q1.Left, q2, at) || o.qualImplies(q1.Right, q2, at)
	}
	if q2, ok := q2.(xpath.QOr); ok {
		return o.qualImplies(q1, q2.Left, at) || o.qualImplies(q1, q2.Right, at)
	}
	// Base cases on path atoms: a witness for p1 guarantees a witness for
	// p2 when p2 is a structural prefix of p1.
	switch q1 := q1.(type) {
	case xpath.QPath:
		if q2, ok := q2.(xpath.QPath); ok {
			return pathPrefixImplies(q1.Path, q2.Path)
		}
	case xpath.QEq:
		switch q2 := q2.(type) {
		case xpath.QPath:
			return pathPrefixImplies(q1.Path, q2.Path)
		case xpath.QEq:
			return q1.Value == q2.Value && q1.Var == q2.Var && xpath.Equal(q1.Path, q2.Path)
		}
	}
	return xpath.QualEqual(q1, q2)
}

// pathPrefixImplies reports that the existence of a p1-witness implies
// the existence of a p2-witness at the same context: p2's step chain must
// be a prefix of p1's, step by step. Steps compare as: equal labels;
// a wildcard in p2 is implied by any label or wildcard in p1; a union
// step in p1 requires all branches to imply p2's step; a union step in p2
// is implied by any branch. Qualifiers on p1 steps strengthen it and are
// ignored; qualifiers on p2 steps must be implied, which this
// conservative test only accepts for syntactically equal steps.
func pathPrefixImplies(p1, p2 xpath.Path) bool {
	if xpath.Equal(p1, p2) {
		return true
	}
	steps1 := flattenSteps(p1)
	steps2 := flattenSteps(p2)
	if steps1 == nil || steps2 == nil || len(steps2) > len(steps1) {
		return false
	}
	for i, s2 := range steps2 {
		if !stepImplies(steps1[i], s2) {
			return false
		}
	}
	return true
}

// flattenSteps turns a left-deep Seq chain into its step list; nil when
// the path contains constructs the prefix test does not model (// steps).
func flattenSteps(p xpath.Path) []xpath.Path {
	switch p := p.(type) {
	case xpath.Seq:
		left := flattenSteps(p.Left)
		if left == nil {
			return nil
		}
		right := flattenSteps(p.Right)
		if right == nil {
			return nil
		}
		return append(left, right...)
	case xpath.Label, xpath.Wildcard, xpath.Self, xpath.Union, xpath.Qualified:
		return []xpath.Path{p}
	default:
		return nil
	}
}

// stepImplies compares single steps: existence of s1 implies existence of
// s2 at the same position.
func stepImplies(s1, s2 xpath.Path) bool {
	// Qualifiers on s1 only strengthen it.
	if q, ok := s1.(xpath.Qualified); ok {
		if xpath.Equal(s1, s2) {
			return true
		}
		return stepImplies(q.Sub, s2)
	}
	switch s2 := s2.(type) {
	case xpath.Wildcard:
		switch s1 := s1.(type) {
		case xpath.Label:
			return s1.Name != xpath.TextName // '*' selects elements only
		case xpath.Wildcard:
			return true
		case xpath.Union:
			return stepImplies(s1.Left, s2) && stepImplies(s1.Right, s2)
		}
		return false
	case xpath.Union:
		return stepImplies(s1, s2.Left) || stepImplies(s1, s2.Right)
	case xpath.Label:
		if u, ok := s1.(xpath.Union); ok {
			return stepImplies(u.Left, s2) && stepImplies(u.Right, s2)
		}
		return xpath.Equal(s1, s2)
	case xpath.Self:
		return true
	default:
		return xpath.Equal(s1, s2)
	}
}
