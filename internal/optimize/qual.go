package optimize

import (
	"repro/internal/dtd"
	"repro/internal/xpath"
)

// triBool is the three-valued outcome of evaluating a qualifier against
// DTD constraints (the paper's bool([q], A): true, false, or undefined).
type triBool int

const (
	tvUnknown triBool = iota
	tvTrue
	tvFalse
)

func (t triBool) not() triBool {
	switch t {
	case tvTrue:
		return tvFalse
	case tvFalse:
		return tvTrue
	default:
		return tvUnknown
	}
}

// exclusive applies the paper's exclusive-constraint check (Section 5.1
// case (8), second bullet): when A's production is a disjunction and the
// two conjuncts require different disjuncts as their first steps, the
// conjunction is unsatisfiable at A.
func (o *Optimizer) exclusive(a string, q1, q2 xpath.Qual) bool {
	c, ok := o.d.Production(a)
	if !ok || c.Kind != dtd.Choice {
		return false
	}
	alts := make(map[string]bool, len(c.Items))
	for _, it := range c.Items {
		alts[it.Name] = true
	}
	s1, ok1 := firstRequired(q1)
	s2, ok2 := firstRequired(q2)
	if !ok1 || !ok2 || len(s1) == 0 || len(s2) == 0 {
		return false
	}
	// Sound only when every possible first step is a disjunction
	// alternative (a wildcard or foreign label would escape the argument).
	for l := range s1 {
		if !alts[l] {
			return false
		}
	}
	for l := range s2 {
		if !alts[l] {
			return false
		}
	}
	for l := range s1 {
		if s2[l] {
			return false
		}
	}
	return true
}

// firstRequired returns the set of labels the qualifier's witness must
// begin with as a child step. ok is false when no such set can be
// soundly determined (descendant steps, negation, disjunctive
// connectives other than path unions).
func firstRequired(q xpath.Qual) (map[string]bool, bool) {
	switch q := q.(type) {
	case xpath.QPath:
		return firstStepLabels(q.Path)
	case xpath.QEq:
		return firstStepLabels(q.Path)
	default:
		return nil, false
	}
}

// firstStepLabels collects the labels a path's first child step can take;
// ok is false for paths whose first step is not a plain child step.
func firstStepLabels(p xpath.Path) (map[string]bool, bool) {
	switch p := p.(type) {
	case xpath.Label:
		if p.Name == xpath.TextName {
			return nil, false
		}
		return map[string]bool{p.Name: true}, true
	case xpath.Seq:
		return firstStepLabels(p.Left)
	case xpath.Union:
		l, ok1 := firstStepLabels(p.Left)
		r, ok2 := firstStepLabels(p.Right)
		if !ok1 || !ok2 {
			return nil, false
		}
		for k := range r {
			l[k] = true
		}
		return l, true
	case xpath.Qualified:
		return firstStepLabels(p.Sub)
	default:
		return nil, false
	}
}

// guaranteed reports that p selects at least one node at every A element
// of every instance of the DTD (the co-existence constraint generalized
// along paths). It is conservative: false means "not provable".
func (o *Optimizer) guaranteed(p xpath.Path, a string) bool {
	return o.guaranteedDepth(p, a, 0)
}

// guaranteedDepth bounds recursion on recursive DTDs; the bound loses
// only precision, never soundness.
func (o *Optimizer) guaranteedDepth(p xpath.Path, a string, depth int) bool {
	if depth > o.d.Len()+4 {
		return false
	}
	switch p := p.(type) {
	case xpath.Self:
		return true
	case xpath.Label:
		c, ok := o.d.Production(a)
		if !ok {
			return false
		}
		if p.Name == xpath.TextName {
			return c.Kind == dtd.Text
		}
		if c.Kind != dtd.Seq {
			return false
		}
		for _, it := range c.Items {
			if it.Name == p.Name && !it.Starred {
				return true
			}
		}
		return false
	case xpath.Wildcard:
		c, ok := o.d.Production(a)
		if !ok {
			return false
		}
		// A concatenation guarantees all children; a disjunction guarantees
		// exactly one (paper case (7)).
		return (c.Kind == dtd.Seq && len(c.Items) > 0 && !allStarred(c)) || c.Kind == dtd.Choice
	case xpath.Seq:
		if !o.guaranteedDepth(p.Left, a, depth+1) {
			return false
		}
		targets := o.dp.Cell(p.Left, a)
		if targets.Empty() {
			return false
		}
		for i := 0; i < targets.Len(); i++ {
			if !o.guaranteedDepth(p.Right, targets.Target(i), depth+1) {
				return false
			}
		}
		return true
	case xpath.Descend:
		// //p is guaranteed whenever p is guaranteed at the context itself.
		return o.guaranteedDepth(p.Sub, a, depth+1)
	case xpath.Union:
		return o.guaranteedDepth(p.Left, a, depth+1) || o.guaranteedDepth(p.Right, a, depth+1)
	default:
		return false
	}
}

func allStarred(c dtd.Content) bool {
	for _, it := range c.Items {
		if !it.Starred {
			return false
		}
	}
	return true
}

// impossible reports that p selects nothing at any A element (the
// non-existence constraint): no DTD node is reachable from A via p.
func (o *Optimizer) impossible(p xpath.Path, a string) bool {
	return o.dp.Cell(p, a).Empty()
}
