package xpath

import "fmt"

// Equal reports structural equality of two paths.
func Equal(p1, p2 Path) bool {
	switch a := p1.(type) {
	case Empty:
		_, ok := p2.(Empty)
		return ok
	case Self:
		_, ok := p2.(Self)
		return ok
	case Wildcard:
		_, ok := p2.(Wildcard)
		return ok
	case Label:
		b, ok := p2.(Label)
		return ok && a.Name == b.Name
	case Seq:
		b, ok := p2.(Seq)
		return ok && Equal(a.Left, b.Left) && Equal(a.Right, b.Right)
	case Descend:
		b, ok := p2.(Descend)
		return ok && Equal(a.Sub, b.Sub)
	case Union:
		b, ok := p2.(Union)
		return ok && Equal(a.Left, b.Left) && Equal(a.Right, b.Right)
	case Qualified:
		b, ok := p2.(Qualified)
		return ok && Equal(a.Sub, b.Sub) && QualEqual(a.Cond, b.Cond)
	case Rec:
		b, ok := p2.(Rec)
		return ok && a.Start == b.Start && a.Accept == b.Accept &&
			a.ResultLabel == b.ResultLabel && a.G.equal(b.G)
	default:
		return false
	}
}

// QualEqual reports structural equality of two qualifiers.
func QualEqual(q1, q2 Qual) bool {
	switch a := q1.(type) {
	case QTrue:
		_, ok := q2.(QTrue)
		return ok
	case QFalse:
		_, ok := q2.(QFalse)
		return ok
	case QPath:
		b, ok := q2.(QPath)
		return ok && Equal(a.Path, b.Path)
	case QEq:
		b, ok := q2.(QEq)
		return ok && Equal(a.Path, b.Path) && a.Value == b.Value && a.Var == b.Var
	case QAttrEq:
		b, ok := q2.(QAttrEq)
		return ok && a.Name == b.Name && a.Value == b.Value
	case QAttrHas:
		b, ok := q2.(QAttrHas)
		return ok && a.Name == b.Name
	case QAnd:
		b, ok := q2.(QAnd)
		return ok && QualEqual(a.Left, b.Left) && QualEqual(a.Right, b.Right)
	case QOr:
		b, ok := q2.(QOr)
		return ok && QualEqual(a.Left, b.Left) && QualEqual(a.Right, b.Right)
	case QNot:
		b, ok := q2.(QNot)
		return ok && QualEqual(a.Sub, b.Sub)
	default:
		return false
	}
}

// Size returns the number of AST nodes of the path, including qualifier
// nodes (the paper's |p|).
func Size(p Path) int {
	switch p := p.(type) {
	case Empty, Self, Label, Wildcard:
		return 1
	case Seq:
		return 1 + Size(p.Left) + Size(p.Right)
	case Descend:
		return 1 + Size(p.Sub)
	case Union:
		return 1 + Size(p.Left) + Size(p.Right)
	case Qualified:
		return 1 + Size(p.Sub) + QualSize(p.Cond)
	case Rec:
		// One node plus the transition system's weight. The graph is
		// shared between a plan's Rec nodes, so summing it per occurrence
		// over-counts memory, but the total stays independent of document
		// height — which is the property plan-size accounting must keep.
		return 1 + p.G.Size()
	default:
		return 1
	}
}

// QualSize returns the number of AST nodes of a qualifier.
func QualSize(q Qual) int {
	switch q := q.(type) {
	case QTrue, QFalse, QAttrEq, QAttrHas:
		return 1
	case QPath:
		return 1 + Size(q.Path)
	case QEq:
		return 1 + Size(q.Path)
	case QAnd:
		return 1 + QualSize(q.Left) + QualSize(q.Right)
	case QOr:
		return 1 + QualSize(q.Left) + QualSize(q.Right)
	case QNot:
		return 1 + QualSize(q.Sub)
	default:
		return 1
	}
}

// Subqueries returns all sub-paths of p in ascending order: every
// sub-query precedes the queries containing it, with p itself last. Paths
// nested inside qualifiers are included. This is the list Q of the
// paper's Algorithm rewrite (Fig. 6).
func Subqueries(p Path) []Path {
	var out []Path
	var walkPath func(Path)
	var walkQual func(Qual)
	walkPath = func(p Path) {
		switch p := p.(type) {
		case Seq:
			walkPath(p.Left)
			walkPath(p.Right)
		case Descend:
			walkPath(p.Sub)
		case Union:
			walkPath(p.Left)
			walkPath(p.Right)
		case Qualified:
			walkPath(p.Sub)
			walkQual(p.Cond)
		}
		out = append(out, p)
	}
	walkQual = func(q Qual) {
		switch q := q.(type) {
		case QPath:
			walkPath(q.Path)
		case QEq:
			walkPath(q.Path)
		case QAnd:
			walkQual(q.Left)
			walkQual(q.Right)
		case QOr:
			walkQual(q.Left)
			walkQual(q.Right)
		case QNot:
			walkQual(q.Sub)
		}
	}
	walkPath(p)
	return out
}

// Labels returns the distinct element-type names mentioned by the query
// (including inside qualifiers), in first-occurrence order.
func Labels(p Path) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	var walkPath func(Path)
	var walkQual func(Qual)
	walkPath = func(p Path) {
		switch p := p.(type) {
		case Label:
			add(p.Name)
		case Seq:
			walkPath(p.Left)
			walkPath(p.Right)
		case Descend:
			walkPath(p.Sub)
		case Union:
			walkPath(p.Left)
			walkPath(p.Right)
		case Qualified:
			walkPath(p.Sub)
			walkQual(p.Cond)
		case Rec:
			for _, s := range p.G.States() {
				for _, e := range p.G.EdgesFrom(s) {
					walkPath(e.Sig)
				}
			}
		}
	}
	walkQual = func(q Qual) {
		switch q := q.(type) {
		case QPath:
			walkPath(q.Path)
		case QEq:
			walkPath(q.Path)
		case QAnd:
			walkQual(q.Left)
			walkQual(q.Right)
		case QOr:
			walkQual(q.Left)
			walkQual(q.Right)
		case QNot:
			walkQual(q.Sub)
		}
	}
	walkPath(p)
	return out
}

// BindVars substitutes specification parameters ($name) with the values
// in env, returning a variable-free query. It fails when a variable has
// no binding.
func BindVars(p Path, env map[string]string) (Path, error) {
	switch p := p.(type) {
	case Empty, Self, Label, Wildcard:
		return p, nil
	case Seq:
		l, err := BindVars(p.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := BindVars(p.Right, env)
		if err != nil {
			return nil, err
		}
		return Seq{Left: l, Right: r}, nil
	case Descend:
		s, err := BindVars(p.Sub, env)
		if err != nil {
			return nil, err
		}
		return Descend{Sub: s}, nil
	case Union:
		l, err := BindVars(p.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := BindVars(p.Right, env)
		if err != nil {
			return nil, err
		}
		return Union{Left: l, Right: r}, nil
	case Qualified:
		s, err := BindVars(p.Sub, env)
		if err != nil {
			return nil, err
		}
		q, err := BindQualVars(p.Cond, env)
		if err != nil {
			return nil, err
		}
		return Qualified{Sub: s, Cond: q}, nil
	case Rec:
		// Plans are normally built from bound views, so the common case
		// keeps the shared graph pointer intact.
		if !p.G.hasVars() {
			return p, nil
		}
		g, err := p.G.bindVars(env)
		if err != nil {
			return nil, err
		}
		return Rec{G: g, Start: p.Start, Accept: p.Accept, ResultLabel: p.ResultLabel}, nil
	default:
		return nil, fmt.Errorf("xpath: BindVars: unknown path node %T", p)
	}
}

// BindQualVars substitutes parameters inside a qualifier.
func BindQualVars(q Qual, env map[string]string) (Qual, error) {
	switch q := q.(type) {
	case QTrue, QFalse, QAttrEq, QAttrHas:
		return q, nil
	case QPath:
		p, err := BindVars(q.Path, env)
		if err != nil {
			return nil, err
		}
		return QPath{Path: p}, nil
	case QEq:
		p, err := BindVars(q.Path, env)
		if err != nil {
			return nil, err
		}
		if q.Var == "" {
			return QEq{Path: p, Value: q.Value}, nil
		}
		val, ok := env[q.Var]
		if !ok {
			return nil, fmt.Errorf("xpath: unbound parameter $%s", q.Var)
		}
		return QEq{Path: p, Value: val}, nil
	case QAnd:
		l, err := BindQualVars(q.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := BindQualVars(q.Right, env)
		if err != nil {
			return nil, err
		}
		return QAnd{Left: l, Right: r}, nil
	case QOr:
		l, err := BindQualVars(q.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := BindQualVars(q.Right, env)
		if err != nil {
			return nil, err
		}
		return QOr{Left: l, Right: r}, nil
	case QNot:
		s, err := BindQualVars(q.Sub, env)
		if err != nil {
			return nil, err
		}
		return QNot{Sub: s}, nil
	default:
		return nil, fmt.Errorf("xpath: BindQualVars: unknown qualifier node %T", q)
	}
}

// hasVars reports whether a variable occurs in the query, allocating
// nothing.
func hasVars(p Path) bool {
	switch p := p.(type) {
	case Seq:
		return hasVars(p.Left) || hasVars(p.Right)
	case Descend:
		return hasVars(p.Sub)
	case Union:
		return hasVars(p.Left) || hasVars(p.Right)
	case Qualified:
		return hasVars(p.Sub) || qualHasVars(p.Cond)
	case Rec:
		return p.G != nil && p.G.hasVars()
	}
	return false
}

func qualHasVars(q Qual) bool {
	switch q := q.(type) {
	case QPath:
		return hasVars(q.Path)
	case QEq:
		return q.Var != "" || hasVars(q.Path)
	case QAnd:
		return qualHasVars(q.Left) || qualHasVars(q.Right)
	case QOr:
		return qualHasVars(q.Left) || qualHasVars(q.Right)
	case QNot:
		return qualHasVars(q.Sub)
	}
	return false
}

// Vars returns the distinct parameter names occurring in the query. A
// query without variables, the case the serving path checks on every
// request, costs one walk and no allocation.
func Vars(p Path) []string {
	if !hasVars(p) {
		return nil
	}
	var out []string
	seen := make(map[string]bool)
	for _, sub := range Subqueries(p) {
		switch sub := sub.(type) {
		case Qualified:
			collectQualVars(sub.Cond, seen, &out)
		case Rec:
			sub.G.collectVars(seen, &out)
		}
	}
	return out
}

func collectQualVars(q Qual, seen map[string]bool, out *[]string) {
	switch q := q.(type) {
	case QEq:
		if q.Var != "" && !seen[q.Var] {
			seen[q.Var] = true
			*out = append(*out, q.Var)
		}
	case QAnd:
		collectQualVars(q.Left, seen, out)
		collectQualVars(q.Right, seen, out)
	case QOr:
		collectQualVars(q.Left, seen, out)
		collectQualVars(q.Right, seen, out)
	case QNot:
		collectQualVars(q.Sub, seen, out)
	}
}

// InCMinus reports whether the query is in the conjunctive fragment C⁻ of
// the paper's Section 5.1: paths over //, /, *, ∪ with qualifiers
// restricted to conjunctions of paths.
func InCMinus(p Path) bool {
	switch p := p.(type) {
	case Empty, Self, Label, Wildcard:
		return true
	case Seq:
		return InCMinus(p.Left) && InCMinus(p.Right)
	case Descend:
		return InCMinus(p.Sub)
	case Union:
		return InCMinus(p.Left) && InCMinus(p.Right)
	case Qualified:
		return InCMinus(p.Sub) && qualInCMinus(p.Cond)
	default:
		return false
	}
}

func qualInCMinus(q Qual) bool {
	switch q := q.(type) {
	case QTrue, QFalse:
		return true
	case QPath:
		return InCMinus(q.Path)
	case QAnd:
		return qualInCMinus(q.Left) && qualInCMinus(q.Right)
	default:
		return false
	}
}
