package xpath

import (
	"strconv"
	"strings"
	"time"
)

// This file holds the evaluation environment of a parameterized plan.
// A plan is built once per query shape: the access specification's
// $parameters stay symbolic through rewrite and optimize, and so do the
// constants of the user query's p = "c" qualifiers, which Parameterize
// turns into placeholder variables. Evaluation then reads both from an
// Env instead of a copy of the plan with the values substituted.

// Env binds the variables of a plan at evaluation: the specification
// parameters by name, and the query literals by placeholder index
// (LiteralVar(i) reads Literals[i]). It also carries the evaluation's
// deadline. The zero Env binds nothing and sets no deadline.
type Env struct {
	Params   map[string]string
	Literals []string
	// Deadline, unless zero, ends evaluation with
	// context.DeadlineExceeded once the clock passes it, as a context
	// deadline does, but with no timer behind it: a server hands its
	// per-request deadline to the evaluator here instead of deriving a
	// context with a timeout for every request.
	Deadline time.Time
}

// literalPrefix starts every placeholder name. The parser reads a
// variable name from name bytes only (isNameByte), and '#' is not one,
// so no parsed query or access specification can produce a placeholder.
const literalPrefix = "#"

// literalNames caches the first placeholder names, so the common query
// renames its literals without building strings.
var literalNames = func() [16]string {
	var out [16]string
	for i := range out {
		out[i] = literalPrefix + strconv.Itoa(i)
	}
	return out
}()

// LiteralVar returns the placeholder variable that stands for the i-th
// distinct literal of a parameterized query.
func LiteralVar(i int) string {
	if i < len(literalNames) {
		return literalNames[i]
	}
	return literalPrefix + strconv.Itoa(i)
}

// isLiteralVar reports whether a variable name is a placeholder.
func isLiteralVar(name string) bool { return strings.HasPrefix(name, literalPrefix) }

// Lookup returns the value bound to a variable.
func (e Env) Lookup(name string) (string, bool) {
	if isLiteralVar(name) {
		i, err := strconv.Atoi(name[len(literalPrefix):])
		if err != nil || i < 0 || i >= len(e.Literals) {
			return "", false
		}
		return e.Literals[i], true
	}
	v, ok := e.Params[name]
	return v, ok
}

// Map returns the environment as one variable → value map, the form
// BindVars takes.
func (e Env) Map() map[string]string {
	m := make(map[string]string, len(e.Params)+len(e.Literals))
	for k, v := range e.Params {
		m[k] = v
	}
	for i, v := range e.Literals {
		m[LiteralVar(i)] = v
	}
	return m
}

// Parameterize replaces the constant c of every p = "c" qualifier with
// a placeholder variable and returns the renamed query with the
// constants in placeholder order: Literals[i] is the value of
// LiteralVar(i). Equal constants share one placeholder, numbered in
// first-occurrence order, so two queries that differ only in their
// constants — and agree on which of them are equal — rename to the same
// query. A query without constants is returned as it is. Attribute
// tests ([@a = "c"]) keep their constants.
func Parameterize(p Path) (Path, []string) {
	r := renamer{}
	out, changed := r.path(p)
	if !changed {
		return p, nil
	}
	return out, r.lits
}

type renamer struct {
	lits []string
}

// index returns the placeholder index of a constant, assigning the next
// one on first sight. Queries hold few constants, so a scan beats a map.
func (r *renamer) index(v string) int {
	for i, l := range r.lits {
		if l == v {
			return i
		}
	}
	r.lits = append(r.lits, v)
	return len(r.lits) - 1
}

// path and qual return their argument itself, not a re-boxed copy,
// when nothing below it changed: converting a struct case back to the
// interface would allocate on every query without literals.
func (r *renamer) path(p Path) (Path, bool) {
	switch n := p.(type) {
	case Seq:
		l, cl := r.path(n.Left)
		rt, cr := r.path(n.Right)
		if !cl && !cr {
			return p, false
		}
		return Seq{Left: l, Right: rt}, true
	case Descend:
		s, c := r.path(n.Sub)
		if !c {
			return p, false
		}
		return Descend{Sub: s}, true
	case Union:
		l, cl := r.path(n.Left)
		rt, cr := r.path(n.Right)
		if !cl && !cr {
			return p, false
		}
		return Union{Left: l, Right: rt}, true
	case Qualified:
		s, cs := r.path(n.Sub)
		q, cq := r.qual(n.Cond)
		if !cs && !cq {
			return p, false
		}
		return Qualified{Sub: s, Cond: q}, true
	default:
		return p, false
	}
}

func (r *renamer) qual(q Qual) (Qual, bool) {
	switch n := q.(type) {
	case QPath:
		p, c := r.path(n.Path)
		if !c {
			return q, false
		}
		return QPath{Path: p}, true
	case QEq:
		p, c := r.path(n.Path)
		if n.Var != "" {
			if !c {
				return q, false
			}
			return QEq{Path: p, Var: n.Var}, true
		}
		return QEq{Path: p, Var: LiteralVar(r.index(n.Value))}, true
	case QAnd:
		l, cl := r.qual(n.Left)
		rt, cr := r.qual(n.Right)
		if !cl && !cr {
			return q, false
		}
		return QAnd{Left: l, Right: rt}, true
	case QOr:
		l, cl := r.qual(n.Left)
		rt, cr := r.qual(n.Right)
		if !cl && !cr {
			return q, false
		}
		return QOr{Left: l, Right: rt}, true
	case QNot:
		s, c := r.qual(n.Sub)
		if !c {
			return q, false
		}
		return QNot{Sub: s}, true
	default:
		return q, false
	}
}
