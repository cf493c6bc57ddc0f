// Package xpath implements the XPath fragment C of "Secure XML Querying
// with Security Views" (SIGMOD 2004), Section 2:
//
//	p ::= ε | l | * | p/p | //p | p ∪ p | p[q]
//	q ::= p | p = c | q ∧ q | q ∨ q | ¬q
//
// plus the special empty query ∅ (returns no nodes over every tree), the
// constant parameters of access specifications ($wardNo), and — solely for
// the naive baseline of the paper's Section 6 — attribute-equality
// qualifiers [@name="value"].
//
// The package provides the AST, a parser for a conventional XPath-style
// concrete syntax ('.', names, '*', '/', '//', '|', '[...]', 'and', 'or',
// 'not(...)'), a printer whose output re-parses to an equal AST, a
// set-semantics evaluator over numbered xmltree documents (Eval*, bitset
// based, reading the document's label index) with the slow reference it
// is tested against (EvalRef), algebraic simplification, and the C⁻
// conjunctive-fragment check used by the optimizer.
package xpath

// Path is a node of the query AST for the fragment C.
type Path interface {
	isPath()
}

// Empty is the special query ∅: it returns the empty set over all trees.
// ∅ ∪ p ≡ p and p/∅/p' ≡ ∅.
type Empty struct{}

// Self is the empty path ε: it returns the context node.
type Self struct{}

// Label is a single child-axis step selecting children labeled Name. The
// pseudo-label "#text" (written text() in the concrete syntax) selects
// text children.
type Label struct {
	Name string
}

// Wildcard is the child-axis step '*' selecting all element children.
type Wildcard struct{}

// Seq is the composition p1/p2.
type Seq struct {
	Left, Right Path
}

// Descend is //p: p evaluated at the context node and every descendant
// (descendant-or-self axis followed by p).
type Descend struct {
	Sub Path
}

// Union is p1 ∪ p2 (written p1 | p2).
type Union struct {
	Left, Right Path
}

// Qualified is p[q]: the nodes selected by p at which q holds.
type Qualified struct {
	Sub  Path
	Cond Qual
}

func (Empty) isPath()     {}
func (Self) isPath()      {}
func (Label) isPath()     {}
func (Wildcard) isPath()  {}
func (Seq) isPath()       {}
func (Descend) isPath()   {}
func (Union) isPath()     {}
func (Qualified) isPath() {}

// Qual is a node of the qualifier AST.
type Qual interface {
	isQual()
}

// QPath is the atomic qualifier [p]: true iff v⟦p⟧ is nonempty.
type QPath struct {
	Path Path
}

// QEq is the comparison [p = c]: true iff v⟦p⟧ contains a node whose
// string value equals the constant. When Var is nonempty the constant is
// a specification parameter ($name) that must be bound before evaluation.
type QEq struct {
	Path  Path
	Value string
	Var   string
}

// QAnd is the conjunction q1 ∧ q2.
type QAnd struct {
	Left, Right Qual
}

// QOr is the disjunction q1 ∨ q2.
type QOr struct {
	Left, Right Qual
}

// QNot is the negation ¬q.
type QNot struct {
	Sub Qual
}

// QTrue is the constant-true qualifier, produced by the optimizer when a
// DTD constraint proves a qualifier always holds.
type QTrue struct{}

// QFalse is the constant-false qualifier.
type QFalse struct{}

// QAttrEq is the attribute test [@Name = Value]. The naive baseline uses
// it for [@accessibility="1"]; with the attribute extension of package
// dtd it is also a user-visible view qualifier.
type QAttrEq struct {
	Name, Value string
}

// QAttrHas is the attribute presence test [@Name].
type QAttrHas struct {
	Name string
}

func (QPath) isQual()    {}
func (QEq) isQual()      {}
func (QAnd) isQual()     {}
func (QOr) isQual()      {}
func (QNot) isQual()     {}
func (QTrue) isQual()    {}
func (QFalse) isQual()   {}
func (QAttrEq) isQual()  {}
func (QAttrHas) isQual() {}

// TextName is the pseudo-label selecting text nodes.
const TextName = "#text"

// Convenience constructors used pervasively by the view-derivation,
// rewriting, and optimization algorithms.

// L returns a single label step.
func L(name string) Path { return Label{Name: name} }

// MakeSeq composes p1/p2 applying the ∅ and ε laws.
func MakeSeq(p1, p2 Path) Path {
	if IsEmpty(p1) || IsEmpty(p2) {
		return Empty{}
	}
	if _, ok := p1.(Self); ok {
		return p2
	}
	if _, ok := p2.(Self); ok {
		return p1
	}
	// Left-associate so composed paths read a/b/c rather than a/(b/c).
	if s, ok := p2.(Seq); ok {
		return Seq{Left: MakeSeq(p1, s.Left), Right: s.Right}
	}
	// p/(.[q]) ≡ p[q].
	if q, ok := p2.(Qualified); ok {
		if _, self := q.Sub.(Self); self {
			return MakeQualified(p1, q.Cond)
		}
	}
	return Seq{Left: p1, Right: p2}
}

// MakeUnion builds p1 ∪ p2 applying the ∅ laws and dropping a duplicate
// operand.
func MakeUnion(p1, p2 Path) Path {
	if IsEmpty(p1) {
		return p2
	}
	if IsEmpty(p2) {
		return p1
	}
	if Equal(p1, p2) {
		return p1
	}
	return Union{Left: p1, Right: p2}
}

// MakeQualified builds p[q] applying the QTrue/QFalse and ∅ laws.
func MakeQualified(p Path, q Qual) Path {
	if IsEmpty(p) {
		return Empty{}
	}
	switch q.(type) {
	case QTrue:
		return p
	case QFalse:
		return Empty{}
	}
	return Qualified{Sub: p, Cond: q}
}

// MakeDescend builds //p applying the ∅ law.
func MakeDescend(p Path) Path {
	if IsEmpty(p) {
		return Empty{}
	}
	return Descend{Sub: p}
}

// MakeAnd builds q1 ∧ q2 applying the constant laws.
func MakeAnd(q1, q2 Qual) Qual {
	if _, ok := q1.(QFalse); ok {
		return QFalse{}
	}
	if _, ok := q2.(QFalse); ok {
		return QFalse{}
	}
	if _, ok := q1.(QTrue); ok {
		return q2
	}
	if _, ok := q2.(QTrue); ok {
		return q1
	}
	return QAnd{Left: q1, Right: q2}
}

// MakeOr builds q1 ∨ q2 applying the constant laws.
func MakeOr(q1, q2 Qual) Qual {
	if _, ok := q1.(QTrue); ok {
		return QTrue{}
	}
	if _, ok := q2.(QTrue); ok {
		return QTrue{}
	}
	if _, ok := q1.(QFalse); ok {
		return q2
	}
	if _, ok := q2.(QFalse); ok {
		return q1
	}
	return QOr{Left: q1, Right: q2}
}

// MakeNot builds ¬q applying the constant laws and double-negation
// elimination.
func MakeNot(q Qual) Qual {
	switch q := q.(type) {
	case QTrue:
		return QFalse{}
	case QFalse:
		return QTrue{}
	case QNot:
		return q.Sub
	}
	return QNot{Sub: q}
}

// IsEmpty reports whether the path is the ∅ query (syntactically).
func IsEmpty(p Path) bool {
	_, ok := p.(Empty)
	return ok
}
