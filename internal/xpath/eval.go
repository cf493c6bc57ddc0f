package xpath

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/xmltree"
)

// This file holds the evaluator's entry points and the reference
// evaluator. Evaluate, and EvalDoc on top of it, run the ordinal
// (bitset) evaluator of bitset_eval.go, the one evaluator serving uses.
// EvalRef and EvalQual run seqEval instead: a direct, per-node
// transcription of the paper's semantics over node slices, kept as the
// reference every differential suite and ground-truth oracle compares
// against.

// ErrUnnumbered is returned when the context nodes are not all freshly
// numbered by one document: a node was detached or the tree mutated
// since the last Document.Renumber, the nodes were never part of a
// document, or they come from different documents. Evaluation reads the
// numbering, so it refuses such contexts instead of guessing.
var ErrUnnumbered = errors.New("xpath: context nodes are not numbered by one document (renumber after structural mutation)")

// Evaluate evaluates a plan at a set of context nodes and returns the
// union of the per-node results in document order without duplicates
// (the paper's v⟦p⟧). env binds the plan's variables ($parameters and
// literal placeholders), so one plan serves every binding without being
// copied per request; the zero Env binds nothing, and an unbound
// variable is an error.
//
// Evaluation checks ctx for cancellation cooperatively (at every path
// step, and periodically inside per-node loops) and returns ctx.Err()
// once it is done; a nil ctx disables the checks. visited reports the
// evaluation's cooperation ticks — one per path step plus one per node
// in the hot loops — as a nodes-visited proxy for observability; it is
// counted only when ctx is non-nil (the counter rides the cancellation
// machinery).
func Evaluate(ctx context.Context, p Path, nodes []*xmltree.Node, env Env) (out []*xmltree.Node, visited uint64, err error) {
	t := newTicker(ctx)
	if err := t.cancelled(); err != nil {
		return nil, 0, err
	}
	if len(nodes) == 0 {
		return nil, 0, nil
	}
	d := ordinalDoc(nodes)
	if d == nil {
		return nil, 0, ErrUnnumbered
	}
	b := &bitEval{se: t, doc: d, env: env}
	out, err = b.eval(p, nodes)
	return out, uint64(b.se.ticks), err
}

// EvalDoc evaluates a variable-free query over a whole document, using
// the document root as the context node. Queries written with a leading
// '/' or '//' behave as in standard XPath because Parse treats the root
// element as the context: //a finds every a including the root itself.
// It panics on evaluation errors; untrusted queries go through Evaluate.
func EvalDoc(p Path, doc *xmltree.Document) []*xmltree.Node {
	out, _, err := Evaluate(nil, p, []*xmltree.Node{doc.Root}, Env{})
	if err != nil {
		panic("xpath: " + err.Error())
	}
	return out
}

// EvalRef evaluates p at the context nodes with the reference evaluator:
// node slices, qualifiers tested one node at a time, descendant steps by
// walking. Its answers define what every other evaluation must return.
// It is slow by design and never used for serving. Duplicate-free
// document-order output requires the nodes to be numbered by one
// document, as for Evaluate; on other inputs the answer holds the right
// nodes in no particular order.
func EvalRef(p Path, ctx []*xmltree.Node) ([]*xmltree.Node, error) {
	out, err := seqEval{}.path(p, ctx)
	if err != nil {
		return nil, err
	}
	return xmltree.SortDocOrder(out), nil
}

// EvalQual evaluates a qualifier at a context node (the paper's "[q]
// holds at v") with the reference evaluator. It panics on unbound
// $variables; an untrusted qualifier q is tested as the query .[q]
// through EvalRef, which returns the error instead.
func EvalQual(q Qual, v *xmltree.Node) bool {
	hold, err := seqEval{}.qual(q, v)
	if err != nil {
		panic("xpath: " + err.Error())
	}
	return hold
}

// tickMask sets the cooperative cancellation poll rate: one ctx.Err()
// check per tickMask+1 ticks. Ticks fire once per path step and once per
// node in the hot loops (descendant collection, qualifier filtering), so
// a 1ms deadline is noticed within microseconds even mid-step on a large
// document, while the common uncancellable evaluation pays one counter
// increment per tick.
const tickMask = 127

// ticker is one evaluation's cancellation state: the optional context
// and the tick counter that rate-limits polling it. A ticker is used by
// a single goroutine.
type ticker struct {
	ctx      context.Context
	ticks    uint
	deadline time.Time
	timed    bool
}

// newTicker captures the context's deadline once so every poll can
// compare against the clock directly; see cancelled.
func newTicker(ctx context.Context) ticker {
	e := ticker{ctx: ctx}
	if ctx != nil {
		e.deadline, e.timed = ctx.Deadline()
	}
	return e
}

// tick advances the poll counter and reports ctx.Err() when the context
// is done. It is cheap enough for per-node loops.
func (e *ticker) tick() error {
	if e.ctx == nil {
		return nil
	}
	e.ticks++
	if e.ticks&tickMask != 0 {
		return nil
	}
	return e.cancelled()
}

// cancelled polls the context immediately (no tick rate limit). It
// reads ctx.Err() rather than selecting on ctx.Done(), which would make
// the context build its Done channel on every evaluation. Beyond that
// it also checks an expired deadline against the clock: the runtime
// timer that cancels the context can lag the deadline by tens of
// milliseconds when a CPU-bound evaluation monopolizes a single-P
// scheduler, and a deadline the caller set must cut the query off even
// then.
func (e *ticker) cancelled() error {
	if e.ctx == nil {
		return nil
	}
	if err := e.ctx.Err(); err != nil {
		return err
	}
	if e.timed && !time.Now().Before(e.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// tickN advances the poll counter by n at once — the bulk form of tick
// for interval fast paths that take whole subtrees per operation instead
// of visiting nodes one by one. It polls the context iff the jump
// crossed a poll boundary, preserving tick's at-least-once-per-128-ticks
// cancellation granularity and keeping the ticks count an honest
// nodes-visited proxy.
func (e *ticker) tickN(n int) error {
	if e.ctx == nil || n <= 0 {
		return nil
	}
	old := e.ticks
	e.ticks += uint(n)
	if old>>7 == e.ticks>>7 {
		return nil
	}
	return e.cancelled()
}

// seqEval is the reference evaluator: a direct transcription of the
// paper's semantics over node slices, one qualifier test per node.
type seqEval struct{}

func (e seqEval) path(p Path, ctx []*xmltree.Node) ([]*xmltree.Node, error) {
	if len(ctx) == 0 {
		return nil, nil
	}
	switch p := p.(type) {
	case Empty:
		return nil, nil
	case Self:
		return append([]*xmltree.Node(nil), ctx...), nil
	case Label:
		var out []*xmltree.Node
		for _, v := range ctx {
			for _, c := range v.Children {
				if c.Label == p.Name {
					out = append(out, c)
				}
			}
		}
		return out, nil
	case Wildcard:
		var out []*xmltree.Node
		for _, v := range ctx {
			for _, c := range v.Children {
				if c.Kind == xmltree.ElementNode {
					out = append(out, c)
				}
			}
		}
		return out, nil
	case Seq:
		mid, err := e.path(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		return e.path(p.Right, xmltree.SortDocOrder(mid))
	case Descend:
		// descendant-or-self, then p.Sub.
		return e.path(p.Sub, descendantOrSelf(ctx))
	case Union:
		left, err := e.path(p.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := e.path(p.Right, ctx)
		if err != nil {
			return nil, err
		}
		// Dedup eagerly: overlapping branches would otherwise hand
		// duplicate nodes to an enclosing context.
		return xmltree.SortDocOrder(append(left, right...)), nil
	case Qualified:
		mid, err := e.path(p.Sub, ctx)
		if err != nil {
			return nil, err
		}
		var out []*xmltree.Node
		for _, v := range xmltree.SortDocOrder(mid) {
			hold, err := e.qual(p.Cond, v)
			if err != nil {
				return nil, err
			}
			if hold {
				out = append(out, v)
			}
		}
		return out, nil
	case Rec:
		return e.rec(p, ctx)
	default:
		return nil, fmt.Errorf("evalPath: unknown path node %T", p)
	}
}

// descendantOrSelf collects the context nodes and all their descendants
// without duplicates, by walking.
func descendantOrSelf(ctx []*xmltree.Node) []*xmltree.Node {
	var dos []*xmltree.Node
	seen := make(map[*xmltree.Node]bool)
	for _, v := range ctx {
		v.Walk(func(n *xmltree.Node) bool {
			if seen[n] {
				return false
			}
			seen[n] = true
			dos = append(dos, n)
			return true
		})
	}
	return xmltree.SortDocOrder(dos)
}

func (e seqEval) qual(q Qual, v *xmltree.Node) (bool, error) {
	switch q := q.(type) {
	case QTrue:
		return true, nil
	case QFalse:
		return false, nil
	case QPath:
		res, err := e.path(q.Path, []*xmltree.Node{v})
		return len(res) > 0, err
	case QEq:
		if q.Var != "" {
			return false, fmt.Errorf("unbound variable $%s in qualifier", q.Var)
		}
		res, err := e.path(q.Path, []*xmltree.Node{v})
		if err != nil {
			return false, err
		}
		for _, n := range res {
			if n.Text() == q.Value {
				return true, nil
			}
		}
		return false, nil
	case QAttrEq:
		val, ok := v.Attr(q.Name)
		return ok && val == q.Value, nil
	case QAttrHas:
		_, ok := v.Attr(q.Name)
		return ok, nil
	case QAnd:
		left, err := e.qual(q.Left, v)
		if err != nil || !left {
			return false, err
		}
		return e.qual(q.Right, v)
	case QOr:
		left, err := e.qual(q.Left, v)
		if err != nil || left {
			return left, err
		}
		return e.qual(q.Right, v)
	case QNot:
		hold, err := e.qual(q.Sub, v)
		return !hold && err == nil, err
	default:
		return false, fmt.Errorf("EvalQual: unknown qualifier node %T", q)
	}
}
