package xpath

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
)

// String renders a path in the concrete syntax accepted by Parse, so that
// Parse(String(p)) is structurally equal to p up to associativity. The
// text is rendered into a pooled buffer and copied out at its exact
// length: plan caches keep these strings, and the spare capacity of a
// buffer grown by doubling would stay attached to every one of them.
func String(p Path) string {
	b := getBuf()
	writePath(b, p, precUnion)
	return putBuf(b)
}

// QualString renders a qualifier (without the surrounding brackets).
func QualString(q Qual) string {
	b := getBuf()
	writeQual(b, q, qprecOr)
	return putBuf(b)
}

// maxPooledBuf bounds the buffers kept for reuse, so one huge plan does
// not pin its buffer in the pool.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

// putBuf returns the buffer's text as an exactly sized string and the
// buffer to the pool.
func putBuf(b *bytes.Buffer) string {
	s := b.String()
	if b.Cap() <= maxPooledBuf {
		b.Reset()
		bufPool.Put(b)
	}
	return s
}

// Operator precedence levels for paths: union < seq < step.
const (
	precUnion = iota
	precSeq
	precStep
)

func writePath(b *bytes.Buffer, p Path, ctx int) {
	switch p := p.(type) {
	case Empty:
		b.WriteString("∅")
	case Self:
		b.WriteString(".")
	case Label:
		if p.Name == TextName {
			b.WriteString("text()")
		} else {
			b.WriteString(p.Name)
		}
	case Wildcard:
		b.WriteString("*")
	case Seq:
		if ctx > precSeq {
			b.WriteString("(")
			writePath(b, p, precUnion)
			b.WriteString(")")
			return
		}
		// A Descend on the left must be parenthesized: "//a/b" re-parses as
		// //(a/b), not (//a)/b.
		if _, ok := p.Left.(Descend); ok {
			b.WriteString("(")
			writePath(b, p.Left, precUnion)
			b.WriteString(")")
		} else {
			writePath(b, p.Left, precSeq)
		}
		// p1/(//p2) is rendered p1//p2.
		if d, ok := p.Right.(Descend); ok {
			b.WriteString("//")
			writePath(b, d.Sub, precStep)
			return
		}
		b.WriteString("/")
		writePath(b, p.Right, precStep)
	case Descend:
		if ctx > precSeq {
			b.WriteString("(")
			writePath(b, p, precUnion)
			b.WriteString(")")
			return
		}
		b.WriteString("//")
		writePath(b, p.Sub, precStep)
	case Union:
		if ctx > precUnion {
			b.WriteString("(")
			writePath(b, p, precUnion)
			b.WriteString(")")
			return
		}
		writePath(b, p.Left, precUnion)
		b.WriteString(" | ")
		// The parser is left-associative; parenthesize a right-nested union.
		writePath(b, p.Right, precSeq)
	case Qualified:
		writePath(b, p.Sub, precStep)
		b.WriteString("[")
		writeQual(b, p.Cond, qprecOr)
		b.WriteString("]")
	case Rec:
		// Rec has no concrete syntax (it only appears in rewritten plans,
		// which are never re-parsed); render a compact opaque form.
		fmt.Fprintf(b, "rec{%s=>%s}", p.Start, p.Accept)
	default:
		fmt.Fprintf(b, "<?path %T>", p)
	}
}

// Qualifier precedence: or < and < not/atom.
const (
	qprecOr = iota
	qprecAnd
	qprecNot
)

// writeLiteral writes v as a double-quoted string literal: its bytes go
// out as they are, with each '"' doubled (the XPath 2.0 escape), which is
// exactly what Parse reads back.
func writeLiteral(b *bytes.Buffer, v string) {
	b.WriteByte('"')
	b.WriteString(strings.ReplaceAll(v, `"`, `""`))
	b.WriteByte('"')
}

// writeQualPath writes the path of a qualifier atom. A path that starts
// with a label named not, true or false is parenthesized, or it would
// reparse as that keyword.
func writeQualPath(b *bytes.Buffer, p Path, ctx int) {
	switch leadingLabel(p) {
	case "not", "true", "false":
		b.WriteString("(")
		writePath(b, p, precUnion)
		b.WriteString(")")
	default:
		writePath(b, p, ctx)
	}
}

// leadingLabel returns the label a printed path may start with, or "".
func leadingLabel(p Path) string {
	for {
		switch l := p.(type) {
		case Seq:
			p = l.Left
		case Union:
			p = l.Left
		case Qualified:
			p = l.Sub
		case Label:
			return l.Name
		default:
			return ""
		}
	}
}

func writeQual(b *bytes.Buffer, q Qual, ctx int) {
	switch q := q.(type) {
	case QTrue:
		b.WriteString("true()")
	case QFalse:
		b.WriteString("false()")
	case QPath:
		writeQualPath(b, q.Path, precUnion)
	case QEq:
		writeQualPath(b, q.Path, precSeq)
		b.WriteString(" = ")
		if q.Var != "" {
			b.WriteString("$")
			b.WriteString(q.Var)
		} else {
			writeLiteral(b, q.Value)
		}
	case QAttrEq:
		b.WriteString("@")
		b.WriteString(q.Name)
		b.WriteString(" = ")
		writeLiteral(b, q.Value)
	case QAttrHas:
		fmt.Fprintf(b, "@%s", q.Name)
	case QAnd:
		if ctx > qprecAnd {
			b.WriteString("(")
			writeQual(b, q, qprecOr)
			b.WriteString(")")
			return
		}
		writeQual(b, q.Left, qprecAnd)
		b.WriteString(" and ")
		// The parser is left-associative; parenthesize a right-nested and.
		writeQual(b, q.Right, qprecNot)
	case QOr:
		if ctx > qprecOr {
			b.WriteString("(")
			writeQual(b, q, qprecOr)
			b.WriteString(")")
			return
		}
		writeQual(b, q.Left, qprecOr)
		b.WriteString(" or ")
		// The parser is left-associative; parenthesize a right-nested or.
		writeQual(b, q.Right, qprecAnd)
	case QNot:
		b.WriteString("not(")
		writeQual(b, q.Sub, qprecOr)
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "<?qual %T>", q)
	}
}
