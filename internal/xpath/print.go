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
	writePath(b, p, precUnion, nil)
	return putBuf(b)
}

// AppendParameterized appends the text of Parameterize(p) to dst and
// returns it with Parameterize's literals, in one walk over p, without
// building the renamed query: each p = "c" constant prints as its
// placeholder, numbered in first occurrence order with equal constants
// sharing one, and the walk collects the constants as it goes. Plan
// caches key on this text; a caller that appends into a reused buffer
// can probe its cache without making a string.
func AppendParameterized(dst []byte, p Path) ([]byte, []string) {
	b := getBuf()
	var r renamer
	writePath(b, p, precUnion, &r)
	dst = append(dst, b.Bytes()...)
	releaseBuf(b)
	return dst, r.lits
}

// QualString renders a qualifier (without the surrounding brackets).
func QualString(q Qual) string {
	b := getBuf()
	writeQual(b, q, qprecOr, nil)
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
	releaseBuf(b)
	return s
}

// releaseBuf returns a buffer to the pool unless it grew too large.
func releaseBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		b.Reset()
		bufPool.Put(b)
	}
}

// Operator precedence levels for paths: union < seq < step.
const (
	precUnion = iota
	precSeq
	precStep
)

// writePath writes p at precedence ctx. With r non-nil it writes the
// parameterized text instead: each p = "c" constant goes out as r's
// placeholder for it (see AppendParameterized). A parenthesized node is
// written again through p itself, the interface value it came in, so
// printing boxes nothing.
func writePath(b *bytes.Buffer, p Path, ctx int, r *renamer) {
	switch n := p.(type) {
	case Empty:
		b.WriteString("∅")
	case Self:
		b.WriteString(".")
	case Label:
		if n.Name == TextName {
			b.WriteString("text()")
		} else {
			b.WriteString(n.Name)
		}
	case Wildcard:
		b.WriteString("*")
	case Seq:
		if ctx > precSeq {
			writeParen(b, p, r)
			return
		}
		// A Descend on the left must be parenthesized: "//a/b" re-parses as
		// //(a/b), not (//a)/b.
		if _, ok := n.Left.(Descend); ok {
			writeParen(b, n.Left, r)
		} else {
			writePath(b, n.Left, precSeq, r)
		}
		// p1/(//p2) is rendered p1//p2.
		if d, ok := n.Right.(Descend); ok {
			b.WriteString("//")
			writePath(b, d.Sub, precStep, r)
			return
		}
		b.WriteString("/")
		writePath(b, n.Right, precStep, r)
	case Descend:
		if ctx > precSeq {
			writeParen(b, p, r)
			return
		}
		b.WriteString("//")
		writePath(b, n.Sub, precStep, r)
	case Union:
		if ctx > precUnion {
			writeParen(b, p, r)
			return
		}
		writePath(b, n.Left, precUnion, r)
		b.WriteString(" | ")
		// The parser is left-associative; parenthesize a right-nested union.
		writePath(b, n.Right, precSeq, r)
	case Qualified:
		writePath(b, n.Sub, precStep, r)
		b.WriteString("[")
		writeQual(b, n.Cond, qprecOr, r)
		b.WriteString("]")
	case Rec:
		// Rec has no concrete syntax (it only appears in rewritten plans,
		// which are never re-parsed); render a compact opaque form.
		fmt.Fprintf(b, "rec{%s=>%s}", n.Start, n.Accept)
	default:
		fmt.Fprintf(b, "<?path %T>", p)
	}
}

// writeParen writes p in parentheses.
func writeParen(b *bytes.Buffer, p Path, r *renamer) {
	b.WriteString("(")
	writePath(b, p, precUnion, r)
	b.WriteString(")")
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
func writeQualPath(b *bytes.Buffer, p Path, ctx int, r *renamer) {
	switch leadingLabel(p) {
	case "not", "true", "false":
		writeParen(b, p, r)
	default:
		writePath(b, p, ctx, r)
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

func writeQual(b *bytes.Buffer, q Qual, ctx int, r *renamer) {
	switch n := q.(type) {
	case QTrue:
		b.WriteString("true()")
	case QFalse:
		b.WriteString("false()")
	case QPath:
		writeQualPath(b, n.Path, precUnion, r)
	case QEq:
		writeQualPath(b, n.Path, precSeq, r)
		b.WriteString(" = ")
		switch {
		case n.Var != "":
			b.WriteString("$")
			b.WriteString(n.Var)
		case r != nil:
			b.WriteString("$")
			b.WriteString(LiteralVar(r.index(n.Value)))
		default:
			writeLiteral(b, n.Value)
		}
	case QAttrEq:
		b.WriteString("@")
		b.WriteString(n.Name)
		b.WriteString(" = ")
		writeLiteral(b, n.Value)
	case QAttrHas:
		b.WriteString("@")
		b.WriteString(n.Name)
	case QAnd:
		if ctx > qprecAnd {
			writeQualParen(b, q, r)
			return
		}
		writeQual(b, n.Left, qprecAnd, r)
		b.WriteString(" and ")
		// The parser is left-associative; parenthesize a right-nested and.
		writeQual(b, n.Right, qprecNot, r)
	case QOr:
		if ctx > qprecOr {
			writeQualParen(b, q, r)
			return
		}
		writeQual(b, n.Left, qprecOr, r)
		b.WriteString(" or ")
		// The parser is left-associative; parenthesize a right-nested or.
		writeQual(b, n.Right, qprecAnd, r)
	case QNot:
		b.WriteString("not(")
		writeQual(b, n.Sub, qprecOr, r)
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "<?qual %T>", q)
	}
}

// writeQualParen writes q in parentheses.
func writeQualParen(b *bytes.Buffer, q Qual, r *renamer) {
	b.WriteString("(")
	writeQual(b, q, qprecOr, r)
	b.WriteString(")")
}
