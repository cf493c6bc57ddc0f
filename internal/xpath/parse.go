package xpath

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads a query of the fragment C from its concrete syntax.
//
// Syntax summary:
//
//	.                    the empty path ε (context node)
//	name                 child-axis label step (names may contain -._)
//	*                    child-axis wildcard
//	text()               child-axis text-node step
//	p/p, //p, p//p       composition and descendant-or-self
//	p | p                union
//	p[q]                 qualifier
//	∅                    the empty query
//
// and inside qualifiers:
//
//	p, p = "c", p = $var, q and q, q or q, not(q),
//	true(), false(), @name = "v"
//
// A single leading '/' is accepted and ignored: queries are evaluated at a
// context node (the root for whole-document queries), so /a/b ≡ a/b.
//
// A query whose AST would be deeper than MaxQueryDepth is rejected with
// a ParseError wrapping ErrQueryTooDeep, before the parser recurses
// that deep: every later stage (rewrite, optimize, print, evaluate)
// walks the AST recursively, and Go cannot recover from exhausting a
// goroutine stack.
func Parse(src string) (Path, error) {
	p := &parser{src: src}
	path, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, &ParseError{msg: fmt.Sprintf("xpath: trailing input %q at offset %d", p.src[p.pos:], p.pos)}
	}
	return path, nil
}

// MustParse parses a trusted query and panics on error.
func MustParse(src string) Path {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseQual parses a bare qualifier (the part between brackets).
func ParseQual(src string) (Qual, error) {
	p := &parser{src: src}
	q, err := p.parseQualOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, &ParseError{msg: fmt.Sprintf("xpath: trailing input %q at offset %d", p.src[p.pos:], p.pos)}
	}
	return q, nil
}

// MustParseQual parses a trusted qualifier and panics on error.
func MustParseQual(src string) Qual {
	q, err := ParseQual(src)
	if err != nil {
		panic(err)
	}
	return q
}

// MaxQueryDepth bounds the height of a parsed AST. Chains count: a/b/c,
// a | b | c, q and q and q build left-deep trees one level per operand,
// as nested brackets and parentheses do per level. Served queries and
// view σ paths are a few dozen levels at most.
const MaxQueryDepth = 1000

// ErrQueryTooDeep is wrapped by the ParseError of a query whose AST
// would exceed MaxQueryDepth.
var ErrQueryTooDeep = errors.New("xpath: query nests too deep")

type parser struct {
	src string
	pos int
	// nest counts the open parseUnion and parseQualOr calls, so the
	// recursion itself stops at MaxQueryDepth; h is the height of the
	// node the last parse function returned.
	nest int
	h    int
	// paths and quals memoize the parenthesized paths and qualifiers
	// parsed at each '(' offset. A '(' inside a qualifier is ambiguous
	// (see parseQualAtom) and is tried both ways; without the memo each
	// nesting level would parse its contents twice, exponential time in
	// the nesting depth.
	paths map[int]paren
	quals map[int]paren
}

// paren is the memoized parse of a parenthesized path or qualifier:
// its result, the offset after it and its height.
type paren struct {
	path   Path
	qual   Qual
	end, h int
	err    error
}

// enter opens one level of parser recursion, failing past
// MaxQueryDepth; callers defer p.leave().
func (p *parser) enter() error {
	p.nest++
	if p.nest > MaxQueryDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) leave() { p.nest-- }

// grow sets the height of the node just built from children of heights
// a and b, failing past MaxQueryDepth.
func (p *parser) grow(a, b int) error {
	p.h = max(a, b) + 1
	if p.h > MaxQueryDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) tooDeep() error {
	return &ParseError{msg: fmt.Sprintf("xpath: query nests deeper than %d levels (offset %d)", MaxQueryDepth, p.pos), err: ErrQueryTooDeep}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		r, w := utf8.DecodeRuneInString(p.src[p.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		p.pos += w
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// ParseError is the error type of Parse and ParseQual. Servers use it
// to tell query-syntax errors (the client's fault) from internal
// failures; the message is unchanged from the historical fmt.Errorf
// form.
type ParseError struct {
	msg string
	err error // ErrQueryTooDeep, or nil
}

func (e *ParseError) Error() string { return e.msg }

// Unwrap exposes ErrQueryTooDeep to errors.Is.
func (e *ParseError) Unwrap() error { return e.err }

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{msg: fmt.Sprintf("xpath: %s (offset %d in %q)", fmt.Sprintf(format, args...), p.pos, p.src)}
}

// parseUnion := parseSeq ('|' parseSeq)*
func (p *parser) parseUnion() (Path, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	for {
		hl := p.h
		p.skipSpace()
		if p.peek() != '|' {
			return left, nil
		}
		p.pos++
		right, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		if err := p.grow(hl, p.h); err != nil {
			return nil, err
		}
		left = Union{Left: left, Right: right}
	}
}

// parseSeq := ['/'|'//'] step (('/'|'//') step)*
func (p *parser) parseSeq() (Path, error) {
	p.skipSpace()
	// Leading // : descendant from the context; leading / is ignored (see
	// Parse doc comment).
	if strings.HasPrefix(p.src[p.pos:], "//") {
		p.pos += 2
		rest, err := p.parseSeqAfterSlash()
		if err != nil {
			return nil, err
		}
		if err := p.grow(p.h, 0); err != nil {
			return nil, err
		}
		return Descend{Sub: rest}, nil
	}
	if p.peek() == '/' {
		p.pos++
	}
	return p.parseSeqAfterSlash()
}

// parseSeqAfterSlash parses step (('/'|'//') step)* with the first step
// mandatory.
func (p *parser) parseSeqAfterSlash() (Path, error) {
	left, err := p.parseStep()
	if err != nil {
		return nil, err
	}
	for {
		hl := p.h
		p.skipSpace()
		if strings.HasPrefix(p.src[p.pos:], "//") {
			p.pos += 2
			right, err := p.parseStep()
			if err != nil {
				return nil, err
			}
			if err := p.grow(hl, p.h+1); err != nil {
				return nil, err
			}
			// Left-associative: a//b/c is (a/(//b))/c.
			left = Seq{Left: left, Right: Descend{Sub: right}}
			continue
		}
		if p.peek() == '/' {
			p.pos++
			right, err := p.parseStep()
			if err != nil {
				return nil, err
			}
			if err := p.grow(hl, p.h); err != nil {
				return nil, err
			}
			left = Seq{Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

// parseStep := primary ('[' qual ']')*
func (p *parser) parseStep() (Path, error) {
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		hp := p.h
		p.skipSpace()
		if p.peek() != '[' {
			return prim, nil
		}
		p.pos++
		q, err := p.parseQualOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ']' {
			return nil, p.errf("expected ']'")
		}
		p.pos++
		if err := p.grow(hp, p.h); err != nil {
			return nil, err
		}
		prim = Qualified{Sub: prim, Cond: q}
	}
}

// parsePrimary parses one step; every form but a parenthesized path
// is a leaf of height 1.
func (p *parser) parsePrimary() (Path, error) {
	p.skipSpace()
	p.h = 1
	switch {
	case p.peek() == '(':
		if m, ok := p.paths[p.pos]; ok {
			p.pos, p.h = m.end, m.h
			return m.path, m.err
		}
		start := p.pos
		inner, err := p.parenPath()
		if p.paths == nil {
			p.paths = make(map[int]paren)
		}
		p.paths[start] = paren{path: inner, end: p.pos, h: p.h, err: err}
		return inner, err
	case p.peek() == '*':
		p.pos++
		return Wildcard{}, nil
	case p.peek() == '.':
		p.pos++
		return Self{}, nil
	case strings.HasPrefix(p.src[p.pos:], "∅"):
		p.pos += len("∅")
		return Empty{}, nil
	default:
		name := p.parseName()
		if name == "" {
			return nil, p.errf("expected a step")
		}
		if name == "text" && p.peek() == '(' && strings.HasPrefix(p.src[p.pos:], "()") {
			p.pos += 2
			return Label{Name: TextName}, nil
		}
		return Label{Name: name}, nil
	}
}

// parseQualOr := parseQualAnd ('or' parseQualAnd)*
func (p *parser) parseQualOr() (Qual, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseQualAnd()
	if err != nil {
		return nil, err
	}
	for hl := p.h; p.eatKeyword("or"); hl = p.h {
		right, err := p.parseQualAnd()
		if err != nil {
			return nil, err
		}
		if err := p.grow(hl, p.h); err != nil {
			return nil, err
		}
		left = QOr{Left: left, Right: right}
	}
	return left, nil
}

// parseQualAnd := parseQualAtom ('and' parseQualAtom)*
func (p *parser) parseQualAnd() (Qual, error) {
	left, err := p.parseQualAtom()
	if err != nil {
		return nil, err
	}
	for hl := p.h; p.eatKeyword("and"); hl = p.h {
		right, err := p.parseQualAtom()
		if err != nil {
			return nil, err
		}
		if err := p.grow(hl, p.h); err != nil {
			return nil, err
		}
		left = QAnd{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseQualAtom() (Qual, error) {
	p.skipSpace()
	if p.eatKeyword("not") {
		p.skipSpace()
		if p.peek() != '(' {
			return nil, p.errf("expected '(' after not")
		}
		p.pos++
		inner, err := p.parseQualOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, p.errf("expected ')' after not(...)")
		}
		p.pos++
		if err := p.grow(p.h, 0); err != nil {
			return nil, err
		}
		return QNot{Sub: inner}, nil
	}
	p.h = 1 // true(), false() and attribute tests are leaves
	if p.eatKeyword("true") {
		if err := p.expectParens(); err != nil {
			return nil, err
		}
		return QTrue{}, nil
	}
	if p.eatKeyword("false") {
		if err := p.expectParens(); err != nil {
			return nil, err
		}
		return QFalse{}, nil
	}
	if p.peek() == '@' {
		p.pos++
		name := p.parseName()
		if name == "" {
			return nil, p.errf("expected attribute name after '@'")
		}
		p.skipSpace()
		if p.peek() != '=' {
			return QAttrHas{Name: name}, nil
		}
		p.pos++
		val, _, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return QAttrEq{Name: name, Value: val}, nil
	}
	if p.peek() == '(' {
		// Could be a parenthesized qualifier or a parenthesized path.
		// Try qualifier first; on failure fall back to a path atom.
		save := p.pos
		m, ok := p.quals[save]
		if !ok {
			inner, err := p.parenQual()
			m = paren{qual: inner, end: p.pos, h: p.h, err: err}
			if p.quals == nil {
				p.quals = make(map[int]paren)
			}
			p.quals[save] = m
		}
		if m.err == nil {
			p.pos, p.h = m.end, m.h
			// If an '=' or path continuation follows, the parentheses
			// belonged to a path; re-parse as a path qualifier.
			p.skipSpace()
			if p.peek() != '=' && p.peek() != '/' && p.peek() != '[' {
				return m.qual, nil
			}
		}
		p.pos = save
	}
	path, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if err := p.grow(p.h, 0); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() == '=' {
		p.pos++
		val, varName, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return QEq{Path: path, Value: val, Var: varName}, nil
	}
	return QPath{Path: path}, nil
}

// parenPath parses '(' path ')'.
func (p *parser) parenPath() (Path, error) {
	p.pos++
	inner, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() != ')' {
		return nil, p.errf("expected ')'")
	}
	p.pos++
	return inner, nil
}

// parenQual parses '(' qualifier ')'.
func (p *parser) parenQual() (Qual, error) {
	p.pos++
	inner, err := p.parseQualOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() != ')' {
		return nil, p.errf("expected ')'")
	}
	p.pos++
	return inner, nil
}

func (p *parser) expectParens() error {
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], "()") {
		return p.errf("expected '()'")
	}
	p.pos += 2
	return nil
}

// parseLiteral parses "str", 'str', $var, or a bare number/word constant.
// It returns (value, varName). A string literal's bytes are taken as they
// are, except that a doubled delimiter stands for one, as in XPath 2.0:
// two double quotes inside a double-quoted literal, two single quotes
// inside a single-quoted one. The printer relies on that to write any
// value.
func (p *parser) parseLiteral() (string, string, error) {
	p.skipSpace()
	switch {
	case p.peek() == '"' || p.peek() == '\'':
		quote := p.peek()
		p.pos++
		start, doubled := p.pos, false
		for {
			i := strings.IndexByte(p.src[p.pos:], quote)
			if i < 0 {
				p.pos = len(p.src)
				return "", "", p.errf("unterminated string literal")
			}
			p.pos += i
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == quote {
				p.pos += 2
				doubled = true
				continue
			}
			break
		}
		val := p.src[start:p.pos]
		p.pos++
		if doubled {
			q := string(quote)
			val = strings.ReplaceAll(val, q+q, q)
		}
		return val, "", nil
	case p.peek() == '$':
		p.pos++
		name := p.parseName()
		if name == "" {
			return "", "", p.errf("expected variable name after '$'")
		}
		return "", name, nil
	default:
		word := p.parseName()
		if word == "" {
			return "", "", p.errf("expected a literal")
		}
		return word, "", nil
	}
}

// eatKeyword consumes the keyword when it appears as a whole word at the
// current position.
func (p *parser) eatKeyword(kw string) bool {
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], kw) {
		return false
	}
	rest := p.src[p.pos+len(kw):]
	if rest != "" && isNameByte(rest[0]) {
		return false
	}
	p.pos += len(kw)
	return true
}

func (p *parser) parseName() string {
	start := p.pos
	for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func isNameByte(c byte) bool {
	return c == '-' || c == '_' || c == '.' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}
