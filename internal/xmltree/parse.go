package xmltree

import (
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads an XML document from r into a tree. Whitespace-only text
// is dropped (the paper's data model has PCDATA only at leaves); other
// text is kept verbatim. Comments and processing instructions are
// skipped. It reads r fully and loads the bytes in one pass (see load).
func Parse(r io.Reader) (*Document, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("xmltree: %v", err)
	}
	return load(b.String())
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) {
	return load(s)
}

// Serialize writes the document as XML to w (see Node.AppendXML).
func (d *Document) Serialize(w io.Writer) error {
	_, err := w.Write(d.Root.AppendXML(nil))
	return err
}

// XML returns the document serialized as an indented XML string.
func (d *Document) XML() string {
	return d.Root.String()
}

// Arena chunk sizes. Nodes live in chunks of chunkNodes, so a document
// wastes at most one partly filled chunk and nothing is sized by an
// estimate of the node count; child windows are carved from chunks of
// kidsChunk pointers.
const (
	chunkNodes = 256
	kidsChunk  = 1024
)

// loader scans one document. It writes each node into the arena the
// moment the scanner reaches it, so nodes come out in document order
// and ord is a counter; an element's desc and its Children window are
// settled when its end tag is read.
type loader struct {
	src string
	pos int
	doc *Document

	labels     map[string]string // interned element and attribute names
	chunk      []Node            // current arena chunk, filled up to len
	chunks     [][]Node          // the full chunks before it, in document order
	count      int               // nodes loaded so far
	root       *Node
	open       []frame // open elements, innermost last
	pending    []*Node // children of the open elements, awaiting their end tags
	kids       []*Node // current chunk of Children windows
	text       []byte  // decoded text of every text node, in document order
	ends       []int   // end offset in text of each text node
	scratch    []byte  // one attribute value being decoded
	sawDoctype bool
}

// frame is an open element and where its children start in pending.
type frame struct {
	n    *Node
	mark int
}

// load builds a document from XML text in one pass over the bytes; it
// never recurses, so nesting depth is bounded by memory alone. It
// accepts the subset of XML 1.0 the system produces and reads:
// elements, attributes with quoted values, character data with the five
// predefined entities and numeric character references, CDATA sections,
// comments, processing instructions, an XML declaration at the very
// start and one DOCTYPE before the root (skipped, not read). It
// rejects namespace prefixes and names outside ASCII. Every input it
// accepts, encoding/xml accepts too and yields the same tree (the
// differential fuzz test holds it to that).
func load(src string) (*Document, error) {
	l := &loader{src: src, doc: &Document{gen: 1}, labels: make(map[string]string)}
	if err := l.run(); err != nil {
		return nil, fmt.Errorf("xmltree: line %d: %v", 1+strings.Count(src[:min(l.pos, len(src))], "\n"), err)
	}
	return l.finish(), nil
}

func (l *loader) run() error {
	if strings.HasPrefix(l.src, "<?xml") && len(l.src) > 5 && isSpaceByte(l.src[5]) {
		if err := l.xmlDecl(); err != nil {
			return err
		}
	}
	for l.pos < len(l.src) {
		if l.src[l.pos] != '<' {
			end := strings.IndexByte(l.src[l.pos:], '<')
			if end < 0 {
				end = len(l.src)
			} else {
				end += l.pos
			}
			if err := l.charData(l.src[l.pos:end], textData); err != nil {
				return err
			}
			l.pos = end
			continue
		}
		var err error
		rest := l.src[l.pos:]
		switch {
		case strings.HasPrefix(rest, "</"):
			err = l.endTag()
		case strings.HasPrefix(rest, "<!--"):
			err = l.comment()
		case strings.HasPrefix(rest, "<![CDATA["):
			l.pos += len("<![CDATA[")
			end := strings.Index(l.src[l.pos:], "]]>")
			if end < 0 {
				return fmt.Errorf("unexpected EOF in CDATA section")
			}
			if err = l.charData(l.src[l.pos:l.pos+end], cdataData); err == nil {
				l.pos += end + len("]]>")
			}
		case strings.HasPrefix(rest, "<!DOCTYPE"):
			err = l.doctype()
		case strings.HasPrefix(rest, "<!"):
			err = fmt.Errorf("unsupported markup declaration")
		case strings.HasPrefix(rest, "<?"):
			err = l.procInst()
		default:
			err = l.startTag()
		}
		if err != nil {
			return err
		}
	}
	if l.root == nil {
		return fmt.Errorf("no root element")
	}
	if len(l.open) != 0 {
		return fmt.Errorf("unexpected EOF: element <%s> is not closed", l.open[len(l.open)-1].n.Label)
	}
	return nil
}

// node takes the next arena slot and links it under the innermost open
// element.
func (l *loader) node(kind NodeKind, label string) *Node {
	if len(l.chunk) == cap(l.chunk) {
		if l.chunk != nil {
			l.chunks = append(l.chunks, l.chunk)
		}
		l.chunk = make([]Node, 0, chunkNodes)
	}
	l.chunk = l.chunk[:len(l.chunk)+1]
	n := &l.chunk[len(l.chunk)-1]
	n.Kind, n.Label, n.ord, n.doc = kind, label, l.count, l.doc
	l.count++
	if depth := len(l.open); depth > 0 {
		n.Parent = l.open[depth-1].n
		l.pending = append(l.pending, n)
		if depth > l.doc.height {
			l.doc.height = depth
		}
	}
	return n
}

// intern returns the document's copy of a name, so each distinct label
// is allocated once and no node keeps the source text alive.
func (l *loader) intern(name string) string {
	if s, ok := l.labels[name]; ok {
		return s
	}
	s := strings.Clone(name)
	l.labels[s] = s
	return s
}

// name scans an ASCII XML name at the cursor.
func (l *loader) name() (string, error) {
	start := l.pos
	if l.pos < len(l.src) && isNameStart(l.src[l.pos]) {
		l.pos++
		for l.pos < len(l.src) && isNameByte(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos == start {
		return "", fmt.Errorf("expected a name")
	}
	if l.pos < len(l.src) && l.src[l.pos] == ':' {
		return "", fmt.Errorf("namespace prefix in %s: not supported", l.src[start:l.pos])
	}
	return l.src[start:l.pos], nil
}

func (l *loader) skipSpace() {
	for l.pos < len(l.src) && isSpaceByte(l.src[l.pos]) {
		l.pos++
	}
}

func (l *loader) startTag() error {
	l.pos++ // <
	name, err := l.name()
	if err != nil {
		return fmt.Errorf("start tag: %v", err)
	}
	if len(l.open) == 0 && l.root != nil {
		return fmt.Errorf("multiple root elements")
	}
	n := l.node(ElementNode, l.intern(name))
	if l.root == nil {
		l.root = n
	}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			return fmt.Errorf("unexpected EOF in start tag <%s>", n.Label)
		}
		switch l.src[l.pos] {
		case '>':
			l.pos++
			l.open = append(l.open, frame{n: n, mark: len(l.pending)})
			return nil
		case '/':
			if !strings.HasPrefix(l.src[l.pos:], "/>") {
				return fmt.Errorf("expected /> in start tag <%s>", n.Label)
			}
			l.pos += 2
			return nil
		}
		if err := l.attr(n); err != nil {
			return fmt.Errorf("start tag <%s>: %v", n.Label, err)
		}
	}
}

// attr reads one name="value" pair onto n.
func (l *loader) attr(n *Node) error {
	name, err := l.name()
	if err != nil {
		return err
	}
	raw, err := l.value(name)
	if err != nil {
		return err
	}
	if i := strings.IndexByte(raw, '<'); i >= 0 {
		l.pos += i
		return fmt.Errorf("unescaped < in attribute %s", name)
	}
	if _, dup := n.Attrs[name]; dup {
		return fmt.Errorf("duplicate attribute %s", name)
	}
	var at int
	if l.scratch, at, err = decode(l.scratch[:0], raw, attrValue); err != nil {
		l.pos += at
		return err
	}
	l.pos += len(raw) + 1
	if n.Attrs == nil {
		n.Attrs = make(map[string]string, 1)
	}
	n.Attrs[l.intern(name)] = string(l.scratch)
	return nil
}

// value reads the `= "value"` after the name of an attribute or of a
// declaration parameter (either quote, spaces around the =) and returns
// the raw value, leaving the cursor at its start.
func (l *loader) value(name string) (string, error) {
	l.skipSpace()
	if !strings.HasPrefix(l.src[l.pos:], "=") {
		return "", fmt.Errorf("%s without =", name)
	}
	l.pos++
	l.skipSpace()
	if l.pos >= len(l.src) || (l.src[l.pos] != '"' && l.src[l.pos] != '\'') {
		return "", fmt.Errorf("unquoted value of %s", name)
	}
	end := strings.IndexByte(l.src[l.pos+1:], l.src[l.pos])
	if end < 0 {
		return "", fmt.Errorf("unexpected EOF in the value of %s", name)
	}
	l.pos++
	return l.src[l.pos : l.pos+end], nil
}

func (l *loader) endTag() error {
	l.pos += 2 // </
	name, err := l.name()
	if err != nil {
		return fmt.Errorf("end tag: %v", err)
	}
	l.skipSpace()
	if l.pos >= len(l.src) || l.src[l.pos] != '>' {
		return fmt.Errorf("invalid characters between </%s and >", name)
	}
	l.pos++
	if len(l.open) == 0 {
		return fmt.Errorf("unexpected end element </%s>", name)
	}
	top := l.open[len(l.open)-1]
	if top.n.Label != name {
		return fmt.Errorf("element <%s> closed by </%s>", top.n.Label, name)
	}
	l.open = l.open[:len(l.open)-1]
	n := top.n
	n.desc = l.count - n.ord - 1
	if k := len(l.pending) - top.mark; k > 0 {
		if cap(l.kids)-len(l.kids) < k {
			l.kids = make([]*Node, 0, max(k, kidsChunk))
		}
		off := len(l.kids)
		l.kids = append(l.kids, l.pending[top.mark:]...)
		n.Children = l.kids[off : off+k : off+k]
		l.pending = l.pending[:top.mark]
	}
	return nil
}

// charData decodes one text token (a run of character data, or a CDATA
// section's content) and adds it as a text node unless it is all
// whitespace. Each token is its own node, as in encoding/xml.
func (l *loader) charData(raw string, mode decodeMode) error {
	start := len(l.text)
	var at int
	var err error
	if l.text, at, err = decode(l.text, raw, mode); err != nil {
		l.pos += at
		return err
	}
	if allSpace(l.text[start:]) {
		l.text = l.text[:start]
		return nil
	}
	if len(l.open) == 0 {
		return fmt.Errorf("text outside the root element")
	}
	l.node(TextNode, TextLabel)
	l.ends = append(l.ends, len(l.text))
	return nil
}

// decodeMode says which kind of character data decode reads.
type decodeMode int

const (
	textData  decodeMode = iota // character data: references resolved, "]]>" rejected
	cdataData                   // CDATA content: taken as is
	attrValue                   // attribute value: references resolved
)

// decode appends raw character data to dst. It resolves entity and
// character references (except in CDATA), turns \r\n and a lone \r into
// \n, and rejects invalid UTF-8, characters outside XML's Char range and
// "]]>" in ordinary text; on error it also returns where in raw.
func decode(dst []byte, raw string, mode decodeMode) ([]byte, int, error) {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '&' && mode != cdataData:
			r, n, err := reference(raw[i:])
			if err != nil {
				return dst, i, err
			}
			dst = utf8.AppendRune(dst, r)
			i += n
		case c == '\r':
			dst = append(dst, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		case c == ']' && mode == textData && strings.HasPrefix(raw[i:], "]]>"):
			return dst, i, fmt.Errorf("unescaped ]]> not in CDATA section")
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRuneInString(raw[i:])
			if r == utf8.RuneError && n == 1 {
				return dst, i, fmt.Errorf("invalid UTF-8")
			}
			if !isChar(r) {
				return dst, i, fmt.Errorf("illegal character code %U", r)
			}
			dst = append(dst, raw[i:i+n]...)
			i += n
		case c < 0x20 && c != '\t' && c != '\n':
			return dst, i, fmt.Errorf("illegal character code %U", rune(c))
		default:
			j := i + 1
			for j < len(raw) && plainByte(raw[j]) {
				j++
			}
			dst = append(dst, raw[i:j]...)
			i = j
		}
	}
	return dst, 0, nil
}

// plainByte reports whether decode copies c as is in every mode.
func plainByte(c byte) bool {
	return c >= 0x20 && c < utf8.RuneSelf && c != '&' && c != ']' || c == '\n' || c == '\t'
}

// reference resolves the entity or character reference at the start of
// s and returns its character and length. Only the five predefined
// entities are known; a character reference must name an XML character.
func reference(s string) (rune, int, error) {
	semi := strings.IndexByte(s, ';')
	if semi < 0 {
		return 0, 0, fmt.Errorf("invalid character entity (no semicolon)")
	}
	body := s[1:semi]
	var r rune
	switch body {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		digits, base := "", rune(10)
		if strings.HasPrefix(body, "#x") {
			digits, base = body[2:], 16
		} else if strings.HasPrefix(body, "#") {
			digits = body[1:]
		}
		if digits == "" {
			return 0, 0, fmt.Errorf("invalid character entity &%s;", body)
		}
		for i := 0; i < len(digits); i++ {
			d := digitValue(digits[i])
			if d >= base || r > unicode.MaxRune {
				return 0, 0, fmt.Errorf("invalid character entity &%s;", body)
			}
			r = r*base + d
		}
		if !isChar(r) {
			return 0, 0, fmt.Errorf("illegal character code %U", r)
		}
	}
	return r, semi + 1, nil
}

// digitValue returns the value of a hexadecimal digit, or 16 for any
// other byte.
func digitValue(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// isChar reports whether r is in XML 1.0's Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// allSpace reports whether decoded text is whitespace only, by
// unicode.IsSpace: such text is not a node.
func allSpace(b []byte) bool {
	for i := 0; i < len(b); {
		if c := b[i]; c < utf8.RuneSelf {
			if !isSpaceByte(c) {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			return false
		}
		i += n
	}
	return true
}

func isSpaceByte(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameStart(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }

func isNameByte(c byte) bool {
	return isNameStart(c) || '0' <= c && c <= '9' || c == '.' || c == '-'
}

// xmlDecl reads the XML declaration at the start of the input: version
// 1.0, then optionally a UTF-8 encoding and a standalone flag.
func (l *loader) xmlDecl() error {
	l.pos = len("<?xml")
	for i, param := range [...]string{"version", "encoding", "standalone"} {
		save := l.pos
		l.skipSpace()
		if l.pos == save || !strings.HasPrefix(l.src[l.pos:], param) {
			if i == 0 {
				return fmt.Errorf("XML declaration without a version")
			}
			l.pos = save
			continue
		}
		l.pos += len(param)
		value, err := l.value(param)
		if err != nil {
			return fmt.Errorf("XML declaration: %v", err)
		}
		l.pos += len(value) + 1
		switch {
		case param == "version" && value != "1.0":
			return fmt.Errorf("unsupported version %q; only version 1.0 is supported", value)
		case param == "encoding" && !strings.EqualFold(value, "utf-8"):
			return fmt.Errorf("unsupported encoding %q; only UTF-8 is supported", value)
		case param == "standalone" && value != "yes" && value != "no":
			return fmt.Errorf("XML declaration: standalone must be yes or no, not %q", value)
		}
	}
	l.skipSpace()
	if !strings.HasPrefix(l.src[l.pos:], "?>") {
		return fmt.Errorf("malformed XML declaration")
	}
	l.pos += 2
	return nil
}

// procInst skips a processing instruction. Its target must be a name;
// "xml" is reserved for the declaration at the start.
func (l *loader) procInst() error {
	l.pos += 2 // <?
	start := l.pos
	if l.pos < len(l.src) && (isNameStart(l.src[l.pos]) || l.src[l.pos] == ':') {
		for l.pos < len(l.src) && (isNameByte(l.src[l.pos]) || l.src[l.pos] == ':') {
			l.pos++
		}
	}
	switch target := l.src[start:l.pos]; target {
	case "":
		return fmt.Errorf("expected target name after <?")
	case "xml":
		return fmt.Errorf("XML declaration not at the start of the document")
	}
	rest := l.src[l.pos:]
	if !strings.HasPrefix(rest, "?>") && (rest == "" || !isSpaceByte(rest[0])) {
		return fmt.Errorf("malformed processing instruction")
	}
	end := strings.Index(rest, "?>")
	if end < 0 {
		return fmt.Errorf("unexpected EOF in processing instruction")
	}
	l.pos += end + 2
	return nil
}

// comment skips a comment; "--" may only appear as part of its end.
func (l *loader) comment() error {
	l.pos += len("<!--")
	end := strings.Index(l.src[l.pos:], "--")
	if end < 0 || l.pos+end+2 >= len(l.src) {
		l.pos = len(l.src)
		return fmt.Errorf("unexpected EOF in comment")
	}
	l.pos += end + 2
	if l.src[l.pos] != '>' {
		return fmt.Errorf(`invalid sequence "--" not allowed in comments`)
	}
	l.pos++
	return nil
}

// doctype skips the document type declaration, which may only precede
// the root. Its end is found the way encoding/xml finds it: quoted '>'
// and '>' closing a nested '<' do not count, and a nested comment runs
// to its "-->".
func (l *loader) doctype() error {
	if l.root != nil || l.sawDoctype {
		return fmt.Errorf("DOCTYPE is only allowed once, before the root element")
	}
	l.sawDoctype = true
	s, i := l.src, l.pos+len("<!D")
	var quote byte
	depth := 0
	for {
		if i >= len(s) {
			l.pos = i
			return fmt.Errorf("unexpected EOF in DOCTYPE")
		}
		b := s[i]
		i++
		if quote == 0 && b == '>' && depth == 0 {
			l.pos = i
			return nil
		}
	handle:
		switch {
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '\'' || b == '"':
			quote = b
		case b == '>':
			depth--
		case b == '<':
			for k := 0; k < len("!--"); k++ {
				if i >= len(s) {
					l.pos = i
					return fmt.Errorf("unexpected EOF in DOCTYPE")
				}
				b = s[i]
				i++
				if b != "!--"[k] {
					depth++
					goto handle
				}
			}
			end := strings.Index(s[i:], "-->")
			if end < 0 {
				l.pos = len(s)
				return fmt.Errorf("unexpected EOF in DOCTYPE")
			}
			i += end + len("-->")
		}
	}
}

// finish lays out the loaded nodes as the document's node table and
// cuts every text node's data from one string holding all text.
func (l *loader) finish() *Document {
	d := l.doc
	d.Root = l.root
	d.size = l.count
	d.byOrd = make([]*Node, 0, l.count)
	for _, c := range append(l.chunks, l.chunk) {
		for i := range c {
			d.byOrd = append(d.byOrd, &c[i])
		}
	}
	text := string(l.text)
	start, next := 0, 0
	for _, n := range d.byOrd {
		if n.Kind == TextNode {
			end := l.ends[next]
			n.Data = text[start:end]
			start, next = end, next+1
		}
	}
	return d
}
