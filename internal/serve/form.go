package serve

import (
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strings"
)

// queryForm is what /query and /explainz read from a request: the class,
// q and timeout values and the param=name=value bindings. It is filled
// by one scan of the form-encoded body and the URL query, with the
// values r.ParseForm would give: body before URL, the first class, q
// and timeout win (Form.Get), and every param counts, a later binding
// of a name replacing an earlier one.
type queryForm struct {
	class, q, timeout string
	params            map[string]string
	// paramErr is the first malformed param. It is reported after the
	// class and q checks, where the params are read.
	paramErr error
	seen     uint8 // seenClass | seenQ | seenTimeout
}

const (
	seenClass = 1 << iota
	seenQ
	seenTimeout
)

// errSemicolon is url.ParseQuery's error for a ';' in a query.
var errSemicolon = errors.New("invalid semicolon separator in query")

// readQueryForm scans a request's form like r.ParseForm, without
// building url.Values: a POST, PUT or PATCH with a form-encoded body is
// read first, then the URL query. Malformed escapes and ';' separators
// anywhere fail it with ParseForm's first error, after the whole form is
// scanned, as ParseForm does; a body cut off by http.MaxBytesReader
// fails it with the *http.MaxBytesError the read returned. Values are
// unescaped only when they hold an escape, all into one string.
func readQueryForm(r *http.Request) (queryForm, error) {
	var f queryForm
	var err error
	if r.Method == http.MethodPost || r.Method == http.MethodPut || r.Method == http.MethodPatch {
		err = f.scanBody(r)
	}
	if r.URL != nil {
		if e := f.scan(r.URL.RawQuery); err == nil {
			err = e
		}
	}
	return f, err
}

// scanBody scans a form-encoded request body; other content types are
// left unread, as ParseForm leaves them.
func (f *queryForm) scanBody(r *http.Request) error {
	if r.Body == nil {
		return errors.New("missing form body")
	}
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/octet-stream"
	}
	ct, _, err := mime.ParseMediaType(ct)
	if ct != "application/x-www-form-urlencoded" {
		return err
	}
	b, e := io.ReadAll(r.Body)
	if e == nil {
		e = f.scan(string(b))
	}
	if err == nil {
		err = e
	}
	return err
}

// scan reads one form-encoded string, pair by pair, as url.ParseQuery
// does, and returns its error. The escaped keys and values are all
// unescaped into one string, allocated once for the whole form.
func (f *queryForm) scan(query string) error {
	var err error
	var unescaped strings.Builder
	if strings.ContainsAny(query, "%+") {
		// Unescaping never lengthens a pair, so one reserve holds all.
		unescaped.Grow(len(query))
	}
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if strings.Contains(pair, ";") {
			err = errSemicolon
			continue
		}
		if pair == "" {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		key, e := unescape(&unescaped, key)
		if e == nil {
			value, e = unescape(&unescaped, value)
		}
		if e != nil {
			if err == nil {
				err = e
			}
			continue
		}
		f.set(key, value)
	}
	return err
}

// unescape is url.QueryUnescape, with its error, without a string per
// value: s is returned as it is when it holds no escape, and otherwise
// unescaped onto to, as the substring of to's text that it ends. A
// Builder only appends, so the substrings handed out earlier keep their
// bytes.
func unescape(to *strings.Builder, s string) (string, error) {
	if !strings.ContainsAny(s, "%+") {
		return s, nil
	}
	start := to.Len()
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '+':
			to.WriteByte(' ')
		case '%':
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				bad := s[i:]
				if len(bad) > 3 {
					bad = bad[:3]
				}
				return "", url.EscapeError(bad)
			}
			to.WriteByte(unhex(s[i+1])<<4 | unhex(s[i+2]))
			i += 2
		default:
			to.WriteByte(c)
		}
	}
	return to.String()[start:], nil
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	}
	return c - 'a' + 10
}

func (f *queryForm) set(key, value string) {
	switch key {
	case "class":
		f.first(seenClass, &f.class, value)
	case "q":
		f.first(seenQ, &f.q, value)
	case "timeout":
		f.first(seenTimeout, &f.timeout, value)
	case "param":
		name, v, ok := strings.Cut(value, "=")
		if !ok || name == "" {
			if f.paramErr == nil {
				f.paramErr = fmt.Errorf("bad param %q (want name=value)", value)
			}
			return
		}
		if f.params == nil {
			f.params = make(map[string]string)
		}
		f.params[name] = v
	}
}

// first stores the value of a key seen for the first time.
func (f *queryForm) first(bit uint8, dst *string, value string) {
	if f.seen&bit == 0 {
		f.seen |= bit
		*dst = value
	}
}
