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
// unescaped only when they hold an escape.
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
// does, and returns its error.
func (f *queryForm) scan(query string) error {
	var err error
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
		key, e := url.QueryUnescape(key)
		if e == nil {
			value, e = url.QueryUnescape(value)
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
