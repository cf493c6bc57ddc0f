package serve

import (
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// formContentTypes are the Content-Type headers FuzzQueryParams picks
// from: the form type, absent, a type ParseForm leaves unread, the form
// type with a parameter, and one mime.ParseMediaType rejects.
var formContentTypes = []string{
	"application/x-www-form-urlencoded",
	"",
	"text/plain",
	"application/x-www-form-urlencoded; charset=utf-8",
	"application/x-www-form-urlencoded; =bad",
}

// formRequest builds a /query request with the raw URL query and, for
// a POST, the body under formContentTypes[ct], its body bounded as
// parseQueryRequest bounds it.
func formRequest(post bool, ct uint8, rawQuery, body string) *http.Request {
	r := &http.Request{
		Method: http.MethodGet,
		URL:    &url.URL{Path: "/query", RawQuery: rawQuery},
		Header: http.Header{},
	}
	if post {
		r.Method = http.MethodPost
		if c := formContentTypes[int(ct)%len(formContentTypes)]; c != "" {
			r.Header.Set("Content-Type", c)
		}
		r.Body = http.MaxBytesReader(nil, readCloser{strings.NewReader(body)}, maxBodyBytes)
	}
	return r
}

type readCloser struct{ *strings.Reader }

func (readCloser) Close() error { return nil }

// oracleForm reads a request the way parseQueryRequest did before the
// scanner: r.ParseForm, then Form.Get and the param list.
func oracleForm(r *http.Request) (queryForm, error) {
	if err := r.ParseForm(); err != nil {
		return queryForm{}, err
	}
	f := queryForm{class: r.Form.Get("class"), q: r.Form.Get("q"), timeout: r.Form.Get("timeout")}
	for _, kv := range r.Form["param"] {
		name, value, ok := strings.Cut(kv, "=")
		if !ok || name == "" {
			return f, fmt.Errorf("bad param %q (want name=value)", kv)
		}
		if f.params == nil {
			f.params = make(map[string]string)
		}
		f.params[name] = value
	}
	return f, nil
}

// FuzzQueryParams checks readQueryForm against r.ParseForm over raw URL
// queries and bodies, for GET and POST: the same values, the same
// accept or reject decision, and the same error text, which a 400 body
// carries.
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []struct {
		post           bool
		ct             uint8
		rawQuery, body string
	}{
		{false, 0, "class=nurse&param=wardNo%3D1&q=%2F%2Fpatient%2Fname", ""},
		{false, 0, "class=nurse;q=x", ""},
		{false, 0, "class=nurse&q=a;b&q=c", ""},
		{false, 0, "class=nurse&q=%zz", ""},
		{false, 0, "class=nurse&q=%4", ""},
		{false, 0, "cl%61ss=nurse&q=a+b%20c", ""},
		{false, 0, "class=&class=nurse&q=x&q=y", ""},
		{false, 0, "param=a%3D1&param=a%3D2&param=b%3D&class=c&q=q", ""},
		{false, 0, "param=%3D1&class=c&q=q", ""},
		{false, 0, "param=novalue&class=&q=q", ""},
		{false, 0, "&&=&class&q=&timeout=1s&timeout=2s", ""},
		{true, 0, "q=fromurl&param=a%3D2", "class=nurse&q=frombody&param=a%3D1"},
		{true, 0, "class=url", "class=body;x"},
		{true, 0, "class=url&q=%", "q=body"},
		{true, 1, "class=url&q=u", "class=body&q=b"},
		{true, 2, "class=url&q=u", "class=body&q=b"},
		{true, 3, "q=u", "class=body+x&param=w%3D1"},
		{true, 4, "class=url&q=u", "class=body"},
	} {
		f.Add(seed.post, seed.ct, seed.rawQuery, seed.body)
	}
	f.Fuzz(func(t *testing.T, post bool, ct uint8, rawQuery, body string) {
		want, wantErr := oracleForm(formRequest(post, ct, rawQuery, body))
		got, err := readQueryForm(formRequest(post, ct, rawQuery, body))
		if err == nil {
			err = got.paramErr
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("post=%v ct=%d %q %q: error %v, ParseForm gives %v", post, ct, rawQuery, body, err, wantErr)
		}
		if err != nil {
			return
		}
		if got.class != want.class || got.q != want.q || got.timeout != want.timeout || !maps.Equal(got.params, want.params) {
			t.Fatalf("post=%v ct=%d %q %q: read %q %q %q %v, ParseForm gives %q %q %q %v", post, ct, rawQuery, body,
				got.class, got.q, got.timeout, got.params, want.class, want.q, want.timeout, want.params)
		}
	})
}
