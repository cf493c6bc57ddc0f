package serve

// /queryz and wide-event-log suite: the fingerprint registry's
// accounting invariant against sv_pipeline_total (sequential and under
// concurrent load), sort/limit parameter handling, query-text
// truncation in the event log, one answer path per request, and the
// structured event log end to end.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/eventlog"
	"repro/internal/obs"
)

func getQueryz(t *testing.T, h http.Handler, target string) QueryzResponse {
	t.Helper()
	w := get(t, h, target)
	if w.Code != http.StatusOK {
		t.Fatalf("%s status = %d: %s", target, w.Code, w.Body.String())
	}
	var qz QueryzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &qz); err != nil {
		t.Fatalf("decode %s: %v", target, err)
	}
	return qz
}

// TestQueryzAccounting: after a quiescent mixed workload the /queryz
// rows attribute every answered query — the Count sum over all rows
// equals the registry's observation count equals sv_pipeline_total —
// and failed requests contribute nothing.
func TestQueryzAccounting(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	queries := []string{"//patient/name", "//patient", "//wardNo"}
	for i, q := range queries {
		for j := 0; j <= i; j++ { // distinct counts per fingerprint
			if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(q)); w.Code != http.StatusOK {
				t.Fatalf("query %q: status %d", q, w.Code)
			}
		}
	}
	get(t, h, "/query?class=nurse")                            // 400: no q
	get(t, h, "/query?class=nurse&param=wardNo=1&q=%2F%2F%5B") // 400: parse error

	qz := getQueryz(t, h, "/queryz?n=0")
	if len(qz.Top) != len(queries) {
		t.Fatalf("tracked %d fingerprints, want %d:\n%+v", len(qz.Top), len(queries), qz.Top)
	}
	var sum uint64
	for _, fs := range qz.Top {
		sum += fs.Count
		if fs.Fingerprint == "" || fs.Class != "nurse" || fs.Plan == "" {
			t.Errorf("row missing identity: %+v", fs)
		}
		if fs.Total.Count != fs.Count {
			t.Errorf("fingerprint %s: digest count %d != count %d", fs.Fingerprint, fs.Total.Count, fs.Count)
		}
	}
	m := scrape(t, h)
	pipeline := m.value("sv_pipeline_total")
	if sum != pipeline || qz.Registry.Observations != pipeline {
		t.Errorf("count sum = %d, observations = %d, sv_pipeline_total = %d; want all equal",
			sum, qz.Registry.Observations, pipeline)
	}
	if got := m.value("sv_qstats_observations_total"); got != pipeline {
		t.Errorf("sv_qstats_observations_total = %d, want %d", got, pipeline)
	}
	if got := m.value("sv_qstats_fingerprints"); got != uint64(len(queries)) {
		t.Errorf("sv_qstats_fingerprints = %d, want %d", got, len(queries))
	}
	if got := m.value("sv_qstats_capacity"); got != uint64(s.QueryStats().Capacity()) {
		t.Errorf("sv_qstats_capacity = %d, want %d", got, s.QueryStats().Capacity())
	}

	// Sort by count puts the most-repeated query first; ?n bounds rows.
	byCount := getQueryz(t, h, "/queryz?sort=count&n=1")
	if len(byCount.Top) != 1 || byCount.Top[0].Count != uint64(len(queries)) {
		t.Errorf("sort=count&n=1 returned %+v", byCount.Top)
	}
	if !strings.Contains(byCount.Top[0].Query, "//wardNo") {
		t.Errorf("hottest fingerprint is %q, want the most-repeated query", byCount.Top[0].Query)
	}
	if w := get(t, h, "/queryz?sort=bogus"); w.Code != http.StatusBadRequest {
		t.Errorf("bad sort key answered %d, want 400", w.Code)
	}
	if w := get(t, h, "/queryz?n=x"); w.Code != http.StatusBadRequest {
		t.Errorf("bad n answered %d, want 400", w.Code)
	}
}

// TestQueryzConcurrentInvariant hammers /queryz while queries are in
// flight: at every intermediate read the Count sum over all rows must
// not exceed sv_pipeline_total read afterwards (observations land
// strictly after the pipeline counter increments). Run under -race this
// also exercises the registry's locking against the HTTP readers.
func TestQueryzConcurrentInvariant(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	queries := []string{"//patient/name", "//patient", "//wardNo", "//name", "//bill"}

	var writers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(q))
			}
		}(g)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Read order matters: /queryz first, then the pipeline counter,
			// so every observation in the sum has its cause in the counter.
			qz := getQueryz(t, h, "/queryz?n=0")
			var sum uint64
			for _, fs := range qz.Top {
				sum += fs.Count
			}
			pipeline := scrape(t, h).sum("sv_pipeline_total")
			if sum > pipeline {
				t.Errorf("mid-flight count sum %d exceeds sv_pipeline_total %d", sum, pipeline)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	qz := getQueryz(t, h, "/queryz?n=0")
	var sum uint64
	for _, fs := range qz.Top {
		sum += fs.Count
	}
	if pipeline := scrape(t, h).value("sv_pipeline_total"); sum != pipeline {
		t.Errorf("quiescent count sum = %d, sv_pipeline_total = %d", sum, pipeline)
	}
}

// event is one decoded event-log line: the JSON form of an
// obs.QueryMetrics record.
type event struct {
	TimeUnixUs   int64             `json:"time_unix_us"`
	Kind         string            `json:"kind"`
	RequestID    uint64            `json:"request_id"`
	Class        string            `json:"class"`
	Params       map[string]string `json:"params"`
	Status       int               `json:"status"`
	Query        string            `json:"query"`
	Fingerprint  string            `json:"fingerprint"`
	TotalUs      int64             `json:"total_us"`
	RewriteUs    int64             `json:"rewrite_us"`
	OptimizeUs   int64             `json:"optimize_us"`
	EvalUs       int64             `json:"eval_us"`
	SerializeUs  int64             `json:"serialize_us"`
	PlanCacheHit bool              `json:"plan_cache_hit"`
	NodesVisited uint64            `json:"nodes_visited"`
	ResultCount  int               `json:"result_count"`
}

// eventLogServer is newTestServer writing its events to a fresh log. The
// returned function closes the log and decodes every line; each line
// must hold exactly the record's keys (params may be omitted).
func eventLogServer(t *testing.T, cfg Config, maxRepeat int) (*Server, func() []event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	ew, err := eventlog.New(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.EventLog = ew
	s := newTestServer(t, cfg, maxRepeat)
	return s, func() []event {
		t.Helper()
		if err := ew.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var events []event
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("event line %q: %v", sc.Text(), err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &keys); err != nil {
				t.Fatal(err)
			}
			delete(keys, "params")
			if len(keys) != 15 {
				t.Errorf("event line has %d required keys, want 15: %s", len(keys), sc.Text())
			}
			events = append(events, ev)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return events
	}
}

// TestSlowQueryTruncation pins the log-bloat bound: a pathologically
// long query yields a slow event whose query text is bounded, with a
// truncation marker.
func TestSlowQueryTruncation(t *testing.T) {
	s, events := eventLogServer(t, Config{SlowQueryThreshold: time.Nanosecond}, 4)
	// A valid query padded far past the log bound with a fat predicate.
	long := "//patient[name = \"" + strings.Repeat("x", 100_000) + "\"]/name"
	if w := get(t, s.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(long)); w.Code != http.StatusOK {
		t.Fatalf("long query status = %d: %s", w.Code, w.Body.String())
	}
	got := events()
	if len(got) != 1 || got[0].Kind != "slow" {
		t.Fatalf("events = %+v, want one slow event", got)
	}
	q := got[0].Query
	if len(q) > obs.MaxLoggedBytes+32 {
		t.Errorf("slow event query is %d bytes — truncation failed", len(q))
	}
	if !strings.HasSuffix(q, "...[truncated]") {
		t.Errorf("slow event query lacks the truncation marker: %q", q)
	}
}

// TestEventTruncatesOnRuneBoundary: a two-byte character straddling the
// truncation bound is dropped whole, so the logged query is a prefix of
// the original plus the marker, never a replacement character.
func TestEventTruncatesOnRuneBoundary(t *testing.T) {
	s, events := eventLogServer(t, Config{SlowQueryThreshold: -1, EventLogSampleEvery: 1}, 4)
	head := `//patient[name = "`
	ascii := head + strings.Repeat("x", 511-len(head))
	q := ascii + "é" + strings.Repeat("y", 100) + `"]/name`
	if w := get(t, s.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(q)); w.Code != http.StatusOK {
		t.Fatalf("query status = %d: %s", w.Code, w.Body.String())
	}
	got := events()
	if len(got) != 1 {
		t.Fatalf("events = %d, want 1", len(got))
	}
	logged := got[0].Query
	kept, ok := strings.CutSuffix(logged, "...[truncated]")
	if !ok || !strings.HasPrefix(q, kept) || !utf8.ValidString(logged) {
		t.Errorf("logged query %q is not a prefix of the original plus the marker", logged)
	}
	if kept != ascii {
		t.Errorf("logged query kept %d bytes, want the %d ASCII bytes before the cut character", len(kept), len(ascii))
	}
}

// TestEventCountsSerialization: a request's total time includes writing
// its response, and the event reports the serialization time on its
// own, for an answer large enough that writing it takes measurable time.
func TestEventCountsSerialization(t *testing.T) {
	s, events := eventLogServer(t, Config{SlowQueryThreshold: -1, EventLogSampleEvery: 1}, 6)
	w := get(t, s.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//*"))
	if w.Code != http.StatusOK || w.Body.Len() < 10_000 {
		t.Fatalf("query status = %d with %d body bytes; want a large answer", w.Code, w.Body.Len())
	}
	got := events()
	if len(got) != 1 {
		t.Fatalf("events = %d, want 1", len(got))
	}
	ev := got[0]
	if ev.SerializeUs <= 0 || ev.TotalUs < ev.SerializeUs {
		t.Errorf("total_us %d, serialize_us %d: want total ≥ serialize > 0", ev.TotalUs, ev.SerializeUs)
	}
	if ev.TotalUs < ev.RewriteUs+ev.OptimizeUs+ev.EvalUs+ev.SerializeUs {
		t.Errorf("total_us %d below the sum of its phases: %+v", ev.TotalUs, ev)
	}
}

// TestEventLog drives the structured log end to end: sampled and error
// events land as parseable JSONL with bounded query text, correct
// kinds, and fingerprints that join the /queryz rows.
func TestEventLog(t *testing.T) {
	s, events := eventLogServer(t, Config{
		SlowQueryThreshold:  -1, // no slow events; kinds are sampled/error only
		EventLogSampleEvery: 1,
	}, 4)
	h := s.Handler()
	const q = "//patient/name"
	for i := 0; i < 3; i++ {
		// The extra parameter is not the class's, so the log leaves it out.
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&param=other=x&q="+url.QueryEscape(q)); w.Code != http.StatusOK {
			t.Fatalf("query %d status = %d", i, w.Code)
		}
	}
	long := "//patient[name = \"" + strings.Repeat("y", 100_000) + "\"" // unterminated: parse error
	if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(long)); w.Code != http.StatusBadRequest {
		t.Fatalf("broken query status = %d, want 400", w.Code)
	}
	qz := getQueryz(t, h, "/queryz?n=0")
	ew := s.cfg.EventLog
	got := events()
	if len(got) != 4 {
		t.Fatalf("got %d events, want 4 (3 sampled + 1 error): %+v", len(got), got)
	}
	for i, ev := range got[:3] {
		if ev.Kind != "sampled" || ev.Status != http.StatusOK {
			t.Errorf("event %d: kind=%q status=%d, want sampled/200", i, ev.Kind, ev.Status)
		}
		if ev.Class != "nurse" || ev.Query != q || ev.RequestID == 0 || ev.TimeUnixUs == 0 {
			t.Errorf("event %d missing identity: %+v", i, ev)
		}
		// One plan serves every ward, so the event names the binding.
		if ev.Params["wardNo"] != "1" || len(ev.Params) != 1 {
			t.Errorf("event %d binding = %v, want wardNo=1", i, ev.Params)
		}
		if ev.NodesVisited == 0 || ev.ResultCount == 0 {
			t.Errorf("event %d missing pipeline fields: %+v", i, ev)
		}
	}
	errEv := got[3]
	if errEv.Kind != "error" || errEv.Status != http.StatusBadRequest {
		t.Errorf("error event: kind=%q status=%d, want error/400", errEv.Kind, errEv.Status)
	}
	if len(errEv.Query) > obs.MaxLoggedBytes+32 || !strings.HasSuffix(errEv.Query, "...[truncated]") {
		t.Errorf("error event query not truncated: %d bytes", len(errEv.Query))
	}

	// The sampled events' fingerprint joins the /queryz row for q.
	if len(qz.Top) != 1 {
		t.Fatalf("queryz rows = %d, want 1", len(qz.Top))
	}
	if got[0].Fingerprint != qz.Top[0].Fingerprint {
		t.Errorf("event fingerprint %s != /queryz fingerprint %s", got[0].Fingerprint, qz.Top[0].Fingerprint)
	}
	ev, rot := ew.Stats()
	if ev != 4 || rot != 0 {
		t.Errorf("event log stats = %d events %d rotations, want 4/0", ev, rot)
	}
}

// TestOneAnswerPath: every answered /query runs the evaluator. Distinct
// and repeated queries, under two bindings, all count once in the
// class's evals (sv_class_evals_total) and in sv_pipeline_total, so no
// request is answered without evaluation.
func TestOneAnswerPath(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	queries := []string{"//patient/name", "//patient", "//patient/name", "//patient[.//medication]", "//patient", "//patient/name"}
	n := 0
	for _, ward := range []string{"1", "2"} {
		for _, q := range queries {
			if w := get(t, h, "/query?class=nurse&param=wardNo="+ward+"&q="+url.QueryEscape(q)); w.Code != http.StatusOK {
				t.Fatalf("ward %s %q: status %d", ward, q, w.Code)
			}
			n++
		}
	}
	m := scrape(t, h)
	if classes := m.sum("sv_plan_cache_entries"); classes != 3 {
		t.Fatalf("plan cache entries over all classes = %d, want 3 (one class, three shapes)", classes)
	}
	evals := m.value("sv_class_evals_total", obs.L("class", "nurse"))
	pipeline := m.value("sv_pipeline_total")
	if evals != uint64(n) || pipeline != uint64(n) {
		t.Errorf("class evals %d, pipeline count %d; want both %d", evals, pipeline, n)
	}
	// Repeats hit the plan cache and are still evaluated.
	if hits := m.value("sv_plan_cache_total", obs.L("result", "hit")); hits != uint64(n-3) {
		t.Errorf("plan-cache hits = %d, want %d (three shapes)", hits, n-3)
	}
}
