// Command svserve fronts the security-view query engine with an HTTP
// server: it loads one document and a set of user-class policies, then
// answers rewritten-query requests with per-request deadlines and
// admission control (saturation returns 429 rather than queueing).
//
// Usage:
//
//	svserve -builtin hospital -doc ward.xml
//	svserve -dtd hospital.dtd -class nurse=nurse.ann -doc ward.xml -addr :8344
//
// Endpoints:
//
//	GET /query?class=nurse&param=wardNo=6&q=//patient/name[&timeout=250ms]
//	GET /metricsz — every counter in Prometheus text exposition format:
//	                requests and responses by status, request and
//	                per-phase latency histograms, plan-cache outcomes,
//	                and per-class evals and plan-cache evictions/entries
//	GET /queryz   — per-fingerprint query statistics (top-K by eval
//	                time, total time, or count)
//	GET /explainz — one query with fresh per-phase timings and the
//	                intermediate query strings, plus the request's record
//	GET /healthz  — 200 while serving, 503 once drain has begun
//	GET /debug/pprof/* — the runtime profiler
//
// Flags -timeout and -max-timeout bound each request's evaluation
// deadline; -max-inflight caps concurrent evaluations; -slow-query sets
// the slow-query threshold. -qstats-cap bounds the /queryz fingerprint
// registry. -eventlog FILE writes each error and slow query's record as
// one JSONL wide event (-eventlog-sample N additionally samples one
// request in N), size-rotated at -eventlog-max-bytes; without it slow
// queries are only counted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/eventlog"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/xmltree"
)

// builtinClassNames gives each built-in scenario's single policy a
// class name for /query requests.
var builtinClassNames = map[string]string{
	"hospital": "nurse",
	"adex":     "buyer",
	"fig7":     "user",
}

func main() {
	var (
		addr        = flag.String("addr", ":8344", "listen address")
		dtdPath     = flag.String("dtd", "", "document DTD file (with -class)")
		builtin     = flag.String("builtin", "", "use a built-in scenario: hospital, adex, or fig7")
		docPath     = flag.String("doc", "", "XML document file to serve queries against")
		timeout     = flag.Duration("timeout", serve.DefaultTimeout, "default per-request evaluation deadline")
		maxTimeout  = flag.Duration("max-timeout", serve.DefaultMaxTimeout, "hard cap on per-request deadlines")
		maxInFlight = flag.Int("max-inflight", serve.DefaultMaxInFlight, "maximum concurrently evaluating queries (excess gets 429)")
		headerWait  = flag.Duration("read-header-timeout", 5*time.Second, "how long a connection may take to send its request headers")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight queries on SIGINT/SIGTERM")
		slowQuery   = flag.Duration("slow-query", serve.DefaultSlowQuery, "count queries slower than this, and log them as slow events with -eventlog (negative disables)")
		qstatsCap   = flag.Int("qstats-cap", 0, "query fingerprints tracked for /queryz (0 = default)")
		eventLog    = flag.String("eventlog", "", "write a structured JSONL wide-event log of errors and slow queries to this file")
		eventMax    = flag.Int64("eventlog-max-bytes", 0, "rotate the event log when it would exceed this size (0 = default; one predecessor file is kept)")
		eventSample = flag.Int("eventlog-sample", 0, "also log one successful request in N (0 = errors and slow queries only)")
		classes     classFlags
	)
	flag.Var(&classes, "class", "define a user class from an annotation file, e.g. -class nurse=nurse.ann (repeatable)")
	flag.Parse()

	if *docPath == "" {
		fatal(fmt.Errorf("need -doc"))
	}
	reg, err := buildRegistry(*builtin, *dtdPath, classes)
	if err != nil {
		fatal(err)
	}

	f, err := os.Open(*docPath)
	if err != nil {
		fatal(err)
	}
	doc, err := xmltree.Parse(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if err := xmltree.Validate(doc, reg.DTD()); err != nil {
		fatal(fmt.Errorf("document does not conform to the DTD: %v", err))
	}

	var events *eventlog.Writer
	if *eventLog != "" {
		events, err = eventlog.New(*eventLog, *eventMax)
		if err != nil {
			fatal(err)
		}
		defer events.Close()
	}
	srv := serve.New(reg, doc, serve.Config{
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		MaxInFlight:         *maxInFlight,
		SlowQueryThreshold:  *slowQuery,
		QueryStatsCapacity:  *qstatsCap,
		EventLog:            events,
		EventLogSampleEvery: *eventSample,
	})
	// A configured http.Server rather than bare ListenAndServe: the
	// header timeout unpins connections from clients that never finish
	// their request line, and the signal handler drains in-flight
	// queries instead of dropping them mid-evaluation — load-test cycles
	// (start, drive, SIGTERM, read counters) depend on both.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *headerWait,
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		sig := <-sigs
		log.Printf("svserve: %v: draining in-flight queries (up to %v)", sig, *drain)
		// Flip /healthz to 503 first so load balancers stop routing new
		// work here while Shutdown waits for in-flight requests.
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("svserve: drain incomplete: %v", err)
		}
	}()
	log.Printf("svserve: serving %s (%d nodes, height %d) for classes %v on %s",
		*docPath, doc.Size(), doc.Height(), reg.Names(), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-drained
	log.Printf("svserve: shut down cleanly")
}

// buildRegistry assembles the user classes: either a built-in scenario
// (one class under its conventional name) or a DTD file plus one
// -class name=annfile per user class.
func buildRegistry(builtin, dtdPath string, classes classFlags) (*policy.Registry, error) {
	if builtin != "" {
		spec, err := cli.LoadSpec(builtin, "", "")
		if err != nil {
			return nil, err
		}
		reg := policy.NewRegistry(spec.D)
		if _, err := reg.DefineSpec(builtinClassNames[builtin], spec); err != nil {
			return nil, err
		}
		return reg, nil
	}
	if dtdPath == "" || len(classes) == 0 {
		return nil, fmt.Errorf("need -builtin, or -dtd with at least one -class name=annfile")
	}
	d, err := cli.LoadDTD(dtdPath)
	if err != nil {
		return nil, err
	}
	reg := policy.NewRegistry(d)
	for _, c := range classes {
		src, err := os.ReadFile(c.path)
		if err != nil {
			return nil, err
		}
		if _, err := reg.Define(c.name, string(src)); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// classFlags is the repeatable "-class name=annfile" flag.
type classFlags []struct{ name, path string }

func (c *classFlags) String() string {
	parts := make([]string, len(*c))
	for i, e := range *c {
		parts[i] = e.name + "=" + e.path
	}
	return strings.Join(parts, ",")
}

func (c *classFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("expected name=annfile, got %q", v)
	}
	*c = append(*c, struct{ name, path string }{name, path})
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svserve:", err)
	os.Exit(1)
}
