// Command svquery answers XPath queries over a security view without
// materializing it: it derives (or loads) the view, rewrites the query
// into an equivalent query over the original document, optimizes it
// against the document DTD, evaluates, and prints the result as XML.
//
// Usage:
//
//	svquery -dtd hospital.dtd -spec nurse.ann -doc ward.xml \
//	        -param wardNo=6 -q '//patient/name'
//	svquery -builtin hospital -doc ward.xml -param wardNo=6 -q '//patient'
//	svquery -view nurse.view -doc ward.xml -q '//patient'
//
// Flags -show-rewrite and -show-optimize print the intermediate queries;
// -explain prints a JSON explain document instead of the result XML
// (the intermediate queries plus fresh per-phase timings — the CLI twin
// of the server's /explainz); -no-optimize skips the optimization pass.
// -stats prints the engine's plan-cache and evaluation counters to
// stderr, plus the query's fingerprint (the hash the server's /queryz
// rows and event-log records key on); -repeat re-runs the query to
// exercise the plan cache; -timeout bounds each
// evaluation with a deadline (a query that exceeds it fails with a
// context error).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qstats"
	"repro/internal/secview"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func main() {
	var (
		dtdPath    = flag.String("dtd", "", "document DTD file")
		specPath   = flag.String("spec", "", "access specification file")
		builtin    = flag.String("builtin", "", "use a built-in scenario: hospital, adex, or fig7")
		viewPath   = flag.String("view", "", "load a saved view definition (from svderive -save) instead of -dtd/-spec")
		docPath    = flag.String("doc", "", "XML document file")
		query      = flag.String("q", "", "XPath query over the security view")
		showRw     = flag.Bool("show-rewrite", false, "print the rewritten document query")
		showOpt    = flag.Bool("show-optimize", false, "print the optimized document query")
		explain    = flag.Bool("explain", false, "print a JSON explain (per-phase timings, intermediate queries) instead of the result")
		noOptimize = flag.Bool("no-optimize", false, "skip the DTD-based optimization pass")
		stats      = flag.Bool("stats", false, "print plan-cache and evaluation counters to stderr")
		repeat     = flag.Int("repeat", 1, "run the query this many times (repeats hit the plan cache)")
		timeout    = flag.Duration("timeout", 0, "per-evaluation deadline, e.g. 250ms (0 = none)")
		params     cli.Params
	)
	flag.Var(&params, "param", "bind a specification parameter, e.g. -param wardNo=6 (repeatable)")
	flag.Parse()

	if *query == "" || *docPath == "" {
		fatal(fmt.Errorf("need -q and -doc"))
	}
	if *repeat < 1 {
		*repeat = 1
	}
	engine, err := buildEngine(*viewPath, *builtin, *dtdPath, *specPath, params)
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
	if err := xmltree.Validate(doc, engine.DocumentDTD()); err != nil {
		fatal(fmt.Errorf("document does not conform to the DTD: %v", err))
	}

	p, err := xpath.Parse(*query)
	if err != nil {
		fatal(err)
	}
	if *explain {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		ex, err := engine.ExplainCtx(ctx, doc, p)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ex); err != nil {
			fatal(err)
		}
		printStats(engine, *stats, nil)
		return
	}
	if *showRw || *showOpt || *noOptimize {
		pt, err := engine.Rewrite(p, doc.Height())
		if err != nil {
			fatal(err)
		}
		if *showRw {
			fmt.Fprintf(os.Stderr, "rewritten: %s\n", xpath.String(pt))
		}
		final := pt
		if !*noOptimize {
			final = engine.Optimize(pt)
			if *showOpt {
				fmt.Fprintf(os.Stderr, "optimized: %s\n", xpath.String(final))
			}
		}
		if *noOptimize {
			ctx := context.Background()
			if *timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, *timeout)
				defer cancel()
			}
			result, _, err := xpath.Evaluate(ctx, final, []*xmltree.Node{doc.Root}, xpath.Env{})
			if err != nil {
				fatal(err)
			}
			printResult(result)
			return
		}
	}
	var result []*xmltree.Node
	qm := &obs.QueryMetrics{}
	for i := 0; i < *repeat; i++ {
		if result, err = queryOnce(engine, doc, p, *timeout, qm); err != nil {
			fatal(err)
		}
	}
	printResult(result)
	printStats(engine, *stats, qm)
}

// queryOnce runs one evaluation under the optional deadline, filling qm
// with the request's metrics (the last repeat wins).
func queryOnce(engine *core.Engine, doc *xmltree.Document, p xpath.Path, timeout time.Duration, qm *obs.QueryMetrics) ([]*xmltree.Node, error) {
	ctx := obs.WithQueryMetrics(context.Background(), qm)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return engine.QueryCtx(ctx, doc, p)
}

func printResult(result []*xmltree.Node) {
	var b []byte
	for _, n := range result {
		b = n.AppendXML(b)
	}
	os.Stdout.Write(b)
}

// printStats dumps the engine counters; when qm carries a surfaced
// plan it also prints the query's fingerprint — the hash the server's
// /queryz rows and event-log records key on (class-less here, since a
// single-engine CLI has no user-class dimension).
func printStats(engine *core.Engine, show bool, qm *obs.QueryMetrics) {
	if !show {
		return
	}
	if qm != nil && qm.PlanText != "" {
		fmt.Fprintf(os.Stderr, "fingerprint:  %s  plan: %s\n", qstats.Fingerprint("", qm.PlanText), qm.PlanText)
	}
	s := engine.Stats()
	fmt.Fprintf(os.Stderr, "queries:      %d (%d cancelled)\n", s.Queries, s.Cancelled)
	fmt.Fprintf(os.Stderr, "plan cache:   %d hits, %d misses, %d evictions, %d/%d entries\n",
		s.PlanCache.Hits, s.PlanCache.Misses, s.PlanCache.Evictions, s.PlanCache.Entries, s.PlanCache.Capacity)
	fmt.Fprintf(os.Stderr, "evaluation:   %d evals\n", s.Evals)
}

func buildEngine(viewPath, builtin, dtdPath, specPath string, params cli.Params) (*core.Engine, error) {
	if viewPath != "" {
		data, err := os.ReadFile(viewPath)
		if err != nil {
			return nil, err
		}
		view, err := secview.UnmarshalView(data)
		if err != nil {
			return nil, err
		}
		return core.FromView(view)
	}
	spec, err := cli.LoadSpec(builtin, dtdPath, specPath)
	if err != nil {
		return nil, err
	}
	if spec, err = cli.BindIfNeeded(spec, params); err != nil {
		return nil, err
	}
	return core.New(spec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svquery:", err)
	os.Exit(1)
}
