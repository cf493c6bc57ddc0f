// Command svbench regenerates the paper's Table 1: query evaluation time
// for the naive, rewrite, and optimize approaches over the four Adex data
// sets, plus the rewritten/optimized query forms behind each row.
//
// Usage:
//
//	svbench                 # default data sets (D1-D4)
//	svbench -quick          # small data sets for a fast sanity run
//	svbench -repeats 5      # take the median of more evaluations per cell
//	svbench -queries        # also print per-query rewriting details
//	svbench -height-sweep   # recursive rewriting: height-free vs unfold
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/benchtable"
	"repro/internal/dtds"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "small data sets for a fast run")
		repeats = flag.Int("repeats", 3, "evaluations per cell (the median is reported)")
		seed    = flag.Int64("seed", 1, "generator seed")
		queries = flag.Bool("queries", false, "print rewritten and optimized query forms")
		sweep   = flag.Bool("height-sweep", false, "print the recursive-view height sweep (height-free vs unfold) instead of Table 1")
	)
	flag.Parse()

	if *sweep {
		if err := heightSweep(*repeats); err != nil {
			fmt.Fprintln(os.Stderr, "svbench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := benchtable.Config{Repeats: *repeats, Seed: *seed, Verify: true}
	if *quick {
		cfg.DataSets = []benchtable.DataSet{
			{Name: "D1", MaxRepeat: 100},
			{Name: "D2", MaxRepeat: 500},
			{Name: "D3", MaxRepeat: 1600},
			{Name: "D4", MaxRepeat: 2400},
		}
	}
	report, err := benchtable.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svbench:", err)
		os.Exit(1)
	}
	fmt.Println("Table 1 — secure query evaluation: naive vs rewrite vs optimize")
	fmt.Println("(all approaches verified to return identical answers)")
	fmt.Println()
	fmt.Print(report.Format())

	if *queries {
		fmt.Println("\nQuery forms (rewritten over the document DTD):")
		seen := map[string]bool{}
		for _, c := range report.Cells {
			if seen[c.Query] {
				continue
			}
			seen[c.Query] = true
			fmt.Printf("  %s rewritten: %s\n", c.Query, c.RewrittenQuery)
			if c.OptimizeDiffers {
				fmt.Printf("  %s optimized: %s\n", c.Query, c.OptimizedQuery)
			} else {
				fmt.Printf("  %s optimized: (unchanged)\n", c.Query)
			}
		}
	}
}

// heightSweep prints rewrite time, plan node count, and evaluation time
// for both recursive-view rewriting treatments over Fig. 7 documents of
// growing height — the EXPERIMENTS.md height-sweep table.
func heightSweep(repeats int) error {
	view, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		return err
	}
	p := xpath.MustParse("//b")
	fmt.Println("Height sweep — recursive-view rewriting of //b over Fig. 7: height-free vs §4.2 unfolding")
	fmt.Println("(both treatments verified to return identical answers at every height)")
	fmt.Println()
	fmt.Printf("%8s %8s | %12s %12s %12s | %12s %12s %12s\n",
		"height", "nodes", "hf-rewrite", "hf-plan", "hf-eval", "unf-rewrite", "unf-plan", "unf-eval")
	for _, height := range []int{4, 8, 16, 32} {
		doc := xmlgen.Generate(dtds.Fig7(), xmlgen.Config{
			Seed: int64(height), MinRepeat: 1, MaxRepeat: 2, MaxDepth: height, MaxNodes: 4000,
		})
		var ptHF, ptOr xpath.Path
		hfRewrite := timeIt(repeats, func() error {
			r, err := rewrite.ForView(view)
			if err != nil {
				return err
			}
			ptHF, err = r.Rewrite(p)
			return err
		})
		unfRewrite := timeIt(repeats, func() error {
			r, err := rewrite.ForViewWithHeight(view, doc.Height())
			if err != nil {
				return err
			}
			ptOr, err = r.Rewrite(p)
			return err
		})
		if got, want := len(xpath.EvalDoc(ptHF, doc)), len(xpath.EvalDoc(ptOr, doc)); got != want {
			return fmt.Errorf("height %d: treatments disagree: height-free %d nodes, unfold %d", height, got, want)
		}
		hfEval := timeIt(repeats, func() error { xpath.EvalDoc(ptHF, doc); return nil })
		unfEval := timeIt(repeats, func() error { xpath.EvalDoc(ptOr, doc); return nil })
		fmt.Printf("%8d %8d | %12v %12d %12v | %12v %12d %12v\n",
			doc.Height(), doc.Size(),
			hfRewrite.Round(time.Microsecond), xpath.Size(ptHF), hfEval.Round(time.Microsecond),
			unfRewrite.Round(time.Microsecond), xpath.Size(ptOr), unfEval.Round(time.Microsecond))
	}
	return nil
}

// timeIt returns the best-of-repeats wall time of f (panics bubble up;
// rewrite/eval errors in the sweep are programming errors).
func timeIt(repeats int, f func() error) time.Duration {
	best := time.Duration(0)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := f(); err != nil {
			panic(err)
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}
