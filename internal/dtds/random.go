package dtds

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/dtd"
)

// RecursiveGen parameterizes the randomized recursive-DTD generator used
// by the height-free differential harness, the fuzz seed corpus, and
// xmlgen -builtin random-recursive. The zero value takes the defaults.
type RecursiveGen struct {
	// Depth is the number of element layers n0 → n1 → … → n{Depth-1} on
	// the forward chain; every layer also carries a #PCDATA leaf v{i}.
	// Default 4.
	Depth int
	// Branching is the maximum number of extra starred edges added per
	// layer. Extra edges that point at the same or an earlier layer are
	// back-edges and make the DTD recursive; one back-edge from the last
	// layer is always present so the result is recursive for every seed.
	// Default 2.
	Branching int
	// Density is the probability that RandomRecursivePolicySource
	// annotates an individual production edge. Default 0.5.
	Density float64
	// StarredOnly restricts N and conditional annotations to starred
	// production items (required items draw only Y). A required child
	// that is hidden or conditional makes materialization abort on
	// instances where σ does not select exactly one node, so harnesses
	// that compare against the materialized view set this; the starred
	// items carry the recursive structure, which keeps the policies
	// interesting for deep documents. Default false (annotate anything).
	StarredOnly bool
	// Params, when positive, makes the policy parameterized: each
	// value-based annotation compares against one of the parameters
	// $p0 … $p{Params-1} instead of its constant with probability 1/2.
	// Bind them to values of xmlgen's pool ("v0" … "v9"). Default 0
	// (constants only; the random stream is then unchanged).
	Params int
}

func (c RecursiveGen) withDefaults() RecursiveGen {
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.Branching <= 0 {
		c.Branching = 2
	}
	if c.Density <= 0 {
		c.Density = 0.5
	}
	return c
}

// RandomRecursiveDTDSource emits a random recursive DTD in the compact
// syntax. The shape is a forward chain of element layers, each with a
// text leaf, plus random starred cross- and back-edges; back-edges close
// cycles through the chain, so the DTD is always recursive. All
// recursive references sit under a star, which keeps xmlgen's minimal
// expansion (and therefore materialization in tests) finite.
func RandomRecursiveDTDSource(r *rand.Rand, cfg RecursiveGen) string {
	cfg = cfg.withDefaults()
	k := cfg.Depth
	extras := make([][]int, k)
	for i := 0; i < k; i++ {
		seen := make(map[int]bool)
		for j := r.Intn(cfg.Branching + 1); j > 0; j-- {
			t := r.Intn(k)
			if t == i+1 || seen[t] {
				continue // the chain already has this edge, or a duplicate
			}
			seen[t] = true
			extras[i] = append(extras[i], t)
		}
		if i == k-1 && len(extras[i]) == 0 {
			// Guarantee recursion: the last layer always reaches back into
			// the chain (t ≤ i closes a cycle via the chain edges).
			t := r.Intn(k)
			extras[i] = append(extras[i], t)
		}
	}
	var b strings.Builder
	b.WriteString("root n0\n")
	for i := 0; i < k; i++ {
		items := []string{fmt.Sprintf("v%d", i)}
		if i+1 < k {
			items = append(items, fmt.Sprintf("n%d", i+1))
		}
		for _, t := range extras[i] {
			items = append(items, fmt.Sprintf("n%d*", t))
		}
		fmt.Fprintf(&b, "n%d -> %s\n", i, strings.Join(items, ", "))
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "v%d -> #PCDATA\n", i)
	}
	return b.String()
}

// RandomRecursiveDTD is RandomRecursiveDTDSource parsed.
func RandomRecursiveDTD(r *rand.Rand, cfg RecursiveGen) *dtd.DTD {
	return dtd.MustParse(RandomRecursiveDTDSource(r, cfg))
}

// RandomRecursivePolicySource emits a random annotation source over a
// DTD produced by RandomRecursiveDTDSource: each element-to-element and
// element-to-leaf production edge is annotated with probability
// cfg.Density, drawing from Y, N, and value-based [q] annotations whose
// constants overlap xmlgen's default value pool so qualifiers select
// non-trivial subsets. Some of the resulting policies derive
// non-recursive views or fail derivation outright — callers that need a
// recursive view filter on View.IsRecursive.
func RandomRecursivePolicySource(r *rand.Rand, d *dtd.DTD, cfg RecursiveGen) string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	for _, x := range d.Types() {
		c, ok := d.Production(x)
		if !ok || c.Kind == dtd.Text || c.Kind == dtd.Empty {
			continue
		}
		for _, it := range c.Items {
			if r.Float64() >= cfg.Density {
				continue
			}
			ann := randomAnnotation(r, d, it.Name, cfg.Params)
			if cfg.StarredOnly && !it.Starred && ann != "Y" {
				ann = "Y"
			}
			fmt.Fprintf(&b, "ann(%s, %s) = %s\n", x, it.Name, ann)
		}
	}
	return b.String()
}

// randomAnnotation picks one annotation value for an edge into child y;
// with params > 0 a value comparison may name a parameter instead of a
// constant.
func randomAnnotation(r *rand.Rand, d *dtd.DTD, y string, params int) string {
	switch r.Intn(10) {
	case 0, 1, 2: // hide
		return "N"
	case 3, 4, 5: // expose
		return "Y"
	default: // conditional on a text leaf below y
		leaf := randomLeafBelow(r, d, y)
		if leaf == "" {
			return "Y"
		}
		shape := r.Intn(3)
		if shape == 0 {
			return fmt.Sprintf("[%s]", leaf)
		}
		value := fmt.Sprintf("%q", fmt.Sprintf("v%d", r.Intn(10)))
		if params > 0 && r.Intn(2) == 0 {
			value = fmt.Sprintf("$p%d", r.Intn(params))
		}
		if shape == 1 {
			return fmt.Sprintf("[%s = %s]", leaf, value)
		}
		return fmt.Sprintf("[//%s = %s]", leaf, value)
	}
}

// randomLeafBelow returns a random #PCDATA element type reachable from y
// ("" when there is none).
func randomLeafBelow(r *rand.Rand, d *dtd.DTD, y string) string {
	var leaves []string
	for t := range d.Reachable(y) {
		if c, ok := d.Production(t); ok && c.Kind == dtd.Text {
			leaves = append(leaves, t)
		}
	}
	if len(leaves) == 0 {
		return ""
	}
	// Reachable returns a map; sort for per-seed determinism.
	sort.Strings(leaves)
	return leaves[r.Intn(len(leaves))]
}

// RandomRecursiveSpec draws (DTD, policy) pairs until one parses into a
// specification (annotation sources are always syntactically valid, so
// this succeeds on the first try; the loop is defense in depth) and
// returns it. Derivation of the security view can still fail or produce
// a non-recursive view; callers handle both.
func RandomRecursiveSpec(r *rand.Rand, cfg RecursiveGen) *access.Spec {
	d := RandomRecursiveDTD(r, cfg)
	return access.MustParseAnnotations(d, RandomRecursivePolicySource(r, d, cfg))
}
