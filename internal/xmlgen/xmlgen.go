// Package xmlgen generates random XML documents conforming to a DTD. It
// stands in for IBM's XML Generator [Diaz/Lovell], which the paper uses
// to produce the Adex data sets D1-D4 by varying the maximum branching
// factor: starred productions repeat between MinRepeat and MaxRepeat
// times, disjunctions pick a random branch, and PCDATA comes from a
// per-label value hook. Generation is fully deterministic for a given
// seed and configuration.
//
// Recursive DTDs are supported: beyond MaxDepth the generator switches to
// a minimal expansion (zero repetitions for stars, the shallowest branch
// for disjunctions) so documents stay finite. MinHeights precomputes the
// shallowest-completion heights used for that choice.
package xmlgen

import (
	"fmt"
	"math/rand"

	"repro/internal/dtd"
	"repro/internal/xmltree"
)

// Config controls generation.
type Config struct {
	// Seed makes generation deterministic. The zero seed is valid.
	Seed int64
	// MinRepeat and MaxRepeat bound how many children a starred production
	// position produces (the XML Generator's branching factor). Defaults:
	// 0 and 3.
	MinRepeat, MaxRepeat int
	// MaxDepth switches generation to minimal expansions below this depth,
	// bounding documents over recursive DTDs. Default: 30.
	MaxDepth int
	// MaxNodes, when positive, switches the whole generation to minimal
	// expansions once that many elements exist. DTDs with several starred
	// recursive positions per production branch supercritically — size
	// grows exponentially in MaxDepth — and this caps the document at
	// roughly MaxNodes elements (plus the minimal completions of open
	// subtrees) regardless of the DTD's branching structure. Default: 0
	// (unlimited).
	MaxNodes int
	// Value produces the PCDATA for a text production, given the element
	// label and the generator's RNG. The default yields short distinct
	// strings ("v0".."v9" per label).
	Value func(r *rand.Rand, label string) string
}

func (c Config) withDefaults() Config {
	if c.MaxRepeat == 0 {
		c.MaxRepeat = 3
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 30
	}
	if c.Value == nil {
		c.Value = func(r *rand.Rand, label string) string {
			return fmt.Sprintf("v%d", r.Intn(10))
		}
	}
	return c
}

// Generate produces a random instance of the DTD. The DTD must pass
// Check; Generate panics otherwise (generation is a test/benchmark
// utility over trusted schemas).
func Generate(d *dtd.DTD, cfg Config) *xmltree.Document {
	if err := d.Check(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	g := &generator{
		d:       d,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		heights: MinHeights(d),
	}
	root := xmltree.NewElement(d.Root())
	g.fill(root, 0)
	// Nothing outside holds pointers into a freshly generated tree, so
	// repack it into xmltree's flat arena for evaluation locality.
	// Compact numbers and indexes the arena, once.
	doc := &xmltree.Document{Root: root}
	doc.Compact()
	return doc
}

type generator struct {
	d       *dtd.DTD
	cfg     Config
	rng     *rand.Rand
	heights map[string]int
	nodes   int
}

func (g *generator) fill(n *xmltree.Node, depth int) {
	// Attributes: required ones always, optional ones with probability ½.
	for _, def := range g.d.Attlist(n.Label) {
		if def.Required || g.rng.Intn(2) == 0 {
			n.SetAttr(def.Name, g.cfg.Value(g.rng, "@"+def.Name))
		}
	}
	c := g.d.MustProduction(n.Label)
	minimal := depth >= g.cfg.MaxDepth ||
		(g.cfg.MaxNodes > 0 && g.nodes >= g.cfg.MaxNodes)
	switch c.Kind {
	case dtd.Empty:
	case dtd.Text:
		n.AppendChild(xmltree.NewText(g.cfg.Value(g.rng, n.Label)))
	case dtd.Star:
		g.repeat(n, c.Items[0].Name, depth, minimal)
	case dtd.Seq:
		for _, it := range c.Items {
			if it.Starred {
				g.repeat(n, it.Name, depth, minimal)
				continue
			}
			g.child(n, it.Name, depth)
		}
	case dtd.Choice:
		g.child(n, g.pick(c.Items, minimal), depth)
	}
}

// repeat emits a random number of children for a starred position.
func (g *generator) repeat(n *xmltree.Node, name string, depth int, minimal bool) {
	count := 0
	if !minimal {
		count = g.cfg.MinRepeat + g.rng.Intn(g.cfg.MaxRepeat-g.cfg.MinRepeat+1)
	}
	for i := 0; i < count; i++ {
		g.child(n, name, depth)
	}
}

func (g *generator) child(n *xmltree.Node, name string, depth int) {
	if depth > g.cfg.MaxDepth+g.d.Len()+64 {
		// A DTD whose required children recurse forever has no finite
		// instances at all; fail loudly rather than looping.
		panic(fmt.Sprintf("xmlgen: DTD has no finite completion below %s", n.Label))
	}
	c := xmltree.NewElement(name)
	n.AppendChild(c)
	g.nodes++
	g.fill(c, depth+1)
}

// pick selects a disjunction branch: uniformly at random normally, the
// shallowest-completing branch in minimal mode.
func (g *generator) pick(items []dtd.Item, minimal bool) string {
	if !minimal {
		return items[g.rng.Intn(len(items))].Name
	}
	best := items[0].Name
	for _, it := range items[1:] {
		if g.heights[it.Name] < g.heights[best] {
			best = it.Name
		}
	}
	return best
}

// MinHeights returns, for each element type, the minimum height of a
// conforming subtree rooted at it (text children count one level). Types
// that cannot complete finitely (pathological recursive DTDs with no
// escape) keep a large sentinel value; Generate still terminates for them
// because minimal mode emits zero children for stars.
func MinHeights(d *dtd.DTD) map[string]int {
	const inf = 1 << 20
	h := make(map[string]int, d.Len())
	for _, t := range d.Types() {
		h[t] = inf
	}
	for changed := true; changed; {
		changed = false
		for _, t := range d.Types() {
			c := d.MustProduction(t)
			var nh int
			switch c.Kind {
			case dtd.Empty:
				nh = 0
			case dtd.Text:
				nh = 1
			case dtd.Star:
				nh = 0 // zero repetitions complete immediately
			case dtd.Seq:
				nh = 0
				for _, it := range c.Items {
					if it.Starred {
						continue
					}
					if ch := h[it.Name]; ch+1 > nh {
						nh = ch + 1
					}
				}
			case dtd.Choice:
				nh = inf
				for _, it := range c.Items {
					if ch := h[it.Name]; ch+1 < nh {
						nh = ch + 1
					}
				}
			}
			if nh > inf {
				nh = inf
			}
			if nh < h[t] {
				h[t] = nh
				changed = true
			}
		}
	}
	return h
}
