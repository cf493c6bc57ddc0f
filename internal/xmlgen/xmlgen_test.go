package xmlgen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
	"repro/internal/xmltree"
)

const shopDTD = `
root shop
shop -> section*
section -> title, item*
title -> #PCDATA
item -> sku, price, stock
sku -> #PCDATA
price -> #PCDATA
stock -> new + used
new -> EMPTY
used -> EMPTY
`

func TestGenerateConforms(t *testing.T) {
	d := dtd.MustParse(shopDTD)
	for seed := int64(0); seed < 20; seed++ {
		doc := Generate(d, Config{Seed: seed, MaxRepeat: 4})
		if err := xmltree.Validate(doc, d); err != nil {
			t.Fatalf("seed %d: generated document does not conform: %v", seed, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d := dtd.MustParse(shopDTD)
	a := Generate(d, Config{Seed: 42, MaxRepeat: 5})
	b := Generate(d, Config{Seed: 42, MaxRepeat: 5})
	if a.XML() != b.XML() {
		t.Errorf("same seed produced different documents")
	}
	c := Generate(d, Config{Seed: 43, MaxRepeat: 5})
	if a.XML() == c.XML() {
		t.Errorf("different seeds produced identical documents")
	}
}

func TestBranchingFactorScalesSize(t *testing.T) {
	d := dtd.MustParse(shopDTD)
	small := Generate(d, Config{Seed: 7, MinRepeat: 1, MaxRepeat: 2})
	large := Generate(d, Config{Seed: 7, MinRepeat: 6, MaxRepeat: 12})
	if small.Size() >= large.Size() {
		t.Errorf("sizes do not scale with branching: %d vs %d", small.Size(), large.Size())
	}
}

func TestGenerateRecursiveBounded(t *testing.T) {
	d := dtd.MustParse(`
root a
a -> b, c
b -> #PCDATA
c -> a*
`)
	doc := Generate(d, Config{Seed: 1, MinRepeat: 1, MaxRepeat: 2, MaxDepth: 8})
	if err := xmltree.Validate(doc, d); err != nil {
		t.Fatalf("recursive doc does not conform: %v", err)
	}
	// Depth must be bounded: MaxDepth plus the minimal completions.
	if h := doc.Height(); h > 8+d.Len()+2 {
		t.Errorf("height %d exceeds bound", h)
	}
}

func TestGenerateRecursiveChoice(t *testing.T) {
	// Recursion escaped through a disjunction branch.
	d := dtd.MustParse(`
root node
node -> leaf + pair
pair -> node, node
leaf -> #PCDATA
`)
	doc := Generate(d, Config{Seed: 3, MaxDepth: 6})
	if err := xmltree.Validate(doc, d); err != nil {
		t.Fatalf("choice-recursive doc does not conform: %v", err)
	}
}

func TestMinHeights(t *testing.T) {
	d := dtd.MustParse(shopDTD)
	h := MinHeights(d)
	// item -> sku, price, stock; stock -> new|used (EMPTY): height(item) =
	// 1 + max(height(sku)=1, height(stock)=1) = 2.
	if h["item"] != 2 {
		t.Errorf("MinHeights[item] = %d, want 2", h["item"])
	}
	if h["new"] != 0 || h["sku"] != 1 {
		t.Errorf("leaf heights = %d, %d", h["new"], h["sku"])
	}
	// shop -> section*: zero repetitions complete immediately.
	if h["shop"] != 0 {
		t.Errorf("MinHeights[shop] = %d, want 0", h["shop"])
	}
}

func TestValueHook(t *testing.T) {
	d := dtd.MustParse("root a\na -> b\nb -> #PCDATA\n")
	doc := Generate(d, Config{Seed: 0, Value: func(r *rand.Rand, label string) string {
		return "fixed-" + label
	}})
	if got := doc.Root.Children[0].Text(); got != "fixed-b" {
		t.Errorf("value hook ignored: %q", got)
	}
}

func TestGenerateNoFiniteCompletionPanics(t *testing.T) {
	d := dtd.MustParse("root a\na -> b\nb -> a\n")
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for DTD without finite instances")
		}
	}()
	Generate(d, Config{Seed: 0, MaxDepth: 4})
}

// TestGenerateAlwaysConforms is the generator's core property: every
// generated document validates against its DTD.
func TestGenerateAlwaysConforms(t *testing.T) {
	d := dtd.MustParse(`
root r
r -> a*
a -> b + c
b -> d, e
c -> #PCDATA
d -> #PCDATA
e -> f*
f -> #PCDATA
`)
	f := func(seed int64, branch uint8) bool {
		doc := Generate(d, Config{Seed: seed, MaxRepeat: int(branch%6) + 1})
		return xmltree.Validate(doc, d) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGenerateAttributes(t *testing.T) {
	d := dtd.MustParse(`
root r
r -> item*
item -> #PCDATA
attlist item id!, note
`)
	doc := Generate(d, Config{Seed: 3, MinRepeat: 4, MaxRepeat: 8})
	if err := xmltree.Validate(doc, d); err != nil {
		t.Fatalf("generated attributes invalid: %v", err)
	}
	sawOptional := false
	sawMissingOptional := false
	for _, item := range doc.Root.Children {
		if _, ok := item.Attr("id"); !ok {
			t.Fatalf("required attribute missing")
		}
		if _, ok := item.Attr("note"); ok {
			sawOptional = true
		} else {
			sawMissingOptional = true
		}
	}
	if !sawOptional || !sawMissingOptional {
		t.Errorf("optional attribute not randomized (present=%v absent=%v)", sawOptional, sawMissingOptional)
	}
}
