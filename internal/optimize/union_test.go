package optimize

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xpath"
)

// TestUnionWithRecNeverProved: a union holding a Rec branch keeps both
// branches, in either order and next to its own copy, because the image
// abstraction cannot see inside the automaton.
func TestUnionWithRecNeverProved(t *testing.T) {
	o := New(dtd.MustParse("root a\na -> b\nb -> b + c\nc -> #PCDATA\n"))
	rec := xpath.Rec{ResultLabel: "b"}
	desc := xpath.MustParse("//b")
	for _, p := range []xpath.Union{
		{Left: rec, Right: desc},
		{Left: desc, Right: rec},
		{Left: xpath.Union{Left: desc, Right: rec}, Right: desc},
	} {
		r0, _ := o.Stats()
		out := xpath.String(optimized(o, p))
		if !strings.Contains(out, "rec{") || !strings.Contains(out, "//b") {
			t.Errorf("%s optimized to %s: a branch was dropped", xpath.String(p), out)
		}
		// No containment test may fire, not even between the two //b
		// branches of the last case, which sit in different ranges.
		if r1, _ := o.Stats(); r1 != r0 {
			t.Errorf("%s: %d union rules fired next to a Rec branch", xpath.String(p), r1-r0)
		}
	}
}

// TestAllEmptyUnionOptimizesToEmpty: a union whose every branch is
// impossible under the DTD optimizes to ∅, at any nesting.
func TestAllEmptyUnionOptimizesToEmpty(t *testing.T) {
	o := New(fig8a())
	for _, q := range []string{"x | y", "x | (y | b/z)", "(x | a/x) | (c | y/z)"} {
		if out := optimized(o, xpath.MustParse(q)); !xpath.IsEmpty(out) {
			t.Errorf("%s optimized to %s, want ∅", q, xpath.String(out))
		}
	}
}

// TestOptimizeCountersRepeatable: with the memo scoped to one call,
// optimizing the same query again adds the same rule and prune counts.
func TestOptimizeCountersRepeatable(t *testing.T) {
	o := New(dtds.Hospital())
	p := xpath.MustParse(`dept[*/patient/wardNo = "7"]/(patientInfo | staffInfo) | dept[patientInfo]/patientInfo | dept[*/patient/wardNo = "7"]/staffInfo/staff`)
	r0, p0 := o.Stats()
	first := xpath.String(optimized(o, p))
	r1, p1 := o.Stats()
	second := xpath.String(optimized(o, p))
	r2, p2 := o.Stats()
	if first != second {
		t.Fatalf("second call printed %s, first %s", second, first)
	}
	if r1-r0 == 0 || p1-p0 == 0 {
		t.Fatalf("query fired no rules (rules %d, pruned %d); pick one that does", r1-r0, p1-p0)
	}
	if r2-r1 != r1-r0 || p2-p1 != p1-p0 {
		t.Errorf("deltas differ: first call rules %d pruned %d, second rules %d pruned %d",
			r1-r0, p1-p0, r2-r1, p2-p1)
	}
}

// TestUnionRecursiveRootNotShared: on a recursive DTD, a '//' branch's
// spine loops back to its root occurrence. Merging the other branch
// into that occurrence would let the image of //b ∪ c claim a/b/a/c and
// prove //c ⊑ //b ∪ c, dropping every c below the top level.
func TestUnionRecursiveRootNotShared(t *testing.T) {
	d := dtd.MustParse("root a\na -> b*, c*\nb -> a*\nc -> #PCDATA\n")
	o := New(d)
	if o.contains(xpath.MustParse("//c"), xpath.MustParse("//b | c")) {
		t.Errorf("//c proved contained in //b | c")
	}
	p := xpath.MustParse("//c | (//b | c)")
	po, _, _ := o.Optimize(p)
	nested := false
	for seed := int64(0); seed < 8; seed++ {
		doc := xmlgen.Generate(d, xmlgen.Config{Seed: seed, MaxRepeat: 2, MaxDepth: 6})
		want, got := xpath.EvalDoc(p, doc), xpath.EvalDoc(po, doc)
		if len(want) != len(got) {
			t.Errorf("seed %d: %s selects %d nodes, optimized %s selects %d",
				seed, xpath.String(p), len(want), xpath.String(po), len(got))
		}
		nested = nested || len(xpath.EvalDoc(xpath.MustParse("c"), doc)) < len(xpath.EvalDoc(xpath.MustParse("//c"), doc))
	}
	if !nested {
		t.Fatalf("no generated document has a c below the top level")
	}
}

// TestTextPathsDeterministic: the '//' expansion's text() paths are
// built in a fixed order, so fresh optimizers print the same plan for a
// query that reaches text through '//'.
func TestTextPathsDeterministic(t *testing.T) {
	p := xpath.MustParse("//.")
	want := xpath.String(optimized(New(dtds.Hospital()), p))
	for i := 0; i < 20; i++ {
		if got := xpath.String(optimized(New(dtds.Hospital()), p)); got != want {
			t.Fatalf("run %d printed\n%s\nfirst run printed\n%s", i, got, want)
		}
	}
}

// TestUnionRangeImageMatches: the image the union pass composes for a
// range of branches is the image of that range's union built at once —
// the same graph, qualifiers demanded and held included — on random
// unions over non-recursive DTDs. Plans stay byte-identical only if
// every range image agrees.
func TestUnionRangeImageMatches(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for _, d := range []*dtd.DTD{dtds.Hospital(), dtds.Adex(), fig9()} {
		labels := append(d.Types(), "nosuch")
		o := New(d)
		for i := 0; i < 200; i++ {
			var branches []xpath.Path
			for k := 2 + r.Intn(4); len(branches) < k; {
				br := randAdexPath(r, labels, 1+r.Intn(3))
				if _, ok := br.(xpath.Union); ok {
					continue
				}
				branches = append(branches, br)
			}
			p := branches[0]
			for _, br := range branches[1:] {
				p = xpath.Union{Left: p, Right: br}
			}
			u := o.newUnionPass(p.(xpath.Union), d.Root())
			for lo := 0; lo < len(branches); lo++ {
				var whole xpath.Path = branches[lo]
				for hi := lo + 1; hi <= len(branches); hi++ {
					if hi > lo+1 {
						whole = xpath.Union{Left: whole, Right: branches[hi-1]}
					}
					g1, ok1 := u.image(lo, hi)
					g2, ok2 := o.image(whole, d.Root())
					same := ok1 == ok2 && (g1 == nil) == (g2 == nil)
					if same && ok1 && g1 != nil {
						same = renderImage(g1.root) == renderImage(g2.root)
					}
					if !same {
						t.Fatalf("range [%d,%d) of %s: composed (%v, ok %v) differs from built (%v, ok %v)",
							lo, hi, xpath.String(p), g1 != nil, ok1, g2 != nil, ok2)
					}
				}
			}
		}
	}
}

// renderImage prints an image graph in a canonical form: each occurrence
// with its label, frontier flag, demanded and held qualifiers, then its
// children in order; an occurrence met again prints as a back-reference.
func renderImage(root *inode) string {
	var b strings.Builder
	ids := make(map[*inode]int)
	var walk func(n *inode)
	walk = func(n *inode) {
		if id, ok := ids[n]; ok {
			fmt.Fprintf(&b, "@%d", id)
			return
		}
		ids[n] = len(ids)
		fmt.Fprintf(&b, "(%s %v", n.label, n.frontier)
		for _, qs := range [][]qualAt{n.quals, n.held} {
			b.WriteString(" [")
			for _, q := range qs {
				fmt.Fprintf(&b, "%s@%s;", xpath.QualString(q.q), q.at)
			}
			b.WriteString("]")
		}
		for _, k := range n.kids {
			walk(k)
		}
		b.WriteString(")")
	}
	walk(root)
	return b.String()
}
