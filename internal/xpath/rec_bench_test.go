package xpath

import (
	"testing"

	"repro/internal/xmltree"
)

// recBenchDoc builds a deep recursive document — a chain of `a` nodes,
// each carrying a few `b` leaves — so the Rec product search visits
// many (node, state) pairs per evaluation.
func recBenchDoc(depth, leaves int) *xmltree.Node {
	root := xmltree.NewElement("r")
	cur := root
	for i := 0; i < depth; i++ {
		a := xmltree.NewElement("a")
		for j := 0; j < leaves; j++ {
			a.AppendChild(xmltree.NewElement("b"))
		}
		cur.AppendChild(a)
		cur = a
	}
	return root
}

func recBenchPlan() Rec {
	g := NewRecGraph(map[string][]RecEdge{
		"a": {
			{To: "a", Sig: Label{Name: "a"}},
			{To: "b", Sig: Label{Name: "b"}},
		},
		"b": nil,
	})
	return Rec{G: g, Start: "a", Accept: "b", ResultLabel: "b"}
}

// BenchmarkRecEval is the allocation regression benchmark for the
// recursive-view product evaluation: the map leg exercises evalRec's
// pooled, pre-sized visited map on a hand-built (uncompacted) tree, and
// the bitset leg exercises bitEval.reach's per-state rows on the
// compacted equivalent. Steady-state allocs/op on both legs must not
// regress — see `make bench-smoke`.
func BenchmarkRecEval(b *testing.B) {
	plan := Seq{Left: Label{Name: "a"}, Right: recBenchPlan()}

	b.Run("map", func(b *testing.B) {
		doc := xmltree.NewDocument(recBenchDoc(200, 3))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := EvalDocErr(plan, doc)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != 200*3 {
				b.Fatalf("got %d nodes, want %d", len(out), 200*3)
			}
		}
	})

	b.Run("bitset", func(b *testing.B) {
		doc := xmltree.NewDocument(recBenchDoc(200, 3))
		doc.Compact()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := EvalDocErr(plan, doc)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != 200*3 {
				b.Fatalf("got %d nodes, want %d", len(out), 200*3)
			}
		}
	})
}
