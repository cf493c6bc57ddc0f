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
// recursive-view product evaluation, bitEval.reach's per-state rows: on
// a hand-built tree that is renumbered but never compacted (the shape
// of a materialized view) and on its compacted equivalent.
// Steady-state allocs/op on both legs must not regress — see
// `make bench-smoke`.
func BenchmarkRecEval(b *testing.B) {
	plan := Seq{Left: Label{Name: "a"}, Right: recBenchPlan()}

	b.Run("uncompacted", func(b *testing.B) {
		doc := xmltree.NewDocument(recBenchDoc(200, 3))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := evalDoc(plan, doc)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != 200*3 {
				b.Fatalf("got %d nodes, want %d", len(out), 200*3)
			}
		}
	})

	b.Run("compacted", func(b *testing.B) {
		doc := xmltree.NewDocument(recBenchDoc(200, 3))
		doc.Compact()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := evalDoc(plan, doc)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != 200*3 {
				b.Fatalf("got %d nodes, want %d", len(out), 200*3)
			}
		}
	})
}
