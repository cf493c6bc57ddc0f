package typedp

import (
	"sort"

	"repro/internal/xpath"
)

// ReachDescend returns reach(//, a): the types reachable from a via
// descendant-or-self, a itself included (so //p at a also covers p at
// a), plus Text when a text edge is reachable. With Recrw this is the
// paper's procedure recProc (Fig. 6); both are computed once per source
// type.
func (dp *DP) ReachDescend(a string) []string {
	return dp.recProc(a).reach
}

// Recrw returns recrw(a, b): a query capturing every label path from a
// to b in the type graph, with the edge queries spliced in; recrw(a, a)
// covers ε. It is ∅ when b is not reachable from a.
func (dp *DP) Recrw(a, b string) xpath.Path {
	if p, ok := dp.recProc(a).paths[b]; ok {
		return p
	}
	return xpath.Empty{}
}

// recProc computes reach(//, a) and recrw(a, ·) for one source type.
//
// The paper's recProc uses symbolic variables Z_x so that each
// intermediate path segment is included exactly once, then substitutes
// in topological order; the equivalent here is to compute
//
//	recrw(a, y) = ⋃ over edges (x, y) of recrw(a, x)/edge(x, y)
//
// in topological order while sharing the already-built recrw(a, x)
// sub-expressions (Go interface values alias the same underlying
// nodes), which keeps the construction linear in the graph per target.
// The text target is the union over the text-typed types, in sorted
// order so that the plan text does not depend on map order.
//
// When the region reachable from a holds a cycle, the label paths are
// infinitely many; every target then gets the caller's Lang.Cyclic
// query. Sources whose region is acyclic keep the expansion even in a
// recursive graph: it exposes more structure to later passes.
func (dp *DP) recProc(a string) recTable {
	if t, ok := dp.rec[a]; ok {
		return t
	}
	order, cyclic := dp.walk(a)
	paths := make(map[string]xpath.Path, len(order)+1)
	if cyclic {
		text := false
		for _, b := range order {
			paths[b] = dp.lang.Cyclic(a, b)
			if _, t := dp.Edges(b); t != nil {
				text = true
			}
		}
		if text {
			paths[Text] = dp.lang.Cyclic(a, Text)
		}
	} else {
		paths[a] = xpath.Self{}
		for _, x := range order {
			px := paths[x]
			kids, _ := dp.Edges(x)
			for _, e := range kids {
				step := xpath.MakeSeq(px, e.Query)
				if prev, seen := paths[e.To]; seen {
					paths[e.To] = xpath.MakeUnion(prev, step)
				} else {
					paths[e.To] = step
				}
			}
		}
		sort.Strings(order)
		var text xpath.Path = xpath.Empty{}
		for _, b := range order {
			if _, t := dp.Edges(b); t != nil {
				text = xpath.MakeUnion(text, xpath.MakeSeq(paths[b], t))
			}
		}
		if !xpath.IsEmpty(text) {
			paths[Text] = text
		}
	}
	reach := make([]string, 0, len(paths))
	for b := range paths {
		reach = append(reach, b)
	}
	sort.Strings(reach)
	t := recTable{reach: reach, paths: paths}
	dp.rec[a] = t
	return t
}

// walk returns the types reachable from a, a included, in reverse DFS
// post-order (parents before children when the region is acyclic), and
// whether the region holds a cycle.
func (dp *DP) walk(a string) (order []string, cyclic bool) {
	const onPath, done = 1, 2
	state := make(map[string]int8)
	var visit func(x string)
	visit = func(x string) {
		state[x] = onPath
		kids, _ := dp.Edges(x)
		for _, e := range kids {
			switch state[e.To] {
			case 0:
				visit(e.To)
			case onPath:
				cyclic = true
			}
		}
		state[x] = done
		order = append(order, x)
	}
	visit(a)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, cyclic
}
