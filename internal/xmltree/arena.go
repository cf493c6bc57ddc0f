package xmltree

// Compact repacks the document's node storage into a flat arena: one
// []Node slice holding every node in document order, with each node's
// Children carved as a contiguous window of a single shared backing
// slab. Pointer-identity of every node changes (the old tree remains
// valid but is no longer part of the document), so Compact is meant for
// document *construction* — the generator calls it once before handing
// the document out; the parser writes the same layout directly — not
// for trees whose nodes are already referenced elsewhere.
//
// The payoff is locality: a pre-order scan of a subtree (descendant
// steps, index posting-list filters) touches one contiguous allocation
// instead of chasing per-node heap pointers, and the byOrd table built
// by Renumber points straight into the arena, so subtree intervals
// are slices of memory laid out in exactly the order they are read.
// Attribute maps are shared with the source nodes, not copied.
func (d *Document) Compact() {
	d.Renumber() // refresh size before sizing the arena
	arena := make([]Node, d.size)
	slab := make([]*Node, d.size-1) // every node but the root is someone's child
	idx, off := 0, 0
	var build func(src, parent *Node) *Node
	build = func(src, parent *Node) *Node {
		dst := &arena[idx]
		idx++
		dst.Kind = src.Kind
		dst.Label = src.Label
		dst.Data = src.Data
		dst.Attrs = src.Attrs
		dst.Parent = parent
		if nc := len(src.Children); nc > 0 {
			window := slab[off : off : off+nc]
			off += nc
			for _, c := range src.Children {
				window = append(window, build(c, dst))
			}
			dst.Children = window
		}
		return dst
	}
	d.Root = build(d.Root, nil)
	d.Renumber() // number the arena nodes and rebuild byOrd over them
}
