package xmltree

// Values is a document's value dictionary: it maps each distinct Text()
// value of the document's nodes to a dense int32 id, and holds every
// node's id in one column indexed by ordinal. Two nodes have equal ids
// exactly when their Text() values are equal; the ids are assigned from
// an exact string map, never from a hash, so a comparison by id is a
// comparison by value.
//
// The evaluator tests p = c qualifiers with it: it resolves c to an id
// once (NoValue when no node carries c) and then compares ints. The
// dictionary is built with the numbering, like the label index, and
// assumes the tree does not change between Renumber calls: an edit to
// a node's Data or children must be followed by Renumber, which
// rebuilds it.
type Values struct {
	ids map[string]int32
	col []int32
}

// NoValue is the id of a value no node carries. It differs from every
// column entry, so it matches nothing.
const NoValue int32 = -1

// Values returns the document's value dictionary.
func (d *Document) Values() *Values { return &d.values }

// ID returns the id of a value, or NoValue when no node carries it.
func (v *Values) ID(value string) int32 {
	if id, ok := v.ids[value]; ok {
		return id
	}
	return NoValue
}

// Column returns the id of every node by ordinal. The slice is shared;
// callers must not mutate it.
func (v *Values) Column() []int32 { return v.col }

// build replaces the dictionary with one over byOrd, giving each
// distinct Text() value the next dense id on its first sight.
func (v *Values) build(byOrd []*Node) {
	v.ids = make(map[string]int32)
	v.col = make([]int32, len(byOrd))
	for ord, n := range byOrd {
		text := n.Text()
		id, ok := v.ids[text]
		if !ok {
			id = int32(len(v.ids))
			v.ids[text] = id
		}
		v.col[ord] = id
	}
}
