package xmltree

import "maps"

// Values is a document's value dictionary at one generation: it maps
// each distinct Text() value of the nodes of its built labels to a
// dense int32 id, and holds every node's id in one column indexed by
// ordinal. Two nodes of built labels have equal ids exactly when their
// Text() values are equal; the ids are assigned from an exact string
// map, never from a hash, so a comparison by id is a comparison by
// value. Nodes of labels not yet built carry Unbuilt.
//
// The evaluator tests p = c qualifiers with it: it resolves c to an id
// once (NoValue when no built node carries c) and then compares ints.
// A dictionary is built per label, on first use, because most labels'
// values are never compared; Values and BuildValues publish it
// lock-free, like the label index.
type Values struct {
	gen   uint64
	all   bool                // every node is built
	built map[string]struct{} // labels whose nodes carry their id in col
	ids   map[string]int32
	// col is shared by every version of one generation's dictionary: a
	// build writes only the entries of labels it adds, which no reader
	// of an earlier version covers, and publishes the new version
	// through an atomic store.
	col []int32
}

const (
	// Unbuilt is the column entry of a node whose label has no
	// dictionary yet.
	Unbuilt int32 = -1
	// NoValue is the id of a value no built node carries. It differs
	// from every column entry, Unbuilt included, so it matches nothing.
	NoValue int32 = -2
)

// Values returns the value dictionary of the current generation, or nil
// when no label has one yet. It never builds and never locks.
func (d *Document) Values() *Values {
	if v := d.values.Load(); v != nil && v.gen == d.gen {
		return v
	}
	return nil
}

// Covers reports whether the nodes of every label in labels, or every
// node when all is set, carry their ids. A nil dictionary has built
// nothing.
func (v *Values) Covers(labels []string, all bool) bool {
	if v != nil && v.all {
		return true
	}
	if all {
		return false
	}
	for _, label := range labels {
		if v == nil {
			return false
		}
		if _, ok := v.built[label]; !ok {
			return false
		}
	}
	return true
}

// ID returns the id of a value, or NoValue when no node of a built
// label carries it.
func (v *Values) ID(value string) int32 {
	if v == nil {
		return NoValue
	}
	if id, ok := v.ids[value]; ok {
		return id
	}
	return NoValue
}

// Column returns the id of every node by ordinal (Unbuilt for nodes of
// labels not built). The slice is shared; callers must not mutate it,
// and may read only the entries of the labels Covers reports.
func (v *Values) Column() []int32 {
	if v == nil {
		return nil
	}
	return v.col
}

// BuildValues returns a value dictionary of the current generation that
// covers labels, or every label when all is set, building what the
// published one lacks. Concurrent callers serialize on the document's
// build lock; readers of the published dictionary never wait.
//
// Like every index derived from the node table, the dictionary assumes
// the tree does not change between Renumber calls: an edit to a node's
// Data or children must be followed by Renumber, which starts a new
// generation and drops the dictionary.
func (d *Document) BuildValues(labels []string, all bool) *Values {
	d.valuesMu.Lock()
	defer d.valuesMu.Unlock()
	old := d.Values()
	if old.Covers(labels, all) {
		return old
	}
	v := &Values{gen: d.gen, ids: make(map[string]int32), built: make(map[string]struct{})}
	if old != nil {
		maps.Copy(v.ids, old.ids)
		maps.Copy(v.built, old.built)
		v.col = old.col
	} else {
		v.col = make([]int32, len(d.byOrd))
		for i := range v.col {
			v.col[i] = Unbuilt
		}
	}
	if all {
		for ord := range d.byOrd {
			if v.col[ord] == Unbuilt {
				v.intern(d.byOrd, int32(ord))
			}
		}
		v.all = true
	} else {
		for _, label := range labels {
			if _, ok := v.built[label]; ok {
				continue
			}
			for _, ord := range d.Labeled(label) {
				v.intern(d.byOrd, ord)
			}
			v.built[label] = struct{}{}
		}
	}
	d.values.Store(v)
	return v
}

// intern gives the node at ord the id of its Text() value, assigning
// the next dense id on the value's first sight.
func (v *Values) intern(byOrd []*Node, ord int32) {
	text := byOrd[ord].Text()
	id, ok := v.ids[text]
	if !ok {
		id = int32(len(v.ids))
		v.ids[text] = id
	}
	v.col[ord] = id
}
