package xmltree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomTree builds a random multi-level tree with text leaves and a
// few attributes, returning the un-compacted document.
func randomTree(seed int64, n int) *Document {
	r := rand.New(rand.NewSource(seed))
	root := NewElement("root")
	nodes := []*Node{root}
	for i := 0; i < n; i++ {
		parent := nodes[r.Intn(len(nodes))]
		if r.Intn(5) == 0 {
			parent.AppendChild(NewText(fmt.Sprintf("t%d", i)))
			continue
		}
		c := NewElement(fmt.Sprintf("e%d", r.Intn(7)))
		if r.Intn(3) == 0 {
			c.SetAttr("id", fmt.Sprintf("%d", i))
		}
		parent.AppendChild(c)
		nodes = append(nodes, c)
	}
	return NewDocument(root)
}

func TestCompactPreservesDocument(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		orig := randomTree(seed, 300)
		before := orig.Root.String()
		size, height := orig.Size(), orig.Height()

		doc := randomTree(seed, 300) // identical fresh copy to compact
		doc.Compact()
		if !doc.Compacted() {
			t.Fatalf("seed %d: Compacted() = false after Compact", seed)
		}
		if doc.Root.String() != before {
			t.Fatalf("seed %d: serialized form changed after Compact", seed)
		}
		if doc.Size() != size || doc.Height() != height {
			t.Fatalf("seed %d: size/height %d/%d, want %d/%d", seed, doc.Size(), doc.Height(), size, height)
		}
		// The node table is the arena in document order.
		nodes := doc.Nodes()
		if len(nodes) != size {
			t.Fatalf("seed %d: Nodes() has %d entries, want %d", seed, len(nodes), size)
		}
		for i, n := range nodes {
			if n.Ord() != i {
				t.Fatalf("seed %d: Nodes()[%d].Ord() = %d", seed, i, n.Ord())
			}
			if n.Owner() != doc {
				t.Fatalf("seed %d: node %d has wrong owner", seed, i)
			}
			for _, c := range n.Children {
				if c.Parent != n {
					t.Fatalf("seed %d: child of node %d has wrong parent", seed, i)
				}
			}
		}
	}
}

func TestSubtreeMatchesWalk(t *testing.T) {
	doc := randomTree(42, 200)
	doc.Compact()
	for _, n := range doc.Nodes() {
		var walked []*Node
		n.Walk(func(m *Node) bool { walked = append(walked, m); return true })
		sub := n.Subtree()
		if len(sub) != len(walked) {
			t.Fatalf("node %d: Subtree has %d nodes, walk %d", n.Ord(), len(sub), len(walked))
		}
		for i := range walked {
			if sub[i] != walked[i] {
				t.Fatalf("node %d: Subtree[%d] differs from walk", n.Ord(), i)
			}
		}
	}
}

func TestSubtreeStaleAfterDetach(t *testing.T) {
	doc := randomTree(7, 50)
	inner := doc.Root.Children[0]
	// Detach the first child's subtree into its own document: the new
	// Renumber claims those nodes, so their old-document intervals are
	// gone while doc's own byOrd still holds stale entries.
	other := &Document{Root: inner}
	other.Renumber()
	if inner.Owner() != other {
		t.Fatalf("detached root not owned by new document")
	}
	if got := doc.Root.Subtree(); got != nil {
		// Root's slot in doc.byOrd is still doc.Root, so its Subtree is
		// still served — but it now contains nodes owned elsewhere. That
		// is the documented Renumber staleness contract, not a bug;
		// Renumber the mutated document before trusting intervals.
		_ = got
	}
	doc.Renumber()
	if doc.Root.Subtree() == nil {
		t.Fatalf("Subtree nil after Renumber")
	}
}

// TestIsAncestorOfAgreement pins the interval fast path to the
// parent-chain walk on every node pair, compacted and not.
func TestIsAncestorOfAgreement(t *testing.T) {
	for _, compact := range []bool{false, true} {
		doc := randomTree(99, 150)
		if compact {
			doc.Compact()
		}
		nodes := doc.Nodes()
		for _, a := range nodes {
			for _, b := range nodes {
				fast := a.IsAncestorOf(b)
				slow := a.isAncestorOfWalk(b)
				if fast != slow {
					t.Fatalf("compact=%v: IsAncestorOf(%d, %d) = %v, walk says %v",
						compact, a.Ord(), b.Ord(), fast, slow)
				}
			}
		}
	}
}

// TestIsAncestorOfUnnumbered: hand-built trees without a document still
// answer via the walk fallback.
func TestIsAncestorOfUnnumbered(t *testing.T) {
	a := NewElement("a")
	b := NewElement("b")
	c := NewElement("c")
	a.AppendChild(b)
	b.AppendChild(c)
	if !a.IsAncestorOf(c) || !a.IsAncestorOf(b) || !b.IsAncestorOf(c) {
		t.Fatalf("ancestor chain broken on unnumbered tree")
	}
	if b.IsAncestorOf(a) || c.IsAncestorOf(a) || a.IsAncestorOf(a) {
		t.Fatalf("non-ancestor reported as ancestor on unnumbered tree")
	}
}

// TestIsAncestorOfAcrossDocuments: nodes of different documents are
// never ancestors, whichever path answers.
func TestIsAncestorOfAcrossDocuments(t *testing.T) {
	d1 := randomTree(1, 30)
	d2 := randomTree(1, 30)
	d1.Compact()
	d2.Compact()
	if d1.Root.IsAncestorOf(d2.Root.Children[0]) {
		t.Fatalf("cross-document ancestor")
	}
}

func TestHeightCachedAndRefreshed(t *testing.T) {
	doc := MustParseString("<a><b><c/></b></a>")
	if doc.Height() != 2 {
		t.Fatalf("Height = %d, want 2", doc.Height())
	}
	// Deepen the tree; the cache is stale until Renumber, per contract.
	var c *Node
	doc.Root.Walk(func(n *Node) bool {
		if n.Label == "c" {
			c = n
		}
		return true
	})
	c.AppendChild(NewElement("d"))
	doc.Renumber()
	if doc.Height() != 3 {
		t.Fatalf("Height after Renumber = %d, want 3", doc.Height())
	}
	if doc.Size() != 4 {
		t.Fatalf("Size after Renumber = %d, want 4", doc.Size())
	}
}

func TestCompactSingleNode(t *testing.T) {
	doc := NewDocument(NewElement("only"))
	doc.Compact()
	if doc.Size() != 1 || doc.Root.Label != "only" || len(doc.Nodes()) != 1 {
		t.Fatalf("single-node compact broken: size=%d", doc.Size())
	}
	if got := doc.Root.Subtree(); len(got) != 1 || got[0] != doc.Root {
		t.Fatalf("single-node Subtree = %v", got)
	}
}

// TestLabeledPostingLists: each posting list holds exactly the label's
// nodes in document order, with no capacity beyond its length, and
// repeated calls return the same lists rather than a rebuild.
func TestLabeledPostingLists(t *testing.T) {
	for _, compact := range []bool{false, true} {
		doc := randomTree(5, 200)
		if compact {
			doc.Compact()
		}
		want := map[string][]*Node{}
		for _, n := range doc.Nodes() {
			want[n.Label] = append(want[n.Label], n)
		}
		for label, nodes := range want {
			got := doc.Labeled(label)
			if !reflect.DeepEqual(got, nodes) {
				t.Fatalf("compact=%v: Labeled(%s) = %d nodes, want %d", compact, label, len(got), len(nodes))
			}
			if cap(got) != len(got) {
				t.Errorf("compact=%v: Labeled(%s) has cap %d for %d nodes", compact, label, cap(got), len(got))
			}
			if &doc.Labeled(label)[0] != &got[0] {
				t.Errorf("compact=%v: Labeled(%s) rebuilt within one generation", compact, label)
			}
		}
		if got := doc.Labeled("nosuch"); got != nil {
			t.Errorf("Labeled(nosuch) = %v", got)
		}
	}
}

// TestLabeledConcurrentFirstUse: goroutines released together at a
// fresh document's first Labeled call all get the same, single build.
func TestLabeledConcurrentFirstUse(t *testing.T) {
	for round := int64(0); round < 10; round++ {
		doc := randomTree(round, 5000)
		doc.Compact()
		const workers = 8
		got := make([]**Node, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i] = &doc.Labeled("root")[0]
			}(i)
		}
		close(start)
		wg.Wait()
		for i := range got {
			if got[i] != got[0] {
				t.Fatalf("round %d: worker %d saw a second build of the label index", round, i)
			}
		}
	}
}

// TestLabeledFollowsRenumber: the label index is keyed by generation,
// so a node appended and renumbered in shows up in the next Labeled
// call with no other invalidation step.
func TestLabeledFollowsRenumber(t *testing.T) {
	doc := sampleDoc()
	before := doc.Labeled("patient")
	if len(before) != 2 {
		t.Fatalf("Labeled(patient) = %d nodes, want 2", len(before))
	}
	added := E("patient", T("name", "Carol"))
	doc.Root.Children[0].Children[0].AppendChild(added)
	doc.Renumber()
	after := doc.Labeled("patient")
	if len(after) != 3 || after[2] != added {
		t.Fatalf("after Renumber: Labeled(patient) = %d nodes, last %v", len(after), after[len(after)-1].Path())
	}
}
