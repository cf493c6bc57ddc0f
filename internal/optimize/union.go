package optimize

import (
	"repro/internal/typedp"
	"repro/internal/xpath"
)

// unionPass applies case (6) of Algorithm optimize to a union and every
// union nested in it, in one pass over the flattened branch list.
//
// The image of a union is its branches' images merged at the shared
// root occurrence (build's Union case), so the image of any union
// subtree — a contiguous range of branches — is composed from images
// built once per branch. Applying the rule at each union node by
// rebuilding image(Left) and image(Right) instead would rebuild branch j
// of a left-deep k-branch union k−j+1 times. The decisions, and the
// order they are taken in, are those of the nested rule: at each union
// node, Left ⊑ Right keeps only Right, else Right ⊑ Left keeps only
// Left, else both are kept.
type unionPass struct {
	o        *Optimizer
	a        string
	branches []branchImage
	// mids holds, per union node in preorder, the index of the first
	// branch of its right operand.
	mids  []int
	roots []*inode // scratch for image
}

// branchImage is one branch's image, built and pruned once.
type branchImage struct {
	root     *inode // nil when the build found the branch empty
	live     bool   // root reaches a frontier occurrence
	size     int
	overflow bool
}

// newUnionPass flattens p and builds each branch's image at a. It
// reuses a pass that release gave back, with its arrays.
func (o *Optimizer) newUnionPass(p xpath.Union, a string) *unionPass {
	var u *unionPass
	if n := len(o.passes); n > 0 {
		u, o.passes = o.passes[n-1], o.passes[:n-1]
		u.branches, u.mids = u.branches[:0], u.mids[:0]
	} else {
		u = &unionPass{o: o}
	}
	u.a = a
	u.flatten(p)
	return u
}

// release gives the pass back to its optimizer once decide is done.
func (u *unionPass) release() {
	u.o.passes = append(u.o.passes, u)
}

func (u *unionPass) flatten(p xpath.Path) {
	if un, ok := p.(xpath.Union); ok {
		i := len(u.mids)
		u.mids = append(u.mids, 0)
		u.flatten(un.Left)
		u.mids[i] = len(u.branches)
		u.flatten(un.Right)
		return
	}
	b := builder{o: u.o}
	root := b.build(p, u.a)
	bi := branchImage{size: b.size, overflow: b.overflow}
	if !b.overflow && root != nil {
		bi.root, bi.live = root, u.o.nodes.pruneDead(root)
	}
	u.branches = append(u.branches, bi)
}

// decide optimizes the union subtree p, the union node numbered node in
// preorder (when p is a union), which covers branches [lo, hi).
func (u *unionPass) decide(p xpath.Path, node, lo, hi int) typedp.Cell {
	un, ok := p.(xpath.Union)
	if !ok {
		return u.o.dp.Cell(p, u.a)
	}
	// A binary tree over n branches has n−1 union nodes, so the right
	// operand's preorder number follows the left operand's mid−lo−1.
	mid := u.mids[node]
	left, right := node+1, node+mid-lo
	g1, ok1 := u.image(lo, mid)
	g2, ok2 := u.image(mid, hi)
	if ok1 && ok2 {
		if u.o.simulate(g1, g2) {
			u.o.rules++
			u.o.pruned++
			return u.decide(un.Right, right, mid, hi)
		}
		if u.o.simulate(g2, g1) {
			u.o.rules++
			u.o.pruned++
			return u.decide(un.Left, left, lo, mid)
		}
	}
	return typedp.Union(u.decide(un.Left, left, lo, mid), u.decide(un.Right, right, mid, hi))
}

// image is image(b_lo ∪ … ∪ b_hi−1, a), with the same contract as
// Optimizer.image: ok is false when building the range at once would
// overflow imageBudget, and a nil graph means the range selects nothing.
// Like build's Union case, it returns a lone branch's root as is and
// merges several into a fresh root (mergeRoots), so the shared branch
// images are never mutated. A branch whose root is dead still brings its
// qualifiers to the merged root, as it does when the range is built at
// once.
func (u *unionPass) image(lo, hi int) (*inode, bool) {
	size := 0
	for _, b := range u.branches[lo:hi] {
		if b.overflow {
			return nil, false
		}
		size += b.size
	}
	if size > imageBudget {
		return nil, false
	}
	u.roots = u.roots[:0]
	live := false
	for _, b := range u.branches[lo:hi] {
		if b.root != nil {
			u.roots = append(u.roots, b.root)
			live = live || b.live
		}
	}
	switch {
	case !live:
		return nil, true
	case len(u.roots) == 1:
		return u.roots[0], true
	}
	return u.o.nodes.mergeRoots(u.a, u.roots...), true
}
