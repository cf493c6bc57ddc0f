// Package nodeset provides the ordinal node-set representation the
// evaluator uses as its internal currency: a word-packed bitset over a
// document's preorder ordinal space. Document.Renumber assigns every node a dense preorder ordinal,
// so a set of nodes is a set of small integers, and the set algebra the
// rewritten plans spend their time in collapses to word operations —
// union is word-wise OR, intersection is AND, deduplication is free
// (a bit is either set or not), and document-order iteration is
// ascending bit iteration, because preorder ordinal order IS document
// order. A descendant-or-self step becomes a bit-range fill over the
// subtree interval [ord, ord+desc].
//
// The package is deliberately ignorant of xmltree: it stores ordinals,
// and callers map ordinals back to nodes through the document's node
// table. That keeps it dependency-free and reusable for any dense
// integer universe (the Rec automaton's per-state visited rows, for
// example).
//
// Pooling: Get/Put recycle Sets through a global sync.Pool so
// steady-state evaluation does near-zero set allocation. Ownership is
// strictly caller-tracked — a Set obtained from Get must be Put exactly
// once, and nothing may retain a pooled Set across Put.
package nodeset

import (
	"math/bits"
	"sync"
)

const wordBits = 64

// Set is a bitset over the dense universe [0, N). The zero value is an
// empty set over an empty universe; Reset gives it a universe.
type Set struct {
	words []uint64
	n     int // universe size in bits
}

// Reset re-sizes the set to the universe [0, n) and clears it. Backing
// storage is reused when large enough, so a pooled Set resized to the
// same document allocates nothing.
func (s *Set) Reset(n int) {
	nw := (n + wordBits - 1) / wordBits
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	} else {
		s.words = s.words[:nw]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Add inserts ordinal i. Adding an ordinal outside the universe panics
// via the slice bounds check — ordinals come from the same document the
// universe was sized from, so that is a caller bug, not an input error.
func (s *Set) Add(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Has reports whether ordinal i is in the set.
func (s *Set) Has(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// AddRange inserts every ordinal in the inclusive range [lo, hi] — the
// subtree-interval form of descendant-or-self. It is a no-op when
// lo > hi.
func (s *Set) AddRange(lo, hi int) {
	if lo > hi {
		return
	}
	lw, hw := lo/wordBits, hi/wordBits
	lmask := ^uint64(0) << (uint(lo) % wordBits)
	hmask := ^uint64(0) >> (wordBits - 1 - uint(hi)%wordBits)
	if lw == hw {
		s.words[lw] |= lmask & hmask
		return
	}
	s.words[lw] |= lmask
	for w := lw + 1; w < hw; w++ {
		s.words[w] = ^uint64(0)
	}
	s.words[hw] |= hmask
}

// Or adds every member of t (union). The universes must match in word
// count; sets over the same document always do.
func (s *Set) Or(t *Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// And removes every member not in t (intersection).
func (s *Set) And(t *Set) {
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// AndNot removes every member of t (difference).
func (s *Set) AndNot(t *Set) {
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Count returns the number of members.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every member in ascending (document) order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// ForEachUntil calls f for every member in ascending order until f
// returns false — the early-exit form for loops that can fail
// (cancellation polls, qualifier errors).
func (s *Set) ForEachUntil(f func(i int) bool) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			if !f(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// pool recycles evaluation scratch sets. Reset on Get clears only the
// words the new universe needs, so a pooled Set costs O(universe/64)
// writes and zero allocations in steady state.
var pool = sync.Pool{New: func() any { return &Set{} }}

// Get returns a cleared set over the universe [0, n) from the pool.
// The caller owns it until Put; it must not be retained after.
func Get(n int) *Set {
	s := pool.Get().(*Set)
	s.Reset(n)
	return s
}

// Put returns a set to the pool. The caller must not use s afterwards.
// Put is idempotence-free: putting the same set twice hands it to two
// future Gets at once — ownership tracking is the caller's job (the
// evaluator keeps an owned list and releases each set exactly once).
func Put(s *Set) {
	if s == nil {
		return
	}
	pool.Put(s)
}
