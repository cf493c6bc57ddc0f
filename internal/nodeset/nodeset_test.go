package nodeset

import (
	"math/rand"
	"testing"
)

// refSet is the map-based reference the bitset is pinned against.
type refSet map[int]bool

func (r refSet) sorted() []int {
	out := []int{}
	for i := 0; i < 1<<20; i++ {
		if len(out) == len(r) {
			break
		}
		if r[i] {
			out = append(out, i)
		}
	}
	return out
}

func assertSame(t *testing.T, s *Set, r refSet) {
	t.Helper()
	if s.Count() != len(r) {
		t.Fatalf("Count=%d want %d", s.Count(), len(r))
	}
	got := s.AppendOrds(nil)
	prev := -1
	for _, i := range got {
		if i <= prev {
			t.Fatalf("ForEach not ascending: %d after %d", i, prev)
		}
		if !r[i] {
			t.Fatalf("extra member %d", i)
		}
		prev = i
	}
	if len(got) != len(r) {
		t.Fatalf("missing members: got %d want %d", len(got), len(r))
	}
	for i := range r {
		if !s.Has(i) {
			t.Fatalf("Has(%d)=false for member", i)
		}
	}
}

// TestSetOpsRandomized pins Add/AddRange/Or/And/AndNot against a
// map-based reference over many random op sequences and odd universe
// sizes (word boundaries included).
func TestSetOpsRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	universes := []int{1, 63, 64, 65, 127, 128, 129, 1000, 4096}
	for trial := 0; trial < 300; trial++ {
		n := universes[r.Intn(len(universes))]
		s, ref := Get(n), refSet{}
		other, oref := Get(n), refSet{}
		for op := 0; op < 40; op++ {
			switch r.Intn(6) {
			case 0:
				i := r.Intn(n)
				s.Add(i)
				ref[i] = true
			case 1:
				lo := r.Intn(n)
				hi := lo + r.Intn(n-lo)
				s.AddRange(lo, hi)
				for i := lo; i <= hi; i++ {
					ref[i] = true
				}
			case 2:
				i := r.Intn(n)
				other.Add(i)
				oref[i] = true
			case 3:
				s.Or(other)
				for i := range oref {
					ref[i] = true
				}
			case 4:
				s.And(other)
				for i := range ref {
					if !oref[i] {
						delete(ref, i)
					}
				}
			case 5:
				s.AndNot(other)
				for i := range oref {
					delete(ref, i)
				}
			}
		}
		assertSame(t, s, ref)
		assertSame(t, other, oref)
		if s.Empty() != (len(ref) == 0) {
			t.Fatalf("Empty=%v want %v", s.Empty(), len(ref) == 0)
		}
		Put(s)
		Put(other)
	}
}

// TestAddRangeBoundaries hits the single-word and multi-word fill paths
// at exact word boundaries.
func TestAddRangeBoundaries(t *testing.T) {
	for _, tc := range [][2]int{{0, 0}, {0, 63}, {63, 64}, {64, 127}, {0, 128}, {5, 5}, {62, 130}, {10, 3}} {
		s := newSet(200)
		s.AddRange(tc[0], tc[1])
		for i := 0; i < 200; i++ {
			want := tc[0] <= i && i <= tc[1]
			if s.Has(i) != want {
				t.Fatalf("AddRange(%d,%d): Has(%d)=%v want %v", tc[0], tc[1], i, s.Has(i), want)
			}
		}
	}
}

// TestPoolReuseIsClean verifies a recycled set comes back empty at a
// smaller, equal, and larger universe.
func TestPoolReuseIsClean(t *testing.T) {
	s := Get(512)
	s.AddRange(0, 511)
	Put(s)
	for _, n := range []int{64, 512, 1024} {
		g := Get(n)
		if !g.Empty() || g.Universe() != n {
			t.Fatalf("pooled Get(%d) not clean: empty=%v universe=%d", n, g.Empty(), g.Universe())
		}
		g.Add(n - 1)
		Put(g)
	}
}

// newSet returns an empty, never-pooled set over [0, n).
func newSet(n int) *Set {
	s := &Set{}
	s.Reset(n)
	return s
}

func BenchmarkOrLarge(b *testing.B) {
	s, t2 := newSet(10240), newSet(10240)
	for i := 0; i < 10240; i += 3 {
		t2.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Or(t2)
	}
}
