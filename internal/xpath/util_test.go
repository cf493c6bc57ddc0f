package xpath

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSize(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{".", 1},
		{"a/b", 3},
		{"//a", 2},
		{"a | b", 3},
		{"a[b]", 4}, // Qualified + Label a + QPath + Label b
	}
	for _, tc := range cases {
		if got := Size(MustParse(tc.src)); got != tc.want {
			t.Errorf("Size(%q) = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestSubqueriesAscending(t *testing.T) {
	p := MustParse("a[b]/(c | d)")
	subs := Subqueries(p)
	if subs[len(subs)-1] != p {
		t.Errorf("last subquery is not p itself")
	}
	// Every sub-query must appear before any query containing it.
	index := make(map[Path]int)
	for i, s := range subs {
		index[s] = i
	}
	for i, s := range subs {
		switch s := s.(type) {
		case Seq:
			if index[s.Left] >= i || index[s.Right] >= i {
				t.Errorf("Seq children after parent at %d", i)
			}
		case Union:
			if index[s.Left] >= i || index[s.Right] >= i {
				t.Errorf("Union children after parent at %d", i)
			}
		case Qualified:
			if index[s.Sub] >= i {
				t.Errorf("Qualified child after parent at %d", i)
			}
		}
	}
	// a, b (inside qualifier), a[b], c, d, c|d, whole: 7 entries.
	if len(subs) != 7 {
		t.Errorf("Subqueries returned %d entries, want 7: %v", len(subs), subs)
	}
}

func TestLabels(t *testing.T) {
	p := MustParse("a[b = \"1\" and //c]/a/d")
	if got := Labels(p); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Errorf("Labels = %v", got)
	}
}

func TestEqualDisequal(t *testing.T) {
	pairs := [][2]string{
		{"a/b", "a/c"},
		{"a", "//a"},
		{"a[b]", "a[c]"},
		{"a | b", "b | a"},
		{".", "*"},
		{"a[b = \"1\"]", "a[b = \"2\"]"},
	}
	for _, pr := range pairs {
		if Equal(MustParse(pr[0]), MustParse(pr[1])) {
			t.Errorf("Equal(%q, %q) = true", pr[0], pr[1])
		}
	}
	if !Equal(MustParse("a[b and c]/d"), MustParse("a[b and c]/d")) {
		t.Errorf("identical queries not equal")
	}
}

func TestSimplify(t *testing.T) {
	cases := []struct {
		in   Path
		want string
	}{
		{MakeUnion(Empty{}, L("a")), "a"},
		{Seq{Left: L("a"), Right: Empty{}}, "∅"},
		{Seq{Left: Self{}, Right: L("a")}, "a"},
		{Union{Left: L("a"), Right: L("a")}, "a"},
		{Descend{Sub: Empty{}}, "∅"},
		{Qualified{Sub: L("a"), Cond: QTrue{}}, "a"},
		{Qualified{Sub: L("a"), Cond: QFalse{}}, "∅"},
		{Qualified{Sub: L("a"), Cond: QNot{Sub: QNot{Sub: QPath{Path: L("b")}}}}, "a[b]"},
		{Qualified{Sub: L("a"), Cond: QPath{Path: Empty{}}}, "∅"},
		{Qualified{Sub: L("a"), Cond: QAnd{Left: QTrue{}, Right: QPath{Path: L("b")}}}, "a[b]"},
		{Qualified{Sub: L("a"), Cond: QOr{Left: QTrue{}, Right: QPath{Path: L("b")}}}, "a"},
		{Qualified{Sub: L("a"), Cond: QAnd{Left: QFalse{}, Right: QPath{Path: L("b")}}}, "∅"},
		{Qualified{Sub: L("a"), Cond: QPath{Path: Self{}}}, "a"},
		{Seq{Left: Union{Left: Empty{}, Right: L("a")}, Right: Qualified{Sub: L("b"), Cond: QTrue{}}}, "a/b"},
	}
	for _, tc := range cases {
		if got := String(Simplify(tc.in)); got != tc.want {
			t.Errorf("Simplify(%s) = %q, want %q", String(tc.in), got, tc.want)
		}
	}
}

// TestSimplifyPreservesSemantics: Simplify must not change evaluation
// results on a sample document, for random queries over its labels.
func TestSimplifyPreservesSemantics(t *testing.T) {
	doc := hospitalDoc()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randHospitalPath(r, 3)
		before := EvalDoc(p, doc)
		after := EvalDoc(Simplify(p), doc)
		if len(before) != len(after) {
			t.Logf("seed %d: %s -> %s: %d vs %d nodes", seed, String(p), String(Simplify(p)), len(before), len(after))
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randHospitalPath builds random queries over hospital labels, including
// ∅ and constant qualifiers so the simplification laws are exercised.
func randHospitalPath(r *rand.Rand, depth int) Path {
	names := []string{"hospital", "dept", "patientInfo", "patient", "name", "wardNo", "treatment", "regular", "trial", "bill", "staffInfo"}
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return Self{}
		case 1:
			return Wildcard{}
		case 2:
			return Empty{}
		default:
			return Label{Name: names[r.Intn(len(names))]}
		}
	}
	switch r.Intn(7) {
	case 0:
		return Seq{Left: randHospitalPath(r, depth-1), Right: randHospitalPath(r, depth-1)}
	case 1:
		return Descend{Sub: randHospitalPath(r, depth-1)}
	case 2, 3:
		return Union{Left: randHospitalPath(r, depth-1), Right: randHospitalPath(r, depth-1)}
	case 4:
		var q Qual
		switch r.Intn(4) {
		case 0:
			q = QTrue{}
		case 1:
			q = QFalse{}
		case 2:
			q = QPath{Path: randHospitalPath(r, depth-1)}
		default:
			q = QNot{Sub: QPath{Path: randHospitalPath(r, depth-1)}}
		}
		return Qualified{Sub: randHospitalPath(r, depth-1), Cond: q}
	default:
		return randHospitalPath(r, 0)
	}
}

func TestInCMinus(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"//a/*/b", true},
		{"(a | b)/c", true},
		{"a[b and c]", true},
		{"a[b//c]", true},
		{"a[b or c]", false},
		{"a[not(b)]", false},
		{"a[b = \"1\"]", false},
		{"a[.[b and c]]", true},
	}
	for _, tc := range cases {
		if got := InCMinus(MustParse(tc.src)); got != tc.want {
			t.Errorf("InCMinus(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestMakeHelpers(t *testing.T) {
	if got := String(MakeSeq(MakeSeq(Self{}, L("a")), MakeSeq(L("b"), L("c")))); got != "a/b/c" {
		t.Errorf("MakeSeq = %q", got)
	}
	if got := String(MakeUnion(Empty{}, Empty{})); got != "∅" {
		t.Errorf("MakeUnion(∅, ∅) = %q", got)
	}
	if got := String(MakeUnion(MakeUnion(L("a"), Empty{}), L("b"))); got != "a | b" {
		t.Errorf("MakeUnion = %q", got)
	}
	if got := String(MakeDescend(L("a"))); got != "//a" {
		t.Errorf("MakeDescend = %q", got)
	}
	if q := MakeNot(MakeNot(QPath{Path: L("a")})); !QualEqual(q, QPath{Path: L("a")}) {
		t.Errorf("double negation not eliminated")
	}
}
