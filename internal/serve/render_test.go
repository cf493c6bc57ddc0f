package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// discardWriter is a ResponseWriter that keeps its header map and drops
// the body, so an allocation count sees writeResult's own allocations.
type discardWriter struct {
	h     http.Header
	bytes int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { w.bytes += len(b); return len(b), nil }

// largeDescendDoc is a hospital document shaped like the serving
// benchmark's large-descend document: depts departments, each with two
// clinical-trial patients, four regular-ward patients and three staff,
// about 80 nodes per department.
func largeDescendDoc(depts int) *xmltree.Document {
	E, T := xmltree.E, xmltree.T
	patient := func(i int) *xmltree.Node {
		var treatment *xmltree.Node
		if i%2 == 0 {
			treatment = E("trial", T("bill", fmt.Sprintf("b%05d", i)))
		} else {
			treatment = E("regular", T("bill", fmt.Sprintf("b%05d", i)), T("medication", fmt.Sprintf("m%05d", i)))
		}
		return E("patient", T("name", fmt.Sprintf("p%05d", i)), T("wardNo", strconv.Itoa(i%16+1)), E("treatment", treatment))
	}
	root := E("hospital")
	for d := 0; d < depts; d++ {
		trial, info, staff := E("patientInfo"), E("patientInfo"), E("staffInfo")
		for i := 0; i < 2; i++ {
			trial.AppendChild(patient(6*d + i))
		}
		for i := 2; i < 6; i++ {
			info.AppendChild(patient(6*d + i))
		}
		for i, role := range []string{"doctor", "nurse", "doctor"} {
			staff.AppendChild(E("staff", E(role, T("name", fmt.Sprintf("s%05d", 3*d+i)))))
		}
		root.AppendChild(E("dept", E("clinicalTrial", trial), info, staff))
	}
	return xmltree.NewDocument(root)
}

// TestWriteResultBytes: the body is the <result count="N"> envelope
// around each answer's Node.String, which the xmltree differential test
// holds byte-identical to the reference writer.
func TestWriteResultBytes(t *testing.T) {
	doc := largeDescendDoc(3)
	for _, q := range []string{"//dept//treatment//bill", "//patient", "//name/text()", "//nothing"} {
		nodes := xpath.EvalDoc(xpath.MustParse(q), doc)
		want := fmt.Sprintf("<result count=\"%d\">\n", len(nodes))
		for _, n := range nodes {
			want += n.String()
		}
		want += "</result>\n"
		for i := 0; i < 2; i++ { // the second run reuses a pooled buffer
			w := httptest.NewRecorder()
			writeResult(w, nodes)
			if got := w.Body.String(); got != want {
				t.Fatalf("%s: body differs:\n%s\nvs\n%s", q, got, want)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/xml; charset=utf-8" {
				t.Fatalf("%s: Content-Type %q", q, ct)
			}
		}
	}
}

// TestWriteResultAllocs: writing an element-only answer allocates the
// same small number of objects for 10 nodes as for 1,000: the envelope
// and every answer go into one pooled buffer. An answer with text
// nodes still allocates per text node, in xmltree's escapeText (its
// per-call strings.NewReplacer), which this change leaves as it is.
func TestWriteResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers, so allocation counts vary")
	}
	answer := func(n int) []*xmltree.Node {
		root := xmltree.E("r")
		for i := 0; i < n; i++ {
			root.AppendChild(xmltree.E("bill", xmltree.E("paid")))
		}
		return xmltree.NewDocument(root).Root.Children
	}
	w := &discardWriter{h: http.Header{}}
	small, large := answer(10), answer(1000)
	a10 := testing.AllocsPerRun(20, func() { writeResult(w, small) })
	a1000 := testing.AllocsPerRun(20, func() { writeResult(w, large) })
	if a1000 > a10 || a10 > 2 {
		t.Errorf("writeResult allocs: %v for 10 nodes, %v for 1,000; want the same small count", a10, a1000)
	}
}

// BenchmarkWriteResult writes large-descend-shaped answers
// (//dept//treatment//bill on a 128-department hospital document) the
// way /query does.
func BenchmarkWriteResult(b *testing.B) {
	doc := largeDescendDoc(128)
	nodes := xpath.EvalDoc(xpath.MustParse("//dept//treatment//bill"), doc)
	if len(nodes) != 6*128 {
		b.Fatalf("%d answers, want %d", len(nodes), 6*128)
	}
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.bytes = 0
		writeResult(w, nodes)
	}
	b.SetBytes(int64(w.bytes))
}
