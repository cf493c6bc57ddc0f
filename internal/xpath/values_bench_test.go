package xpath

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// guardBenchDoc writes a hospital document of the perfbench churn
// workload's shape: depts departments, each with 2 clinical-trial and 4
// regular patients, wards dealt round-robin over 1..wards to each kind.
func guardBenchDoc(depts, wards int) *xmltree.Document {
	var b strings.Builder
	patients := func(n, first int) {
		for i := 0; i < n; i++ {
			ward := (first+i)%wards + 1
			fmt.Fprintf(&b, "<patient><name>p%05d</name><wardNo>%d</wardNo><treatment><regular><bill>b%d</bill><medication>m%d</medication></regular></treatment></patient>", ward*7, ward, ward, ward)
		}
	}
	b.WriteString("<hospital>")
	for d := 0; d < depts; d++ {
		b.WriteString("<dept><clinicalTrial><patientInfo>")
		patients(2, d*2)
		b.WriteString("</patientInfo></clinicalTrial><patientInfo>")
		patients(4, d*4)
		b.WriteString("</patientInfo><staffInfo>")
		for s := 0; s < 3; s++ {
			fmt.Fprintf(&b, "<staff><nurse><name>s%05d</name></nurse></staff>", d*3+s)
		}
		b.WriteString("</staffInfo></dept>")
	}
	b.WriteString("</hospital>")
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		panic(err)
	}
	return doc
}

// BenchmarkSigmaGuard evaluates the nurse policy's dept guard, the σ
// qualifier every rewritten churn plan repeats, over a 64-dept
// churn-shaped document, cycling $wardNo through 500 wards as the churn
// bindings do. Its ns/op and allocs/op track the p = c comparison path
// (value ids, see xmltree.Values); `make bench-smoke` runs it.
func BenchmarkSigmaGuard(b *testing.B) {
	doc := guardBenchDoc(64, 500)
	guard := MustParse("dept[patientInfo/patient/wardNo = $wardNo]")
	envs := make([]Env, 500)
	for i := range envs {
		envs[i] = Env{Params: map[string]string{"wardNo": fmt.Sprint(i + 1)}}
	}
	// Wards 1..256 hold the 256 regular patients: one dept each, four
	// wards per dept.
	if out, _, err := Evaluate(context.Background(), guard, []*xmltree.Node{doc.Root}, envs[0]); err != nil || len(out) != 1 {
		b.Fatalf("ward 1 guard: %d depts, %v", len(out), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := Evaluate(context.Background(), guard, []*xmltree.Node{doc.Root}, envs[i%len(envs)])
		if err != nil {
			b.Fatal(err)
		}
		guardSink = out
	}
}

// guardSink keeps BenchmarkSigmaGuard's result live.
var guardSink []*xmltree.Node
