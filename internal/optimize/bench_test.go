package optimize

import (
	"fmt"
	"testing"

	"repro/internal/dtds"
	"repro/internal/xpath"
)

// unionSuffixes are the continuations the rewriter puts after the σ
// guard of a dept branch under the nurse policy.
var unionSuffixes = []string{
	"(clinicalTrial | .)/patientInfo/patient/treatment/regular/bill",
	"staffInfo/staff/doctor",
	"(clinicalTrial | .)/patientInfo/patient/treatment/trial",
	"(clinicalTrial | .)/patientInfo/patient/treatment/regular/medication",
	"(staffInfo/staff/doctor/name | (clinicalTrial | .)/patientInfo/patient/name)",
	"staffInfo/staff/nurse",
	"(clinicalTrial | .)/patientInfo/patient",
	"(clinicalTrial | .)/patientInfo",
}

// guardedUnion is a left-deep union of k σ-guarded dept branches over
// the hospital DTD, the shape the rewriter emits for //dept[…]//*. Each
// branch has its own ward constant, so no branch contains another and
// the union rule runs its containment test at every level.
func guardedUnion(k int) xpath.Path {
	var p xpath.Path = xpath.Empty{}
	for i := 0; i < k; i++ {
		p = xpath.MakeUnion(p, xpath.MustParse(fmt.Sprintf(
			`dept[*/patient/wardNo = "%d"]/%s`, i, unionSuffixes[i%len(unionSuffixes)])))
	}
	return p
}

// BenchmarkOptimizeUnion optimizes guardedUnion(k) with a fresh
// Optimizer per operation, as a plan-cache miss on a new engine does.
// ns/branch should stay about flat as k grows.
func BenchmarkOptimizeUnion(b *testing.B) {
	d := dtds.Hospital()
	for _, k := range []int{2, 4, 8, 16, 32} {
		p := guardedUnion(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(d).Optimize(p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/branch")
		})
	}
}
