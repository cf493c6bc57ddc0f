package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
)

// pair is one request: a ward binding and a query, both as indexes into
// the workload's tables.
type pair struct {
	ward, query int32
}

// docShape fixes the hospital document a workload serves. Every count
// is exact, so the document size does not depend on the seed; the seed
// only permutes wards, treatments and staff roles inside each
// department and draws the text values.
type docShape struct {
	Depts         int `json:"depts"`
	TrialPatients int `json:"trial_patients_per_dept"`
	Patients      int `json:"patients_per_dept"`
	Staff         int `json:"staff_per_dept"`
	// Wards is the number of distinct wardNo values (see genDocXML).
	Wards int `json:"wards"`
}

// mixEntry is one weighted request shape of a fixed mix. A query may
// contain {ward}, replaced by the request's bound ward.
type mixEntry struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
	Query  string `json:"query"`
}

// workload is one traffic mix the benchmark can run.
type workload struct {
	Name string   `json:"name"`
	Why  string   `json:"why"`
	Doc  docShape `json:"doc"`
	// Bindings is how many wards requests bind (wards 1..Bindings).
	Bindings int `json:"bindings"`
	// Mix is the fixed query mix; empty means the churn query space.
	Mix []mixEntry `json:"mix,omitempty"`
	// OpenLoopRPS is the fixed arrival rate of the traced run's open loop.
	OpenLoopRPS float64 `json:"open_loop_rps"`
	// WarmPairs, when positive, is the number of seeded requests issued
	// at set-up instead of every (binding, query) pair of the mix.
	WarmPairs int `json:"warm_pairs,omitempty"`
	// VerifyWards, when positive, is the size of the seeded sample of
	// wards whose answers are verified; 0 verifies every answer.
	VerifyWards int `json:"verify_wards,omitempty"`
}

// nurseClass is the user class every workload queries as.
const nurseClass = "nurse"

// nurseAnnotations is the nurse policy of the paper's Example 3.1.
const nurseAnnotations = `
ann(hospital, dept) = [*/patient/wardNo = $wardNo]
ann(dept, clinicalTrial) = N
ann(clinicalTrial, patientInfo) = Y
ann(treatment, trial) = N
ann(treatment, regular) = N
ann(trial, bill) = Y
ann(regular, bill) = Y
ann(regular, medication) = Y
`

var workloads = []workload{
	{
		Name:        "hot-small",
		Why:         "~300-node document, 3 wards, cheap/descend/qual mix: every cache hits, so the fixed per-request cost (serve, parse, lookups, serialization) dominates",
		Doc:         docShape{Depts: 4, TrialPatients: 2, Patients: 4, Staff: 3, Wards: 3},
		Bindings:    3,
		OpenLoopRPS: 1000,
		Mix: []mixEntry{
			{Name: "cheap", Weight: 4, Query: "//patient/name"},
			{Name: "descend", Weight: 2, Query: "//dept//treatment//bill"},
			{Name: "qual", Weight: 1, Query: `//patient[wardNo = "{ward}" and treatment//bill]/name | //staff[not(doctor)]/nurse/name`},
		},
	},
	{
		Name:        "large-descend",
		Why:         "~10k-node document, descendant queries with large answers: indexed evaluation and serialization of big results dominate, all caches warm",
		Doc:         docShape{Depts: 128, TrialPatients: 2, Patients: 4, Staff: 3, Wards: 16},
		Bindings:    3,
		OpenLoopRPS: 60,
		Mix: []mixEntry{
			{Name: "descend", Weight: 4, Query: "//dept//treatment//bill"},
			{Name: "deep-text", Weight: 2, Query: "//dept//patientInfo//name/text()"},
			{Name: "patients", Weight: 1, Query: "//patient"},
			{Name: "qual-descend", Weight: 2, Query: "//dept[.//dummy2]//medication"},
			{Name: "staff", Weight: 1, Query: "//staffInfo//name"},
		},
	},
	// In churn, wards 1..256 hold the 256 patientInfo patients, so about
	// half the bindings see an empty view.
	{
		Name:        "churn",
		Why:         "500 wards and a ~2.8k-query space overflow the 128-engine and 512-plan caches: derivation, per-engine index builds, rewrite and optimize dominate",
		Doc:         docShape{Depts: 64, TrialPatients: 2, Patients: 4, Staff: 3, Wards: 500},
		Bindings:    500,
		OpenLoopRPS: 100,
		WarmPairs:   256,
		VerifyWards: 12,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// viewLabels are the element types of the nurse view DTD.
var viewLabels = []string{
	"hospital", "dept", "patientInfo", "patient", "name", "wardNo", "treatment",
	"dummy1", "dummy2", "bill", "medication", "staffInfo", "staff", "doctor", "nurse",
}

// churnQueries enumerates the churn workload's query space: //* and
// wildcard steps with and without qualifiers, label pairs, and
// ward-specific qualifiers. It is fixed; the seed only draws from it.
func churnQueries(wards int) []string {
	qs := []string{"//*"}
	for _, l := range viewLabels {
		qs = append(qs,
			"//*["+l+"]", "//*[not("+l+")]", "//*[.//"+l+"]",
			"//"+l+"//*", "//"+l+"/*", "//*/"+l)
	}
	for _, a := range viewLabels {
		for _, b := range viewLabels {
			qs = append(qs, "//"+a+"/"+b, "//"+a+"["+b+"]", "//"+a+"//"+b)
		}
	}
	for w := 1; w <= wards; w++ {
		for _, l := range []string{"name", "treatment", "wardNo"} {
			qs = append(qs, fmt.Sprintf(`//patient[wardNo = "%d"]/%s`, w, l))
		}
		qs = append(qs, fmt.Sprintf(`//dept[*/patient/wardNo = "%d"]//*`, w))
	}
	return qs
}

// plan is a workload expanded into request tables: the ward values, the
// query texts, and a seeded request stream over them.
type plan struct {
	w       *workload
	wards   []string
	queries []string
	// raw[w][q] would be large for churn, so the URL query string is
	// assembled per request from these escaped parts.
	escWards   []string
	escQueries []string
	// entries and cum are the weighted (ward, query) pairs of a fixed
	// mix; empty for churn, whose pairs are uniform over wards×queries.
	entries []pair
	cum     []int
}

func newPlan(w *workload) *plan {
	p := &plan{w: w}
	for i := 1; i <= w.Bindings; i++ {
		p.wards = append(p.wards, fmt.Sprint(i))
	}
	if len(w.Mix) == 0 {
		p.queries = churnQueries(w.Doc.Wards)
	} else {
		index := map[string]int32{}
		total := 0
		for wi, ward := range p.wards {
			for _, e := range w.Mix {
				q := strings.ReplaceAll(e.Query, "{ward}", ward)
				qi, ok := index[q]
				if !ok {
					qi = int32(len(p.queries))
					index[q] = qi
					p.queries = append(p.queries, q)
				}
				total += e.Weight
				p.entries = append(p.entries, pair{ward: int32(wi), query: qi})
				p.cum = append(p.cum, total)
			}
		}
	}
	for _, ward := range p.wards {
		p.escWards = append(p.escWards, url.QueryEscape("wardNo="+ward))
	}
	for _, q := range p.queries {
		p.escQueries = append(p.escQueries, url.QueryEscape(q))
	}
	return p
}

// draw picks the next request of a seeded stream.
func (p *plan) draw(r *rand.Rand) pair {
	if len(p.entries) == 0 {
		return pair{ward: int32(r.Intn(len(p.wards))), query: int32(r.Intn(len(p.queries)))}
	}
	n := r.Intn(p.cum[len(p.cum)-1])
	lo, hi := 0, len(p.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] > n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return p.entries[lo]
}

// rawQuery is the /query URL query string of a request.
func (p *plan) rawQuery(r pair) string {
	return "class=" + nurseClass + "&param=" + p.escWards[r.ward] + "&q=" + p.escQueries[r.query]
}

// warmPairs lists the requests issued at set-up: every pair of a fixed
// mix, or WarmPairs seeded draws for churn.
func (p *plan) warmPairs(seed int64) []pair {
	if p.w.WarmPairs == 0 {
		return p.entries
	}
	r := rand.New(rand.NewSource(streamSeed(seed, streamWarm)))
	out := make([]pair, p.w.WarmPairs)
	for i := range out {
		out[i] = p.draw(r)
	}
	return out
}

// verifyWard reports, per ward index, whether answers bound to it are
// verified: all wards, or a seeded sample of VerifyWards of them.
func (p *plan) verifyWard(seed int64) []bool {
	out := make([]bool, len(p.wards))
	if p.w.VerifyWards == 0 {
		for i := range out {
			out[i] = true
		}
		return out
	}
	r := rand.New(rand.NewSource(streamSeed(seed, streamVerify)))
	for _, i := range r.Perm(len(p.wards))[:p.w.VerifyWards] {
		out[i] = true
	}
	return out
}

// Seeded streams are split by purpose, so adding a client or a phase
// leaves the others' inputs unchanged.
const (
	streamDoc = iota + 1
	streamWarm
	streamVerify
	streamOpen
	streamTrace
	streamClient // + client index
)

func streamSeed(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)
}

// genDocXML writes the workload's hospital document. Wards are dealt
// round-robin over the patient slots, trial patients and patientInfo
// patients separately, and only shuffled inside a department, so which
// departments a ward can see (the nurse policy looks at patientInfo
// patients) does not depend on the seed.
func genDocXML(s docShape, seed int64) string {
	r := rand.New(rand.NewSource(streamSeed(seed, streamDoc)))
	var b strings.Builder
	patients := func(n, first int) {
		wards := make([]int, n)
		trial := make([]bool, n)
		for i := range wards {
			wards[i] = (first+i)%s.Wards + 1
			trial[i] = i%2 == 0
		}
		r.Shuffle(n, func(i, j int) { wards[i], wards[j] = wards[j], wards[i] })
		r.Shuffle(n, func(i, j int) { trial[i], trial[j] = trial[j], trial[i] })
		for i := range wards {
			fmt.Fprintf(&b, "<patient><name>p%05d</name><wardNo>%d</wardNo><treatment>", r.Intn(100000), wards[i])
			if trial[i] {
				fmt.Fprintf(&b, "<trial><bill>b%05d</bill></trial>", r.Intn(100000))
			} else {
				fmt.Fprintf(&b, "<regular><bill>b%05d</bill><medication>m%05d</medication></regular>", r.Intn(100000), r.Intn(100000))
			}
			b.WriteString("</treatment></patient>")
		}
	}
	b.WriteString("<hospital>")
	for d := 0; d < s.Depts; d++ {
		b.WriteString("<dept><clinicalTrial><patientInfo>")
		patients(s.TrialPatients, d*s.TrialPatients)
		b.WriteString("</patientInfo></clinicalTrial><patientInfo>")
		patients(s.Patients, d*s.Patients)
		b.WriteString("</patientInfo><staffInfo>")
		for _, role := range r.Perm(s.Staff) {
			tag := "doctor"
			if role%2 == 1 {
				tag = "nurse"
			}
			fmt.Fprintf(&b, "<staff><%s><name>s%05d</name></%s></staff>", tag, r.Intn(100000), tag)
		}
		b.WriteString("</staffInfo></dept>")
	}
	b.WriteString("</hospital>")
	return b.String()
}
