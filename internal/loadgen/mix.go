package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Entry is one weighted slot in a query mix: a user class, a query over
// that class's view, an optional parameter binding, and a weight giving
// its share of the traffic.
type Entry struct {
	// Name labels the entry in reports ("cheap", "recursive", ...).
	Name string `json:"name"`
	// Weight is the entry's relative share of requests (≥1).
	Weight int `json:"weight"`
	// Class is the user class the request authenticates as.
	Class string `json:"class"`
	// Query is the view query text.
	Query string `json:"query"`
	// Params is the $parameter binding sent with the request.
	Params map[string]string `json:"params,omitempty"`
}

// Mix is a weighted query mix. A realistic mix spans the cost spectrum:
// cheap label paths that the plan cache answers in microseconds,
// descendant/recursive-view queries whose rewriting and evaluation are
// the expensive tail, and qualifier-heavy queries that stress the
// filter loops.
type Mix []Entry

// pick returns the index of a weighted-random entry.
func (m Mix) pick(r *rand.Rand) int {
	total := 0
	for _, e := range m {
		total += e.weight()
	}
	n := r.Intn(total)
	for i, e := range m {
		n -= e.weight()
		if n < 0 {
			return i
		}
	}
	return len(m) - 1
}

func (e Entry) weight() int {
	if e.Weight > 0 {
		return e.Weight
	}
	return 1
}

// HospitalMix is the default mix over the hospital scenario's nurse
// class (svserve -builtin hospital): mostly cheap label paths, a
// descendant-heavy slice, and a qualifier-heavy slice, with the ward
// parameter spread over three wards, which share the class's plans.
func HospitalMix() Mix {
	var m Mix
	for _, ward := range []string{"1", "2", "3"} {
		m = append(m,
			Entry{
				Name:   "cheap-w" + ward,
				Weight: 4,
				Class:  "nurse",
				Query:  "//patient/name",
				Params: map[string]string{"wardNo": ward},
			},
			Entry{
				Name:   "descend-w" + ward,
				Weight: 2,
				Class:  "nurse",
				Query:  "//dept//treatment//bill",
				Params: map[string]string{"wardNo": ward},
			},
			Entry{
				Name:   "qual-w" + ward,
				Weight: 1,
				Class:  "nurse",
				Query:  `//patient[wardNo = "` + ward + `" and treatment//bill]/name | //staff[not(doctor)]/nurse/name`,
				Params: map[string]string{"wardNo": ward},
			},
		)
	}
	return m
}

// HospitalLargeMix is the large-document variant of the hospital mix
// (svload -builtin hospital-large): the document is generated an order
// of magnitude bigger (10k+ nodes), and the mix leans on the
// deep-descendant queries whose cost scales with document size — the
// workload the structural index serves from posting lists instead of
// subtree walks.
func HospitalLargeMix() Mix {
	var m Mix
	for _, ward := range []string{"1", "2", "3"} {
		m = append(m,
			Entry{
				Name:   "descend-w" + ward,
				Weight: 4,
				Class:  "nurse",
				Query:  "//dept//treatment//bill",
				Params: map[string]string{"wardNo": ward},
			},
			Entry{
				Name:   "deep-text-w" + ward,
				Weight: 2,
				Class:  "nurse",
				Query:  "//dept//patientInfo//name/text()",
				Params: map[string]string{"wardNo": ward},
			},
			Entry{
				Name:   "cheap-w" + ward,
				Weight: 2,
				Class:  "nurse",
				Query:  "//patient/name",
				Params: map[string]string{"wardNo": ward},
			},
			Entry{
				Name:   "qual-descend-w" + ward,
				Weight: 1,
				Class:  "nurse",
				Query:  "//dept[.//trial]//bill",
				Params: map[string]string{"wardNo": ward},
			},
		)
	}
	return m
}

// ForumMix is the recursive-view mix (the forum scenario's guest class
// over a recursive thread DTD): rewriting emits height-free Rec
// automata, the expensive rewriting and evaluation tail a load mix must
// include.
func ForumMix(class string) Mix {
	return Mix{
		Entry{Name: "cheap-author", Weight: 4, Class: class, Query: "//post/author"},
		Entry{Name: "recursive-deep", Weight: 2, Class: class, Query: "//thread//replies//post/body"},
		Entry{Name: "recursive-qual", Weight: 1, Class: class, Query: `//thread[replies//post]/post/author`},
	}
}

// Fig7Mix is the paper's Fig. 7 recursive view (svserve -builtin fig7,
// class "user"): the view DTD itself is recursive (a -> b, a*), so
// every // step rewrites into a height-free Rec automaton.
func Fig7Mix() Mix {
	return Mix{
		Entry{Name: "cheap-b", Weight: 4, Class: "user", Query: "//b"},
		Entry{Name: "recursive-aa", Weight: 2, Class: "user", Query: "//a//a/b"},
		Entry{Name: "recursive-qual", Weight: 1, Class: "user", Query: "//a[a/b]/b"},
	}
}

// AdexMix poses the paper's Table 1 queries (Q1–Q3; Q4 optimizes to
// the empty query) over the adex buyer class with Table-1-like weights.
func AdexMix() Mix {
	return Mix{
		Entry{Name: "q1-contact", Weight: 3, Class: "buyer", Query: "//buyer-info/contact-info"},
		Entry{Name: "q2-warranty", Weight: 2, Class: "buyer", Query: "//house/r-e.warranty | //apartment/r-e.warranty"},
		Entry{Name: "q3-qual", Weight: 1, Class: "buyer", Query: "//buyer-info[//company-id and //contact-info]"},
	}
}

// ZipfMix reweights a mix with Zipf-skewed popularity: entry i keeps
// its class, query, and binding but its weight becomes round(64 /
// (i+1)^s), floored at 1, so the leading entries dominate the traffic.
// Real query logs are popularity-skewed — a few hot queries asked over
// and over; s <= 0 returns the mix unchanged (uniform default weights
// untouched).
func ZipfMix(m Mix, s float64) Mix {
	if s <= 0 {
		return m
	}
	out := make(Mix, len(m))
	for i, e := range m {
		w := int(math.Round(64 / math.Pow(float64(i+1), s)))
		if w < 1 {
			w = 1
		}
		e.Weight = w
		out[i] = e
	}
	return out
}

// MixFor returns the default mix for a built-in scenario name.
func MixFor(builtin string) (Mix, error) {
	switch builtin {
	case "hospital":
		return HospitalMix(), nil
	case "hospital-large":
		return HospitalLargeMix(), nil
	case "adex":
		return AdexMix(), nil
	case "fig7":
		return Fig7Mix(), nil
	}
	return nil, fmt.Errorf("loadgen: no default mix for scenario %q (have hospital, hospital-large, adex, fig7)", builtin)
}

// ParseEntry parses the svload -query flag syntax:
//
//	name:weight:class:query[:param=value[,param=value...]]
func ParseEntry(s string) (Entry, error) {
	parts := strings.SplitN(s, ":", 5)
	if len(parts) < 4 {
		return Entry{}, fmt.Errorf("loadgen: bad mix entry %q (want name:weight:class:query[:params])", s)
	}
	var weight int
	if _, err := fmt.Sscanf(parts[1], "%d", &weight); err != nil || weight <= 0 {
		return Entry{}, fmt.Errorf("loadgen: bad weight in mix entry %q", s)
	}
	e := Entry{Name: parts[0], Weight: weight, Class: parts[2], Query: parts[3]}
	if len(parts) == 5 && parts[4] != "" {
		e.Params = make(map[string]string)
		for _, kv := range strings.Split(parts[4], ",") {
			name, value, ok := strings.Cut(kv, "=")
			if !ok || name == "" {
				return Entry{}, fmt.Errorf("loadgen: bad param %q in mix entry %q", kv, s)
			}
			e.Params[name] = value
		}
	}
	return e, nil
}
