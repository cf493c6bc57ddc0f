package optimize_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dtds"
	"repro/internal/optimize"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xpath"
)

var updateGolden = flag.Bool("update", false, "rewrite the plan goldens under testdata from the current rewriter and optimizer")

// goldenWards are the nurse bindings whose optimized plans are pinned.
var goldenWards = []string{"7", "300"}

// goldenLabels are the element types of the nurse view DTD.
var goldenLabels = []string{
	"hospital", "dept", "patientInfo", "patient", "name", "wardNo", "treatment",
	"dummy1", "dummy2", "bill", "medication", "staffInfo", "staff", "doctor", "nurse",
}

// goldenQueries is the serving benchmark's churn query space over 500
// wards: //* and wildcard steps with and without qualifiers, label
// pairs, and ward-specific qualifiers.
func goldenQueries() []string {
	qs := []string{"//*"}
	for _, l := range goldenLabels {
		qs = append(qs,
			"//*["+l+"]", "//*[not("+l+")]", "//*[.//"+l+"]",
			"//"+l+"//*", "//"+l+"/*", "//*/"+l)
	}
	for _, a := range goldenLabels {
		for _, b := range goldenLabels {
			qs = append(qs, "//"+a+"/"+b, "//"+a+"["+b+"]", "//"+a+"//"+b)
		}
	}
	for w := 1; w <= 500; w++ {
		for _, l := range []string{"name", "treatment", "wardNo"} {
			qs = append(qs, fmt.Sprintf(`//patient[wardNo = "%d"]/%s`, w, l))
		}
		qs = append(qs, fmt.Sprintf(`//dept[*/patient/wardNo = "%d"]//*`, w))
	}
	return qs
}

func planDigest(plan string) string {
	sum := sha256.Sum256([]byte(plan))
	return hex.EncodeToString(sum[:8])
}

// TestChurnPlanGolden pins the optimized plan text of every churn query
// under the nurse policy: one line per (ward, query), carrying a digest
// of the plan text. Optimizer changes that are meant to be
// plan-preserving must leave this file untouched. It also checks that
// one Optimizer reused across all queries and a fresh Optimizer per
// query print the same plan, so nothing an Optimizer keeps between calls
// can change a plan.
func TestChurnPlanGolden(t *testing.T) {
	queries := goldenQueries()
	var lines []string
	for _, ward := range goldenWards {
		spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": ward})
		if err != nil {
			t.Fatal(err)
		}
		view, err := secview.Derive(spec)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := rewrite.ForView(view)
		if err != nil {
			t.Fatal(err)
		}
		reused := optimize.New(view.Doc)
		for i, q := range queries {
			pt, _ := rw.Rewrite(xpath.MustParse(q))
			got := xpath.String(optimized(reused, pt))
			// A fresh Optimizer for every query would dominate the test's
			// run time; every 5th query and every dept-ward plan (the
			// longest unions) cover both shapes.
			if i%5 == 0 || strings.HasPrefix(q, "//dept[") {
				if fresh := xpath.String(optimized(optimize.New(view.Doc), pt)); fresh != got {
					t.Errorf("ward %s %q: reused optimizer printed\n%s\nfresh printed\n%s", ward, q, got, fresh)
				}
			}
			lines = append(lines, planDigest(got)+" "+ward+" "+q)
		}
	}

	checkGolden(t, filepath.Join("testdata", "churn_plans.golden"),
		"# sha256[:8] of the optimized plan text, nurse ward, churn query", lines)
}

// checkGolden compares lines with the golden file at path, ignoring its
// '#' comment lines; with -update it writes header and lines there
// instead.
func checkGolden(t *testing.T, path, header string, lines []string) {
	t.Helper()
	if *updateGolden {
		body := header + "\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("%s has %d plans, the query space has %d", path, len(want), len(lines))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("plan changed:\n got %s\nwant %s", lines[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d plans differ from %s", bad, len(lines), path)
	}
}
