package cases

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"pbox/internal/stats"
)

// TestCalibrate holds the lab against real time: each case's To, Ti and pBox
// cells run live through the same cell runner, three times at 1 s, and the
// signs of interference (Ti vs To) and of relief (Ts vs Ti, at the mean and at
// p95) are compared with the lab's committed cells. It prints a Markdown table
// (EXPERIMENTS.md keeps one) and only runs when PBOX_CALIBRATE is set: it is a
// measurement of this host, not a regression test. PBOX_CASES narrows it to a
// comma-separated id list.
func TestCalibrate(t *testing.T) {
	if os.Getenv("PBOX_CALIBRATE") == "" {
		t.Skip("set PBOX_CALIBRATE=1 to run")
	}
	lab := goldenCells(t)
	const runs = 3
	live := make([]*Lab, runs)
	for i := range live {
		live[i] = &Lab{Duration: time.Second}
	}
	fmt.Println("| case | lab interference | live | lab relief mean | live | lab relief p95 | live | mismatch |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	filter := os.Getenv("PBOX_CASES")
	for _, id := range caseIDs() {
		if filter != "" && !slices.Contains(strings.Split(filter, ","), id) {
			continue
		}
		want := signs(lab(to(id)), lab(ti(id)), lab(ts(id, SolutionPBox)))
		var got [runs][3]string
		for i, l := range live {
			got[i] = signs(rowOf(to(id), l.Get(to(id))), rowOf(ti(id), l.Get(ti(id))), rowOf(ts(id, SolutionPBox), l.Get(ts(id, SolutionPBox))))
		}
		line := "| " + id
		var mismatch []string
		for k, name := range []string{"interference", "relief mean", "relief p95"} {
			seen := ""
			for i := range got {
				seen += got[i][k]
			}
			line += " | " + want[k] + " | " + seen
			if strings.Count(seen, want[k])*2 < runs {
				mismatch = append(mismatch, name)
			}
		}
		fmt.Println(line + " | " + strings.Join(mismatch, ", ") + " |")
	}
}

// signs classifies a case's interference (the level p = Ti/To − 1 at the mean
// above 0.5) and its relief (the reduction ratio beyond ±10%, at the mean and
// at p95) as +, 0 or −, so a live run's noise does not flip a verdict.
func signs(o, i, s row) [3]string {
	sign := func(v, band float64) string {
		switch {
		case v > band:
			return "+"
		case v < -band:
			return "−"
		}
		return "0"
	}
	return [3]string{
		sign(stats.InterferenceLevel(i.Victim.Mean, o.Victim.Mean), 0.5),
		sign(stats.ReductionRatio(i.Victim.Mean, o.Victim.Mean, s.Victim.Mean), 0.1),
		sign(stats.ReductionRatio(i.Victim.P95, o.Victim.P95, s.Victim.P95), 0.1),
	}
}
