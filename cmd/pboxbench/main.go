// Command pboxbench regenerates the tables and figures of the pBox paper's
// evaluation (SOSP 2023, Section 6) on the reproduced substrates.
//
// Usage:
//
//	pboxbench -exp fig11                 # one experiment
//	pboxbench -exp all                   # everything
//	pboxbench -exp fig11 -cases c1,c5    # restrict to cases
//	pboxbench -exp fig16 -duration 500ms # longer runs
//
// Experiments: fig1 fig2 fig3 fig10 table3 fig11 fig12 fig13 fig14 table4
// fig15 fig16 table5 mistakes ablate. One extra id is opt-in (never part of
// -exp all) and writes files instead of printing: record-cases runs cases
// with a capture recorder attached and writes one replayable event-log
// directory per case under -out (pboxreplay consumes them). Performance
// numbers are not this command's job: benchmark/ is the repo's one
// performance harness (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"pbox/internal/cases"
	"pbox/internal/experiments"
	"pbox/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1..fig16, table3..table5, mistakes, ablate, record-cases, all)")
	caseList := flag.String("cases", "", "comma-separated case ids to restrict to")
	duration := flag.Duration("duration", 0, "per-run measurement duration (default 300ms)")
	caseDuration := flag.Duration("caseduration", 0, "pin every case's run length exactly, overriding -duration and per-case variance adjustments")
	quick := flag.Bool("quick", false, "smoke-test scale")
	out := flag.String("out", "capture-logs", "output directory for -exp record-cases")
	flag.Parse()

	cfg := experiments.Config{Duration: *duration, CaseDuration: *caseDuration, Quick: *quick}
	var ids []string
	if *caseList != "" {
		ids = strings.Split(*caseList, ",")
	}

	run := func(name string, f func()) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n=== %s ===\n", name)
		t0 := time.Now()
		f()
		fmt.Printf("--- %s done in %v ---\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("fig1", func() { printSeries("client B write latency (ms) vs time", cases.Fig1Series(3*time.Second), false) })
	run("fig2", func() { printSeries("OLTP throughput (req/bucket) vs time", cases.Fig2Series(3*time.Second), true) })
	run("fig3", func() { printSeries("reader latency (ms) vs time", cases.Fig3Series(3*time.Second), false) })

	run("fig10", func() {
		iters := 100_000
		if *quick {
			iters = 10_000
		}
		for _, r := range experiments.Fig10Micro(iters) {
			fmt.Printf("%-18s %10d ns\n", r.Op, r.Latency.Nanoseconds())
		}
	})

	run("table3", func() {
		fmt.Printf("%-4s %-11s %-4s %-20s %-12s %-12s %-10s %-10s\n",
			"Id", "App", "Bug", "Virtual Resource", "To", "Ti", "Level", "Paper")
		for _, r := range experiments.Table3(cfg) {
			bug := "N"
			if r.Case.Bug {
				bug = "Y"
			}
			fmt.Printf("%-4s %-11s %-4s %-20s %-12v %-12v %-10.2f %-10.2f\n",
				r.Case.ID, r.Case.App, bug, r.Case.Resource, r.To, r.Ti, r.Level, r.Case.PaperLevel)
		}
	})

	var mitRows []experiments.MitigationRow
	mitigation := func() []experiments.MitigationRow {
		if mitRows == nil {
			mitRows = experiments.Mitigation(cfg, ids, nil)
		}
		return mitRows
	}

	run("fig11", func() {
		rows := mitigation()
		sols := cases.Solutions()
		fmt.Printf("%-4s %-10s", "Case", "Ti(ms)")
		for _, s := range sols {
			fmt.Printf(" %12s", string(s))
		}
		fmt.Println("   (normalized mean latency; <1 = mitigated)")
		for _, row := range rows {
			fmt.Printf("%-4s %-10.3f", row.Case.ID, float64(row.Ti)/1e6)
			for _, s := range sols {
				fmt.Printf(" %12.2f", row.Solutions[s].NormMean)
			}
			fmt.Println()
		}
		fmt.Println("\nReduction ratio r = (Ti-Ts)/(Ti-To):")
		for _, row := range rows {
			fmt.Printf("%-4s", row.Case.ID)
			for _, s := range sols {
				fmt.Printf(" %8s=%7s", string(s), stats.FormatPct(row.Solutions[s].Reduction))
			}
			fmt.Println()
		}
		fmt.Println("\nSummary:")
		for _, s := range experiments.Summarize(rows) {
			fmt.Printf("%-8s helped %2d cases (avg %s, max %s); worsened %2d (avg %s, worst %s)\n",
				s.Solution, s.Helped, stats.FormatPct(s.AvgReduction), stats.FormatPct(s.MaxReduction),
				s.Worsened, stats.FormatPct(s.AvgWorsening), stats.FormatPct(s.WorstWorsening))
		}
	})

	run("fig12", func() {
		rows := mitigation()
		fmt.Printf("%-4s %-12s %-12s %-12s  (p95, normalized to Ti p95)\n", "Case", "Ti-p95", "pbox", "cgroup")
		for _, row := range rows {
			fmt.Printf("%-4s %-12v %-12.2f %-12.2f\n", row.Case.ID, row.TiP95,
				row.Solutions[cases.SolutionPBox].NormP95, row.Solutions[cases.SolutionCgroup].NormP95)
		}
	})

	run("fig13", func() {
		for _, r := range experiments.PenaltyInternals(cfg, ids) {
			fmt.Printf("%-4s actions=%-5d score=%-5d gap=%-5d convergence=%.1f steps (interference level %.1f)\n",
				r.CaseID, r.Actions, r.ScoreActions, r.GapActions, r.ConvergenceSteps, r.Level)
		}
	})

	run("fig14", func() {
		for _, r := range experiments.PenaltyInternals(cfg, ids) {
			fmt.Printf("%-4s penalty lengths: min=%-10v p50=%-10v max=%-10v\n",
				r.CaseID, r.PenaltyMin, r.PenaltyP50, r.PenaltyMax)
		}
	})

	run("table4", func() {
		fmt.Printf("%-4s %-14s %-14s %-14s | noisy: %-14s %-14s %-14s\n",
			"Case", "Fixed(1ms)", "Fixed(10ms)", "Adaptive", "Fixed(1ms)", "Fixed(10ms)", "Adaptive")
		better := 0
		rows := experiments.Table4(cfg, ids)
		for _, r := range rows {
			fmt.Printf("%-4s %-14v %-14v %-14v | noisy: %-14v %-14v %-14v\n",
				r.CaseID, r.LatShort, r.LatLong, r.LatAdaptive,
				r.NoisyShort, r.NoisyLong, r.NoisyAdaptive)
			if r.AdaptiveBeatsFixedShort && r.AdaptiveBeatsFixedLong {
				better++
			}
		}
		fmt.Printf("adaptive best on the victim in %d/%d cases\n", better, len(rows))
	})

	run("fig15", func() {
		rows := experiments.RuleSensitivity(cfg, ids, nil)
		if len(rows) == 0 {
			return
		}
		fmt.Printf("%-4s", "Case")
		for _, l := range rows[0].Levels {
			fmt.Printf(" %8.0f%%", l*100)
		}
		fmt.Println("   (reduction ratio per isolation rule)")
		for _, r := range rows {
			fmt.Printf("%-4s", r.CaseID)
			for _, red := range r.Reductions {
				fmt.Printf(" %9s", stats.FormatPct(red))
			}
			fmt.Println()
		}
	})

	run("fig16", func() {
		rows := experiments.Overhead(cfg, nil, nil)
		fmt.Printf("%-12s %-6s %-10s %-10s %-10s %-10s\n", "App", "Set", "Vanilla", "pBox", "ovh-mean", "ovh-p99")
		perApp := map[string][]float64{}
		for _, r := range rows {
			set := fmt.Sprintf("%s%d", map[bool]string{false: "r", true: "w"}[r.Setting.Write], r.Setting.Clients)
			fmt.Printf("%-12s %-6s %-10v %-10v %9.1f%% %9.1f%%\n",
				r.Setting.App, set, r.Vanilla.Mean, r.WithPBox.Mean, r.OverheadMean*100, r.OverheadP99*100)
			perApp[r.Setting.App] = append(perApp[r.Setting.App], r.OverheadMean)
		}
		apps := make([]string, 0, len(perApp))
		for a := range perApp {
			apps = append(apps, a)
		}
		sort.Strings(apps)
		for _, a := range apps {
			fmt.Printf("avg overhead %-12s %6.1f%%\n", a, stats.Mean(perApp[a])*100)
		}
	})

	run("table5", func() {
		rows, err := experiments.Table5(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, "table5:", err)
			return
		}
		fmt.Printf("%-26s %-10s %-8s %-9s %-6s\n", "Package", "Inspected", "Manual", "Detected", "SLOC")
		for _, r := range rows {
			fmt.Printf("%-26s %-10d %-8d %-9d %-6d\n",
				r.Package, r.InspectedFuncs, r.ManualEvents, r.Detected, r.SLOC)
		}
	})

	run("ablate", func() {
		ids2 := ids
		if ids2 == nil {
			ids2 = []string{"c5", "c12"}
		}
		for _, id := range ids2 {
			for _, r := range experiments.Ablations(cfg, id) {
				fmt.Printf("%-4s %-24s victim=%-12v reduction=%7s actions=%d\n",
					r.CaseID, r.Variant, r.VictimMean, stats.FormatPct(r.Reduction), r.Actions)
			}
		}
	})

	// record-cases writes files rather than printing, so it is opt-in only
	// (never part of -exp all).
	if *exp == "record-cases" {
		traces, err := experiments.RecordCases(cfg, ids, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "record-cases:", err)
			os.Exit(1)
		}
		for _, tr := range traces {
			fmt.Printf("%-4s %-10s %8d records %10d bytes dropped=%d  %s\n",
				tr.CaseID, tr.Duration, tr.Records, tr.Bytes, tr.Dropped, tr.Dir)
		}
		return
	}

	run("mistakes", func() {
		trials := 5
		if *quick {
			trials = 2
		}
		for _, r := range experiments.MistakeTolerance(cfg, ids, trials) {
			fmt.Printf("%-4s correct=%7s dropped-avg=%7s positive=%d/%d\n",
				r.CaseID, stats.FormatPct(r.CorrectReduction), stats.FormatPct(r.AvgDroppedReduction),
				r.PositiveTrials, len(r.DroppedReductions))
		}
	})
}

// printSeries renders a time series as a rough text plot.
func printSeries(title string, pts []stats.Point, throughput bool) {
	fmt.Println(title)
	maxV := 0.0
	for _, p := range pts {
		v := p.Mean
		if throughput {
			v = float64(p.Count)
		}
		if v > maxV {
			maxV = v
		}
	}
	for _, p := range pts {
		v := p.Mean
		if throughput {
			v = float64(p.Count)
		}
		bar := 0
		if maxV > 0 {
			bar = int(v / maxV * 50)
		}
		fmt.Printf("%8s %10.3f %s\n", p.T.Round(time.Millisecond), v, strings.Repeat("#", bar))
	}
}
