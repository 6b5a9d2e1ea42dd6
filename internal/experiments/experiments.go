// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) from the reproduced cases and substrates. Each
// experiment returns typed rows; cmd/pboxbench renders them as text and
// bench_test.go reports them as benchmark metrics.
package experiments

import (
	"sync"
	"syscall"
	"time"

	"pbox/internal/cases"
	"pbox/internal/core"
	"pbox/internal/stats"
)

// Config scales the experiments.
type Config struct {
	// Duration is the per-run measurement length (default 300ms).
	Duration time.Duration
	// CaseDuration, when set, pins every case's run length exactly —
	// overriding both Duration and the per-case variance adjustments
	// (pboxbench -caseduration), so the suspected duration-sensitivity of
	// the c1/c2 efficacy gap can be investigated at a fixed length.
	CaseDuration time.Duration
	// Quick trims case sets and durations for smoke tests.
	Quick bool
}

func (c Config) duration() time.Duration {
	if c.Duration > 0 {
		return c.Duration
	}
	if c.Quick {
		return 150 * time.Millisecond
	}
	return cases.DefaultDuration
}

// caseDuration lengthens runs for cases with high run-to-run variance,
// unless an explicit CaseDuration pins it.
func (c Config) caseDuration(id string) time.Duration {
	if c.CaseDuration > 0 {
		return c.CaseDuration
	}
	d := c.duration()
	if id == "c8" && !c.Quick {
		return 2 * d
	}
	return d
}

// ---------------------------------------------------------------------------
// Table 3: the 16 cases and their measured interference levels.

// Table3Row is one case's identification and measured severity.
type Table3Row struct {
	Case cases.Case
	// To and Ti are the victim's interference-free and interfered mean
	// latencies under vanilla execution.
	To, Ti time.Duration
	// Level is the measured interference level p = Ti/To − 1.
	Level float64
}

// Table3 measures the interference level of every case under vanilla
// execution.
func Table3(cfg Config) []Table3Row {
	var rows []Table3Row
	for _, c := range cases.Catalog() {
		d := cfg.caseDuration(c.ID)
		to := cases.Run(c, cases.RunConfig{Solution: cases.SolutionNone, Interference: false, Duration: d})
		ti := cases.Run(c, cases.RunConfig{Solution: cases.SolutionNone, Interference: true, Duration: d})
		rows = append(rows, Table3Row{
			Case:  c,
			To:    to.Victim.Mean,
			Ti:    ti.Victim.Mean,
			Level: stats.InterferenceLevel(ti.Victim.Mean, to.Victim.Mean),
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figures 11 and 12: mitigation comparison across solutions.

// SolutionResult is one solution's outcome on one case.
type SolutionResult struct {
	Mean, P95 time.Duration
	// NormMean and NormP95 are Ts/Ti, the y-axes of Figures 11 and 12.
	NormMean, NormP95 float64
	// Reduction is r = (Ti−Ts)/(Ti−To) on means.
	Reduction float64
	// ReductionP95 is the tail-latency reduction ratio.
	ReductionP95 float64
	// Actions is the number of pBox penalty actions (pBox runs only).
	Actions int
	// NoisyMean is the noisy activity's mean latency under the solution
	// (Section 6.2 reports the impact on the noisy pBox).
	NoisyMean time.Duration
}

// MitigationRow is one case's full comparison (Figure 11 bar group).
type MitigationRow struct {
	Case      cases.Case
	To, Ti    time.Duration
	ToP95     time.Duration
	TiP95     time.Duration
	NoisyTi   time.Duration
	Level     float64
	Solutions map[cases.Solution]SolutionResult
}

// Mitigation runs every requested case under vanilla (with and without
// interference) and under each solution, producing the data behind Figures
// 11 and 12. A nil caseIDs selects all 16; nil solutions selects all five.
func Mitigation(cfg Config, caseIDs []string, sols []cases.Solution) []MitigationRow {
	if sols == nil {
		sols = cases.Solutions()
	}
	var rows []MitigationRow
	for _, c := range selectCases(caseIDs) {
		d := cfg.caseDuration(c.ID)
		to := cases.Run(c, cases.RunConfig{Solution: cases.SolutionNone, Interference: false, Duration: d})
		ti := cases.Run(c, cases.RunConfig{Solution: cases.SolutionNone, Interference: true, Duration: d})
		row := MitigationRow{
			Case:      c,
			To:        to.Victim.Mean,
			Ti:        ti.Victim.Mean,
			ToP95:     to.Victim.P95,
			TiP95:     ti.Victim.P95,
			NoisyTi:   ti.Noisy.Mean,
			Level:     stats.InterferenceLevel(ti.Victim.Mean, to.Victim.Mean),
			Solutions: make(map[cases.Solution]SolutionResult, len(sols)),
		}
		for _, sol := range sols {
			out := cases.Run(c, cases.RunConfig{Solution: sol, Interference: true, Duration: d})
			row.Solutions[sol] = SolutionResult{
				Mean:         out.Victim.Mean,
				P95:          out.Victim.P95,
				NormMean:     stats.NormalizedLatency(out.Victim.Mean, row.Ti),
				NormP95:      stats.NormalizedLatency(out.Victim.P95, row.TiP95),
				Reduction:    stats.ReductionRatio(row.Ti, row.To, out.Victim.Mean),
				ReductionP95: stats.ReductionRatio(row.TiP95, row.ToP95, out.Victim.P95),
				Actions:      out.Actions,
				NoisyMean:    out.Noisy.Mean,
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// MitigationSummary aggregates a solution's results the way Section 6.2/6.3
// reports them: how many cases it helped, the average reduction among
// helped cases, and the average (negative) reduction among worsened cases.
type MitigationSummary struct {
	Solution        cases.Solution
	Helped          int
	Worsened        int
	AvgReduction    float64 // over helped cases
	MaxReduction    float64
	AvgWorsening    float64 // over worsened cases (negative)
	WorstWorsening  float64
	AvgReductionAll float64 // over all cases
}

// Summarize computes per-solution summaries over mitigation rows.
func Summarize(rows []MitigationRow) []MitigationSummary {
	var sums []MitigationSummary
	for _, sol := range cases.Solutions() {
		s := MitigationSummary{Solution: sol}
		var helpedSum, worsenedSum, allSum float64
		n := 0
		for _, row := range rows {
			sr, ok := row.Solutions[sol]
			if !ok {
				continue
			}
			n++
			allSum += sr.Reduction
			if sr.Reduction > 0 {
				s.Helped++
				helpedSum += sr.Reduction
				if sr.Reduction > s.MaxReduction {
					s.MaxReduction = sr.Reduction
				}
			} else {
				s.Worsened++
				worsenedSum += sr.Reduction
				if sr.Reduction < s.WorstWorsening {
					s.WorstWorsening = sr.Reduction
				}
			}
		}
		if s.Helped > 0 {
			s.AvgReduction = helpedSum / float64(s.Helped)
		}
		if s.Worsened > 0 {
			s.AvgWorsening = worsenedSum / float64(s.Worsened)
		}
		if n > 0 {
			s.AvgReductionAll = allSum / float64(n)
		}
		sums = append(sums, s)
	}
	return sums
}

func selectCases(ids []string) []cases.Case {
	if ids == nil {
		return cases.Catalog()
	}
	var out []cases.Case
	for _, id := range ids {
		if c, ok := cases.ByID(id); ok {
			out = append(out, c)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 10: microbenchmark of pBox operation latencies.

// MicroRow is one operation's measured latency.
type MicroRow struct {
	Op      string
	Latency time.Duration
}

// Fig10Micro measures the cost of each pBox operation, plus the two
// reference points the paper uses: a cheap syscall (getpid) and thread
// creation (goroutine spawn+join here).
func Fig10Micro(iters int) []MicroRow {
	if iters <= 0 {
		iters = 100_000
	}
	mgr := core.NewManager(core.Options{})
	// A rule so loose no penalty fires during the microbenchmark.
	rule := core.IsolationRule{Type: core.Relative, Level: 1e12, Metric: core.MetricAverage}

	measure := func(n int, f func(i int)) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		return time.Since(t0) / time.Duration(n)
	}

	var rows []MicroRow

	// create/release measured pairwise to keep the manager's table from
	// growing unboundedly.
	nCR := iters / 10
	var createTotal, releaseTotal time.Duration
	for i := 0; i < nCR; i++ {
		t0 := time.Now()
		p, _ := mgr.Create(rule)
		createTotal += time.Since(t0)
		t1 := time.Now()
		_ = mgr.Release(p)
		releaseTotal += time.Since(t1)
	}
	rows = append(rows, MicroRow{"create", createTotal / time.Duration(nCR)})
	rows = append(rows, MicroRow{"release", releaseTotal / time.Duration(nCR)})

	p, _ := mgr.Create(rule)
	rows = append(rows, MicroRow{"activate", measure(iters, func(int) { mgr.Activate(p) })})
	// Interleave activate/freeze for a valid freeze measurement.
	mgr.Activate(p)
	// freeze is measured as the freeze+activate pair minus the activate
	// cost (freeze needs an active pBox each iteration).
	pair := measure(iters, func(int) {
		mgr.Freeze(p)
		mgr.Activate(p)
	})
	activateCost := rows[len(rows)-1].Latency
	freeze := pair - activateCost
	if freeze < 0 {
		freeze = pair / 2
	}
	rows = append(rows, MicroRow{"freeze", freeze})

	w := mgr.NewWorker()
	_ = w.BindDirect(p)
	rows = append(rows, MicroRow{"bind+unbind(lazy)", measure(iters, func(int) {
		_, _ = w.Unbind(0x1, core.BindShared)
		_, _ = w.Bind(0x1, core.BindShared)
	})})

	key := core.ResourceKey(0x99)
	mgr.Activate(p)
	rows = append(rows, MicroRow{"update1", measure(iters, func(int) {
		mgr.Update(p, key, core.Hold)
		mgr.Update(p, key, core.Unhold)
	})})

	// update2: the unhold path iterates a waiting competitor.
	p2, _ := mgr.Create(rule)
	mgr.Activate(p2)
	mgr.Update(p2, key, core.Prepare)
	rows = append(rows, MicroRow{"update2", measure(iters, func(int) {
		mgr.Update(p, key, core.Hold)
		mgr.Update(p, key, core.Unhold)
	})})

	rows = append(rows, MicroRow{"getpid", measure(iters, func(int) { _ = syscall.Getpid() })})

	nSpawn := iters / 10
	rows = append(rows, MicroRow{"go-spawn", measure(nSpawn, func(int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go wg.Done()
		wg.Wait()
	})})
	return rows
}
