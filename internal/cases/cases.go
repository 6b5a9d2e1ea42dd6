// Package cases reproduces the 16 real-world intra-application performance
// interference issues of Table 3 in the paper, scaled from the paper's
// 90-second CloudLab runs to sub-second in-process runs. Each case builds
// the relevant application substrate, runs a victim workload with or
// without the noisy component, and records victim and noisy latencies.
//
// A case can run under any solution of Section 6.3: vanilla (no isolation),
// pBox, cgroup, PARTIES, Retro, or DARC. A Lab runs the evaluation's cells
// (cell.go), each once; the views over them (views_test.go) give the paper's
// metrics: interference level p = Ti/To − 1 and reduction ratio
// r = (Ti − Ts)/(Ti − To). The case lab (lab_test.go) runs every cell in
// virtual time and keeps the views under testdata/lab.
package cases

import (
	"fmt"
	"slices"
	"time"

	"pbox/internal/baseline"
	"pbox/internal/core"
	"pbox/internal/isolation"
	"pbox/internal/stats"
	"pbox/internal/vres"
)

// Env is the scenario execution environment.
type Env struct {
	// Ctrl is the isolation policy for this run.
	Ctrl isolation.Controller
	// Interference enables the noisy component; a run without it measures
	// the interference-free baseline To.
	Interference bool
	// Duration is the measurement length.
	Duration time.Duration
	// Victim receives the victim activity's request latencies.
	Victim *stats.Recorder
	// Noisy receives the noisy activity's request latencies (when the
	// noisy component is request-based).
	Noisy *stats.Recorder
}

// Case is one reproduced interference issue.
type Case struct {
	// ID is the paper's case identifier (c1..c16).
	ID string
	// App names the application substrate.
	App string
	// Bug reports whether the paper found an associated bug report.
	Bug bool
	// Resource is the contended virtual resource (Table 3).
	Resource string
	// Desc is the one-line description from Table 3.
	Desc string
	// PaperLevel is the interference level the paper measured (Table 3,
	// last column), for EXPERIMENTS.md comparison.
	PaperLevel float64
	// EventDriven marks cases whose activities run on shared worker
	// threads (the Varnish/Memcached architecture), selecting the
	// shared-thread pBox controller.
	EventDriven bool
	// Scenario executes the case.
	Scenario func(env *Env)
}

// Solution identifies an isolation policy for a run.
type Solution string

// The evaluated solutions (Section 6.3).
const (
	SolutionNone    Solution = "none"
	SolutionPBox    Solution = "pbox"
	SolutionCgroup  Solution = "cgroup"
	SolutionParties Solution = "parties"
	SolutionRetro   Solution = "retro"
	SolutionDarc    Solution = "darc"
)

// Solutions lists the comparison systems in the order of Figure 11.
func Solutions() []Solution {
	return []Solution{SolutionPBox, SolutionCgroup, SolutionParties, SolutionDarc, SolutionRetro}
}

// RunConfig parameterizes one case run.
type RunConfig struct {
	Solution     Solution
	Interference bool
	// Duration is the measurement length (default 300ms).
	Duration time.Duration
	// Rule overrides the pBox isolation rule (default: 50% relative).
	Rule core.IsolationRule
	// ManagerOptions seeds the pBox manager (fixed penalty mode, the
	// pBox-level monitor ablation, ...).
	ManagerOptions core.Options
	// EventFilter, when set, removes the application's update_pbox calls
	// it returns false for, before they reach the manager (the
	// mistake-tolerance experiment, Section 6.8; see
	// isolation.PBoxController.EventFilter). It sees resource keys numbered
	// from the run's first resource.
	EventFilter func(key core.ResourceKey, ev core.EventType) bool
}

// Outcome is the result of one case run.
type Outcome struct {
	CaseID       string
	Solution     Solution
	Interference bool
	Victim       stats.Summary
	Noisy        stats.Summary

	// pBox-manager statistics (zero for other solutions).
	Actions          int
	ScoreActions     int
	GapActions       int
	PenaltyLengths   []time.Duration
	ConvergenceSteps float64
}

// DefaultDuration is the standard per-run measurement length.
const DefaultDuration = 300 * time.Millisecond

// Run executes one case under the configured solution and returns its
// outcome.
func Run(c Case, rc RunConfig) Outcome {
	if rc.Duration <= 0 {
		rc.Duration = DefaultDuration
	}
	rule := rc.Rule
	if !rule.Valid() {
		rule = core.DefaultRule()
	}
	if filter := rc.EventFilter; filter != nil {
		// Keys come from a process-wide counter; number them from this run's
		// first resource, so a filter drops the same sites in every run.
		base := vres.NewKey()
		rc.EventFilter = func(key core.ResourceKey, ev core.EventType) bool {
			return filter(key-base, ev)
		}
	}
	ctrl, mgr := newController(c, rc, rule)
	defer ctrl.Shutdown()

	env := &Env{
		Ctrl:         ctrl,
		Interference: rc.Interference,
		Duration:     rc.Duration,
		Victim:       stats.NewRecorder(4096),
		Noisy:        stats.NewRecorder(4096),
	}
	c.Scenario(env)

	out := Outcome{
		CaseID:       c.ID,
		Solution:     rc.Solution,
		Interference: rc.Interference,
		Victim:       env.Victim.Summary(),
		Noisy:        env.Noisy.Summary(),
	}
	if mgr != nil {
		out.Actions = mgr.TotalActions()
		var convSum, convN float64
		for _, rec := range mgr.ActionReport() {
			out.PenaltyLengths = append(out.PenaltyLengths, rec.Lengths...)
			out.ScoreActions += rec.ScoreActions
			out.GapActions += rec.GapActions
			if rec.ConvergenceSteps > 0 {
				convSum += float64(rec.ConvergenceSteps)
				convN++
			}
		}
		slices.Sort(out.PenaltyLengths)
		if convN > 0 {
			out.ConvergenceSteps = convSum / convN
		}
	}
	return out
}

// newController builds the isolation controller for a run; the returned
// manager is non-nil only for pBox runs.
func newController(c Case, rc RunConfig, rule core.IsolationRule) (isolation.Controller, *core.Manager) {
	switch rc.Solution {
	case SolutionNone, "":
		return isolation.NewNull(), nil
	case SolutionPBox:
		mgr := core.NewManager(rc.ManagerOptions)
		newPBox := isolation.NewPBox
		if c.EventDriven {
			newPBox = isolation.NewPBoxShared
		}
		ctrl := newPBox(mgr, rule)
		ctrl.EventFilter = rc.EventFilter
		return ctrl, mgr
	case SolutionCgroup:
		return baseline.NewCgroup(), nil
	case SolutionParties:
		return baseline.NewParties(), nil
	case SolutionRetro:
		return baseline.NewRetro(), nil
	case SolutionDarc:
		return baseline.NewDarc(), nil
	default:
		panic(fmt.Sprintf("cases: unknown solution %q", rc.Solution))
	}
}

// Catalog returns the 16 cases in Table 3 order.
func Catalog() []Case {
	return []Case{
		caseC1(), caseC2(), caseC3(), caseC4(), caseC5(),
		caseC6(), caseC7(), caseC8(), caseC9(), caseC10(),
		caseC11(), caseC12(), caseC13(),
		caseC14(), caseC15(),
		caseC16(),
	}
}

// isolationNull returns the vanilla controller (helper for the motivation
// figure runners, which always run without isolation).
func isolationNull() isolation.Controller { return isolation.NewNull() }

// ByID returns the case with the given id.
func ByID(id string) (Case, bool) {
	for _, c := range Catalog() {
		if c.ID == id {
			return c, true
		}
	}
	return Case{}, false
}
