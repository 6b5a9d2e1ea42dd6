// Package waitloop adapts the hand-rolled Algorithm 2 analyzer
// (internal/analyzer — wait-in-loop candidate locations for state-event
// annotation) onto the pboxlint driver, so pboxanalyze and pboxlint share
// one package-loading and diagnostic-reporting stack.
//
// Unlike the other passes, waitloop reports advisory candidates, not
// violations: each finding marks a loop that blocks on a waiting call and
// whose exit depends on shared state — the paper's signal that pBox state
// events belong there. cmd/pboxlint therefore excludes it from the default
// set; it runs when selected explicitly (-passes waitloop), which is what
// cmd/pboxanalyze does.
package waitloop

import (
	"slices"
	"sort"
	"strings"

	"pbox/internal/analyzer"
	"pbox/internal/lint/analysis"
	"pbox/internal/lint/driver"
	"pbox/internal/lint/loader"
)

// Analyzer is the waitloop pass.
var Analyzer = &analysis.Analyzer{
	Name: "waitloop",
	Doc: "Algorithm 2: flag waiting calls inside loops gated on shared " +
		"state as candidate pBox state-event locations (advisory)",
	Run: run,
}

// WaitFuncs overrides the waiting-function list (nil selects
// analyzer.DefaultWaitFuncs). Set by cmd/pboxanalyze's -waitfuncs flag
// before the driver runs.
var WaitFuncs []string

func run(pass *analysis.Pass) (any, error) {
	a := analyzer.New(WaitFuncs)
	res := a.AnalyzeFiles(pass.Fset, pass.Files)
	for _, loc := range res.Locations {
		pass.Reportf(loc.Pos, "wait via %s inside loop gated on shared vars (%s): candidate pbox state-event location in %s",
			loc.WaitCall, strings.Join(loc.SharedVars, ", "), loc.Func)
	}
	return res, nil
}

// AnalyzePattern is the structured front door of the pass, shared by
// cmd/pboxanalyze and the Table 5 experiment: it loads every package the
// pattern matches (relative to module directory dir) through the pboxlint
// loader, runs the pass through the driver, and merges the per-package
// results into one aggregate, locations ordered by file and line.
func AnalyzePattern(dir, pattern string) (*analyzer.Result, error) {
	pkgs, err := loader.Load(dir, pattern)
	if err != nil {
		return nil, err
	}
	// Only the pass's values are read: the diagnostics, suppression
	// findings among them, are pboxlint's to report.
	res, err := driver.Run(pkgs, []*analysis.Analyzer{Analyzer}, []*analysis.Analyzer{Analyzer})
	if err != nil {
		return nil, err
	}
	merged := &analyzer.Result{}
	for _, ret := range res.Returns {
		r, ok := ret.Value.(*analyzer.Result)
		if !ok {
			continue
		}
		merged.Files += r.Files
		merged.InspectedFuncs += r.InspectedFuncs
		merged.Locations = append(merged.Locations, r.Locations...)
		merged.Wrappers = append(merged.Wrappers, r.Wrappers...)
	}
	sort.Strings(merged.Wrappers)
	merged.Wrappers = slices.Compact(merged.Wrappers)
	sort.Slice(merged.Locations, func(i, j int) bool {
		if merged.Locations[i].File != merged.Locations[j].File {
			return merged.Locations[i].File < merged.Locations[j].File
		}
		return merged.Locations[i].Line < merged.Locations[j].Line
	})
	return merged, nil
}
