// Package lint assembles the pboxlint analyzer suite: the registry
// cmd/pboxlint selects passes from and the driver checks suppressions
// against. (cmd/pboxanalyze runs the advisory waitloop pass directly.)
package lint

import (
	"pbox/internal/lint/analysis"
	"pbox/internal/lint/eventpair"
	"pbox/internal/lint/hotpathalloc"
	"pbox/internal/lint/lockorder"
	"pbox/internal/lint/reentry"
	"pbox/internal/lint/snapshot"
	"pbox/internal/lint/waitloop"
)

// Default returns the enforcing passes — the ones CI fails on. waitloop is
// advisory (it proposes annotation sites rather than flagging violations)
// and is excluded; select it explicitly with -passes waitloop.
func Default() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		eventpair.Analyzer,
		hotpathalloc.Analyzer,
		lockorder.Analyzer,
		reentry.Analyzer,
		snapshot.Analyzer,
	}
}

// All returns every registered pass, advisory ones included.
func All() []*analysis.Analyzer {
	return append(Default(), waitloop.Analyzer)
}

// ByName resolves a pass name against the full registry.
func ByName(name string) *analysis.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
