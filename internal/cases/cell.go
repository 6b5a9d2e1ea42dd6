package cases

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pbox/internal/core"
)

// Cell is one run of the evaluation grid (Section 6): a case under a
// solution, with or without its noisy component, at a pBox isolation-rule
// level, with one of the configuration variants. Every table and figure of
// the evaluation is a view over cells.
type Cell struct {
	Case         string
	Solution     Solution
	Interference bool
	// Level is the relative isolation-rule level (Figure 15); 0 is the
	// default rule, 50%.
	Level float64
	// Variant names the run's configuration (variantConfig); "" is the design
	// as built.
	Variant string
}

// Variants other than the design as built: Table 4's fixed penalties and the
// ablations. Section 6.8's "drop-<seed>" variants are generated.
var namedVariants = map[string]RunConfig{
	"fixed-1ms":             {ManagerOptions: core.Options{FixedPenalty: time.Millisecond}},
	"fixed-10ms":            {ManagerOptions: core.Options{FixedPenalty: 10 * time.Millisecond}},
	"no-pbox-level-monitor": {ManagerOptions: core.Options{DisablePBoxLevel: true}},
	"min-penalty-50us":      {ManagerOptions: core.Options{MinPenalty: 50 * time.Microsecond}},
	// pBox traces every event and acts on none: a level is at most 100 and
	// the monitor acts from 0.9 × goal, so a goal above ≈ 111 is never
	// reached. Finite, because /status JSON cannot encode +Inf.
	"detection-off": {Rule: core.IsolationRule{Type: core.Relative, Level: 1e6, Metric: core.MetricAverage}},
}

// variantConfig returns the run configuration a variant names: "" is the
// design as built, "drop-<seed>" removes 10% of the update sites (Section
// 6.8), and the rest are Table 4's fixed penalties and the ablations.
func variantConfig(v string) (RunConfig, error) {
	if v == "" {
		return RunConfig{}, nil
	}
	if rc, ok := namedVariants[v]; ok {
		return rc, nil
	}
	if s, ok := strings.CutPrefix(v, "drop-"); ok {
		if seed, err := strconv.ParseInt(s, 10, 64); err == nil {
			return RunConfig{EventFilter: dropFilter(seed, 0.10)}, nil
		}
	}
	return RunConfig{}, fmt.Errorf("cases: unknown variant %q", v)
}

// dropFilter removes a fraction of (resource, event-type) update sites
// deterministically per seed — the paper's "randomly remove 10% of the
// update_pbox calls": a removed call site never delivers, as opposed to
// dropping a random sample of dynamic events.
func dropFilter(seed int64, frac float64) func(core.ResourceKey, core.EventType) bool {
	threshold := uint64(frac * float64(^uint64(0)>>1))
	return func(key core.ResourceKey, ev core.EventType) bool {
		h := uint64(key)*2654435761 + uint64(ev)*40503 + uint64(seed)*9176
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return (h >> 1) >= threshold
	}
}

// norm maps the default rule's level to 0, so both name one cell.
func (c Cell) norm() Cell {
	if c.Level == core.DefaultRule().Level {
		c.Level = 0
	}
	return c
}

// Lab runs cells, each at most once, so the To and Ti runs every artifact
// needs are shared by all of them.
type Lab struct {
	// Duration is every cell's measurement length.
	Duration time.Duration
	// Exec runs one case; nil runs it in real time with Run.
	Exec  func(Case, RunConfig) Outcome
	cells map[Cell]Outcome
}

// Get returns the cell's outcome, running it on first use.
func (l *Lab) Get(c Cell) Outcome {
	c = c.norm()
	if out, ok := l.cells[c]; ok {
		return out
	}
	cs, ok := ByID(c.Case)
	if !ok {
		panic(fmt.Sprintf("cases: unknown case %q", c.Case))
	}
	rc, err := variantConfig(c.Variant)
	if err != nil {
		panic(err)
	}
	rc.Solution, rc.Interference, rc.Duration = c.Solution, c.Interference, l.Duration
	if c.Level > 0 {
		rc.Rule = core.IsolationRule{Type: core.Relative, Level: c.Level, Metric: core.MetricAverage}
	}
	exec := l.Exec
	if exec == nil {
		exec = Run
	}
	out := exec(cs, rc)
	if l.cells == nil {
		l.cells = make(map[Cell]Outcome)
	}
	l.cells[c] = out
	return out
}
