package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// The judge's tests drive judge.go alone — no manager, no clock — one per
// deviation of DESIGN.md §5, each at the boundary its constant draws.

// judgeOpts is the harness's tuning: 10 µs–100 ms, the paper's defaults else.
func judgeOpts() Options {
	return Options{MinPenalty: 10 * time.Microsecond, MaxPenalty: 100 * time.Millisecond}.withDefaults()
}

// unreachableGoal is a goal no level reaches (TestMonitorThreshold holds it
// above maxRatio / monitorShare): a pBox created with it is a tracer, its
// events accounted and never acted on.
const unreachableGoal = 1e6

// TestPropAverageRatioBounds: for any td ≤ te the ratio is non-negative and
// finite, and increases with td.
func TestPropAverageRatioBounds(t *testing.T) {
	f := func(a, b uint32) bool {
		td, te := int64(a), int64(b)
		if td > te {
			td, te = te, td
		}
		r := averageRatio(td, te)
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return false
		}
		// Monotonic in td (with te fixed), as long as we stay below te.
		if td > 0 && td < te {
			if averageRatio(td-1, te) > r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAverageRatioCap (§5.1, §5.7): the text's Td/(Te − Td), capped at 100 from
// the point where an activity was (nearly) all wait.
func TestAverageRatioCap(t *testing.T) {
	for _, c := range []struct {
		td, te int64
		want   float64
	}{
		{50, 100, 1},        // Td/(Te − Td), not line 22's te/(td − te)
		{0, 100, 0},         // no deferral
		{100, 0, 0},         // no execution yet
		{1e9, 1e9, 100},     // td = te
		{1e9 + 5, 1e9, 100}, // td > te
		{1e9, 1e9 + 1, 100}, // td/ε
		{100, 101, 100},     // exactly at the cap
		{99, 100, 99},       // just under it
	} {
		if got := averageRatio(c.td, c.te); got != c.want {
			t.Errorf("averageRatio(%d, %d) = %v, want %v", c.td, c.te, got, c.want)
		}
	}
}

// TestJudgeWaitOverlapAndCausality (§5.2, §5.3): a holder is blamed for the
// part of the wait its hold covered, whether it predates the waiter or not, and
// answers for the wait only from a tenth of it up.
func TestJudgeWaitOverlapAndCausality(t *testing.T) {
	o := judgeOpts()
	// The waiter's activity began at 0 and has done nothing but wait since
	// `since`, so the projection breaks any goal; only the overlap varies.
	for _, c := range []struct {
		name                  string
		since, heldSince, now int64
		waited, overlap       int64
		act                   bool
	}{
		{"holder predates waiter (line 23)", 100, 0, 1100, 1000, 1000, true},
		{"holder re-acquired past the waiter", 0, 400, 1000, 1000, 600, true},
		{"hold covers 10% of the wait", 0, 900, 1000, 1000, 100, true},
		{"hold covers 9.9% of the wait", 0, 901, 1000, 1000, 99, false},
		{"hold began at the release", 0, 1000, 1000, 1000, 0, false},
		{"record re-armed after this release's time", 1200, 0, 1000, 0, -200, false},
	} {
		v := o.judgeWait(c.since, c.heldSince, c.now, 0, 0, 0.5)
		if v.waited != c.waited || v.overlap != c.overlap || v.act != c.act {
			t.Errorf("%s: waited %d overlap %d act %v, want %d %d %v", c.name, v.waited, v.overlap, v.act, c.waited, c.overlap, c.act)
		}
		if got := overlap(c.since, c.heldSince, c.now); got != c.overlap {
			t.Errorf("%s: overlap() = %d, want %d", c.name, got, c.overlap)
		}
	}
}

// TestJudgeWaitProjection: the worst-case projection counts the wait so far
// into the deferring time, clamps it to the activity, and acts only above the
// goal; a tracer (an unreachable goal) still measures the wait.
func TestJudgeWaitProjection(t *testing.T) {
	o := judgeOpts()
	// Activity began at 0, release at 1000, the waiter arrived at 800 behind a
	// hold from 0: waited 200, overlap 200.
	if v := o.judgeWait(800, 0, 1000, 0, 100, 0.5); v.level != 300.0/700 || v.act {
		t.Errorf("td 100+200 of te 1000: level %v act %v, want 3/7 and no action (goal 0.5)", v.level, v.act)
	}
	if v := o.judgeWait(800, 0, 1000, 0, 200, 0.5); v.level != 400.0/600 || !v.act {
		t.Errorf("td 200+200 of te 1000: level %v act %v, want 2/3 and an action", v.level, v.act)
	}
	if v := o.judgeWait(800, 0, 1000, 100, 100, 0.5); v.level != 0.5 || v.act {
		t.Errorf("td 100+200 of te 900: level %v act %v, want the goal itself and no action", v.level, v.act)
	}
	if v := o.judgeWait(1000, 0, 1000, 0, 900, 0.5); v.level != 9 || v.act {
		t.Errorf("arrived as the hold ended: level %v act %v, want 9 and no action (overlap 0)", v.level, v.act)
	}
	if v := o.judgeWait(800, 0, 1000, 0, 5000, 0.5); v.level != maxRatio {
		t.Errorf("deferring time beyond the activity: level %v, want the cap", v.level)
	}
	if v := o.judgeWait(800, 0, 1000, 1000, 200, 0.5); v.act || v.waited != 200 {
		t.Errorf("activity of zero length: %+v, want no action, waited 200", v)
	}
	if v := o.judgeWait(800, 0, 1000, 0, 5000, unreachableGoal); v.act || v.waited != 200 || v.overlap != 200 {
		t.Errorf("a tracer at the cap: %+v, want no action, waited and overlap 200", v)
	}
}

// TestCooldown (§5.5): the next action on a pair waits one penalty length.
func TestCooldown(t *testing.T) {
	st := pairState{count: 1, last: 1000, lastAt: 5000}
	if !st.cooling(5999) {
		t.Error("1 ns before a penalty length has passed: not cooling")
	}
	if st.cooling(6000) {
		t.Error("a penalty length after the last action: still cooling")
	}
	if (&pairState{last: 1000, lastAt: 5000}).cooling(5001) {
		t.Error("a pair never acted on is cooling")
	}
}

// TestAdaptiveScore (§5.6): s(i) is the window plus the live activity, or the
// live activity with the triggering wait when that is worse.
func TestAdaptiveScore(t *testing.T) {
	for _, c := range []struct {
		name                    string
		wTd, wTe                int64
		active                  bool
		liveTd, liveTe, trigger int64
		want                    float64
	}{
		{"frozen victim: the window alone", 100, 300, false, 900, 1000, 500, 0.5},
		{"healthy window, starved live activity", 0, 1_000_000, true, 0, 1000, 900, 9},
		{"bad window, healthy live activity", 500, 1000, true, 0, 1000, 0, 500.0 / 1500},
		{"live deferral clamped to the live activity", 0, 1000, true, 3000, 1000, 0, maxRatio},
	} {
		if got := adaptiveScore(c.wTd, c.wTe, c.active, c.liveTd, c.liveTe, c.trigger); got != c.want {
			t.Errorf("%s: s(i) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestInterferenceLevelMetrics: the average reads the lifetime totals, tail and
// max a quantile of the window's per-activity ratios.
func TestInterferenceLevelMetrics(t *testing.T) {
	var window []activityRecord
	for i := int64(100); i >= 1; i-- { // ratios 100, 99, … 1
		window = append(window, activityRecord{td: i, te: i + 1})
	}
	for _, c := range []struct {
		m    Metric
		want float64
	}{{MetricAverage, 1}, {MetricTail, 95}, {MetricMax, 100}} {
		if got := interferenceLevel(c.m, 50, 100, window); got != c.want {
			t.Errorf("%v over ratios 1…100 = %v, want %v", c.m, got, c.want)
		}
	}
	if got := interferenceLevel(MetricTail, 50, 100, nil); got != 0 {
		t.Errorf("tail of no history = %v, want 0", got)
	}
	if got := interferenceLevel(MetricTail, 0, 0, window[:1]); got != 100 {
		t.Errorf("tail of one activity = %v, want it", got)
	}
}

// TestScoreWindow (§5.6): the ring the score and the quantiles read keeps the
// last 64 activities; the lifetime totals keep all of them.
func TestScoreWindow(t *testing.T) {
	var p PBox
	for i := int64(1); i <= 70; i++ {
		p.recordActivityLocked(i, 1000)
	}
	var td int64
	for _, r := range p.history {
		td += r.td
	}
	if want := int64((7 + 70) * 64 / 2); len(p.history) != 64 || td != want || p.activities != 70 {
		t.Errorf("window of %d activities, td %d, lifetime %d; want 64 (7…70: %d) of 70", len(p.history), td, p.activities, want)
	}
}

// TestMonitorThreshold (Section 4.3.1): the pBox-level monitor acts from
// monitorShare × goal up, and not at all when it is off or the goal is
// unreachable.
func TestMonitorThreshold(t *testing.T) {
	o := judgeOpts()
	rule := IsolationRule{Type: Relative, Level: 0.5}
	if level, act := o.monitor(rule, 45, 145, nil); level != 0.45 || !act {
		t.Errorf("level at 0.9 × goal: %v, %v; want 0.45 and an action", level, act)
	}
	if _, act := o.monitor(rule, 44, 144, nil); act {
		t.Error("level 0.44 < 0.9 × 0.5 acted")
	}
	if monitorShare*unreachableGoal <= maxRatio {
		t.Fatalf("unreachableGoal %v is reachable: levels go up to %v", unreachableGoal, maxRatio)
	}
	off := judgeOpts()
	off.DisablePBoxLevel = true
	tracer := IsolationRule{Type: Relative, Level: unreachableGoal}
	for _, c := range []struct {
		name  string
		o     Options
		rule  IsolationRule
		level float64
	}{
		{"monitor off", off, rule, 0},
		{"unreachable goal", o, tracer, maxRatio},
	} {
		if level, act := c.o.monitor(c.rule, 100, 100, nil); level != c.level || act {
			t.Errorf("%s, an activity that was all wait: %v, %v; want %v and no action", c.name, level, act, c.level)
		}
	}
}

// TestInitialPenalty: p1 = sqrt(td × te) − te on the triggering wait, the
// victim's mean in its absence, MinPenalty where the model has nothing to say.
func TestInitialPenalty(t *testing.T) {
	o := judgeOpts()
	const ms = float64(time.Millisecond)
	for _, c := range []struct {
		name string
		in   actionInputs
		want float64
	}{
		{"sqrt(9ms × 1ms) − 1ms", actionInputs{trigger: 9e6, noisyExec: ms}, 2 * ms},
		{"no trigger: the victim's mean deferral", actionInputs{victimAvgDefer: 9 * ms, noisyExec: ms}, 2 * ms},
		{"trigger wins over the mean", actionInputs{trigger: 9e6, victimAvgDefer: 100 * ms, noisyExec: ms}, 2 * ms},
		{"noisy already longer than the optimum", actionInputs{trigger: 9e5, noisyExec: ms}, float64(o.MinPenalty)},
		{"nothing deferred", actionInputs{noisyExec: ms}, float64(o.MinPenalty)},
		{"noisy never ran", actionInputs{trigger: 9e6}, float64(o.MinPenalty)},
	} {
		if got := o.initialPenalty(c.in); got != c.want {
			t.Errorf("%s: p1 = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestScorePenalty (§5.9): p1 × (1 + score/α), the score moving with the
// victim's s(i); a decay is at most a halving.
func TestScorePenalty(t *testing.T) {
	o := judgeOpts() // α = 5
	st := pairState{count: 1, p1: 1000, last: 1000, lastS: 2}
	if got := o.scorePenalty(&st, 2); got != 1200 || st.score != 1 {
		t.Errorf("victim no better off: %v (score %v), want 1200 (1)", got, st.score)
	}
	if got := o.scorePenalty(&st, 1); got != 1000 || st.score != 0 {
		t.Errorf("victim better off: %v (score %v), want 1000 (0)", got, st.score)
	}
	if got := o.scorePenalty(&st, 1); got != 1000 || st.score != 0 {
		t.Errorf("score never goes negative: %v (score %v)", got, st.score)
	}
	st.last = 64000 // a gap escalation on the same pair
	if got := o.scorePenalty(&st, 1); got != 32000 {
		t.Errorf("a score step after a gap escalation: %v, want half of 64000", got)
	}
}

// TestGapPenalty: p × gap/δ, δ floored at 0.05, a step at most 4×, halved once
// the goal is met.
func TestGapPenalty(t *testing.T) {
	floor := 0.05 // a variable, so the expected values round as the judge's do
	for _, c := range []struct {
		name           string
		lastS, s, goal float64
		want           float64
	}{
		{"gap 1, δ ½", 1, 2, 1, 2000},
		{"goal met", 1, 0.5, 0.5, 500},
		{"score did not move: δ floored", 1, 1, 0.875, 1000 * 0.125 / floor},
		{"score fell: δ floored", 3, 1, 0.875, 1000 * 0.125 / floor},
		{"step capped", 2, 2, 0.5, 4000},
	} {
		st := pairState{count: 1, last: 1000, lastS: c.lastS}
		if got := st.gapPenalty(c.s, c.goal); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

// TestDecide: policy choice, the clamp, the proportionality cap (§5.4) and the
// state a decision leaves behind.
func TestDecide(t *testing.T) {
	o := judgeOpts() // gap factor 2
	var st pairState
	p, kind := o.decide(&st, actionInputs{now: 7, trigger: 9e6, score: 3, noisyExec: 1e6})
	if p != 2e6 || kind != PolicyInitial || st != (pairState{count: 1, p1: 2e6, last: 2e6, lastAt: 7, lastS: 3}) {
		t.Fatalf("first action: %v %v %+v", p, kind, st)
	}
	if _, kind = o.decide(&st, actionInputs{trigger: 4e6, score: 3}); kind != PolicyScore {
		t.Errorf("trigger at 2× the last penalty: %v, want score", kind)
	}
	st.last = 2e6
	if _, kind = o.decide(&st, actionInputs{trigger: 4e6 + 1, score: 3}); kind != PolicyGap {
		t.Errorf("trigger beyond 2× the last penalty: %v, want gap", kind)
	}

	fixed := judgeOpts()
	fixed.FixedPenalty = 10 * time.Millisecond
	for _, c := range []struct {
		name    string
		trigger int64
		want    float64
	}{
		{"cap at 4× the trigger", 1e6, 4e6},
		{"trigger large enough: no cap", 25e5, 10e6},
		{"no trigger: no cap", 0, 10e6},
		{"cap below MinPenalty", 1000, float64(fixed.MinPenalty)},
	} {
		if p, kind := fixed.decide(&pairState{}, actionInputs{trigger: c.trigger}); p != c.want || kind != PolicyFixed {
			t.Errorf("%s: %v %v, want %v fixed", c.name, p, kind, c.want)
		}
	}
	fixed.FixedPenalty = time.Second
	if p, _ := fixed.decide(&pairState{}, actionInputs{}); p != float64(fixed.MaxPenalty) {
		t.Errorf("a second, clamped: %v", p)
	}
}

// TestScorePolicyEscalation: penalties that leave the victim no better off grow
// by p1/α per action under the score policy, while each trigger stays within
// gapFactor of the previous penalty.
func TestScorePolicyEscalation(t *testing.T) {
	o := judgeOpts()
	var st pairState
	if p, kind := o.decide(&st, actionInputs{trigger: 9e6, score: 3, noisyExec: 1e6}); p != 2e6 || kind != PolicyInitial {
		t.Fatalf("first action: %v %v, want 2ms initial", p, kind)
	}
	for i := 1; i <= 4; i++ {
		p, kind := o.decide(&st, actionInputs{trigger: int64(gapFactor * st.last), score: 3})
		if want := 2e6 * (1 + float64(i)/alpha); p != want || kind != PolicyScore {
			t.Errorf("action %d: %v %v, want %v score", i+1, p, kind, want)
		}
	}
}

// TestGapPolicySelected: a trigger beyond gapFactor × the previous penalty
// takes the gap policy, whose step is capped at 4×.
func TestGapPolicySelected(t *testing.T) {
	o := judgeOpts()
	st := pairState{count: 1, p1: 2e6, last: 2e6, lastS: 3}
	// gap 6 − 0.5 over δ 1 − 3/6: 2 ms × 11, capped at 8 ms.
	if p, kind := o.decide(&st, actionInputs{trigger: 5e6, score: 6, goal: 0.5}); p != 8e6 || kind != PolicyGap {
		t.Errorf("trigger 2.5× the last penalty: %v %v, want 8ms gap", p, kind)
	}
}

// TestPropClampPenalty: clamping always lands in [Min, Max].
func TestPropClampPenalty(t *testing.T) {
	o := judgeOpts()
	f := func(raw int64) bool {
		got := o.clamp(float64(raw))
		return got >= float64(o.MinPenalty) && got <= float64(o.MaxPenalty)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
