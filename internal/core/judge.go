package core

import (
	"math"
	"sort"
)

// Everything the manager decides, as arithmetic over plain values: the arms in
// manager.go and penalty.go gather the inputs under the leaf locks, call a
// function of this file, and apply what comes back. Nothing here takes a lock,
// reads a clock, calls an observer or sees a pBox, so a change to what pBox
// decides is a change to this file, and refmodel (which shares none of it)
// judges the result record for record. The paper's own constants and the
// numbers of DESIGN.md §5 are named here and nowhere else.
const (
	alpha          = 5.0   // α of the score policy, p(i+1) = p1 × (1 + score/α) (Section 4.4.2)
	monitorShare   = 0.9   // the pBox-level monitor acts from 90% of the goal (Section 4.3.1)
	gapFactor      = 2.0   // the gap policy takes a trigger above 2× the previous penalty ("much larger")
	maxRatio       = 100.0 // §5.7: an activity that was all wait reads 100×, not td/ε
	scoreWindow    = 64    // §5.6: activities in the history ring the score and the quantiles read
	tailQuantile   = 0.95  // MetricTail's quantile of that ring
	causalityShare = 10    // §5.3: a hold answers for a wait it covered at least 1/10 of
	capFactor      = 4     // §5.4: a penalty is at most 4× the overlap that triggered it
	maxDecay       = 0.5   // §5.9: a score step, or a gap step at goal, at most halves the penalty
	maxGapStep     = 4     // a gap step grows the penalty at most 4×
	minGapDelta    = 0.05  // floor of the gap policy's δ: the score barely moved
)

// activityRecord is one finished activity's accounting.
type activityRecord struct {
	td, te int64
}

// averageRatio is Tf = Td/(Te − Td) — §5.1: the text's formula, not line 22's
// — 0 before any execution or deferral and capped at maxRatio (§5.7).
func averageRatio(td, te int64) float64 {
	if te <= 0 || td <= 0 {
		return 0
	}
	if td >= te {
		return maxRatio
	}
	return min(float64(td)/float64(te-td), maxRatio)
}

// interferenceLevel is a pBox's aggregate interference level under its rule's
// metric: the lifetime average, or a quantile of the window's per-activity
// ratios.
func interferenceLevel(metric Metric, totalDefer, totalExec int64, window []activityRecord) float64 {
	switch metric {
	case MetricTail:
		return ratioQuantile(window, tailQuantile)
	case MetricMax:
		return ratioQuantile(window, 1)
	}
	return averageRatio(totalDefer, totalExec)
}

// ratioQuantile is the q-quantile (0 < q ≤ 1) of the window's per-activity ratios.
func ratioQuantile(window []activityRecord, q float64) float64 {
	if len(window) == 0 {
		return 0
	}
	ratios := make([]float64, len(window))
	for i, r := range window {
		ratios[i] = averageRatio(r.td, r.te)
	}
	sort.Float64s(ratios)
	return ratios[max(int(q*float64(len(ratios)))-1, 0)]
}

// monitor is the pBox-level monitor (Section 4.3.1) at the end of an activity:
// it acts once the aggregate level reaches monitorShare of the goal.
func (o *Options) monitor(rule IsolationRule, totalDefer, totalExec int64, window []activityRecord) (level float64, act bool) {
	if o.DisablePBoxLevel {
		return 0, false
	}
	level = interferenceLevel(rule.Metric, totalDefer, totalExec, window)
	return level, level >= monitorShare*rule.Level
}

// overlap is the part of a wait begun at since that a hold begun at heldSince
// had covered by now: what the holder is blamed for (§5.2b).
//
//pbox:hotpath
func overlap(since, heldSince, now int64) int64 { return now - max(since, heldSince) }

// waitVerdict is what a release decides about one waiter.
type waitVerdict struct {
	waited  int64   // the wait so far: deferring time once the record re-arms (§5.2a)
	overlap int64   // the part of it the released hold covered: an action's trigger
	level   float64 // worst-case projection: tf if everything waited so far stays waited
	act     bool    // take_action(holder, waiter)
}

// judgeWait is lines 20–24 of Algorithm 1 for one active waiter of a resource
// released at now: start and deferred are its activity's start and deferring
// time so far, goal its isolation level. The holder answers when the projected
// level breaks the goal and its hold overlapped the wait (§5.2b: line 23's
// "holder predates waiter" is the one-long-hold case) by at least the
// causality share (§5.3: a bystander that held briefly inside a convoy does
// not absorb its blame; a swarm of holders each covering the window all do).
//
//pbox:hotpath
func (o *Options) judgeWait(since, heldSince, now, start, deferred int64, goal float64) (v waitVerdict) {
	v.waited, v.overlap = max(now-since, 0), overlap(since, heldSince, now)
	if te := now - start; te > 0 {
		v.level = averageRatio(min(deferred+v.waited, te), te)
		v.act = v.level > goal && v.overlap > 0 && v.overlap*causalityShare >= v.waited
	}
	return v
}

// adaptiveScore is s(i), the victim's interference score at an action (§5.6):
// the defer-weighted ratio over its window plus the live activity, or the live
// activity's alone — trigger, the wait behind this action, included — when that
// is worse, so a healthy history does not dilute episodic starvation.
func adaptiveScore(windowTd, windowTe int64, active bool, liveTd, liveTe, trigger int64) float64 {
	if !active {
		return averageRatio(windowTd, windowTe)
	}
	return max(averageRatio(windowTd+min(liveTd, liveTe), windowTe+liveTe),
		averageRatio(liveTd+trigger, liveTe))
}

// pairState is what the policies remember of one (noisy pBox, resource) pair.
type pairState struct {
	count  int
	p1     float64 // initial penalty (ns)
	last   float64 // previous penalty (ns)
	lastAt int64   // manager-clock time of the previous action
	score  float64 // the score policy's counter
	lastS  float64 // s(i) at the previous action
}

// cooling reports whether a new action on the pair must wait (§5.5): the
// adaptation compares the victim before and after a penalty, so the next
// action waits one penalty length from the last.
func (st *pairState) cooling(now int64) bool {
	return st.count > 0 && now-st.lastAt < int64(st.last)
}

// actionInputs is what take_action gathers for one decision.
type actionInputs struct {
	now, trigger   int64   // trigger: the deferring time the noisy pBox answers for
	goal, score    float64 // the victim's isolation level and s(i)
	victimAvgDefer float64 // the victim's mean deferring time per activity
	noisyExec      float64 // te(noisy): its live activity so far, else its mean per activity
}

// decide sizes the next penalty on a pair (Section 4.4.2) and advances the
// pair's state: fixed-length mode, the closed form for a first action, then the
// gap policy when the triggering wait dwarfs the previous penalty and the score
// policy otherwise; clamped, and capped in proportion to the trigger (§5.4:
// the score must not ratchet a microsecond contributor up to milliseconds).
func (o *Options) decide(st *pairState, in actionInputs) (penalty float64, kind PolicyKind) {
	switch {
	case o.FixedPenalty > 0:
		penalty, kind = float64(o.FixedPenalty), PolicyFixed
	case st.count == 0:
		penalty, kind = o.initialPenalty(in), PolicyInitial
		st.p1 = penalty
	case float64(in.trigger) > gapFactor*st.last:
		penalty, kind = st.gapPenalty(in.score, in.goal), PolicyGap
	default:
		penalty, kind = o.scorePenalty(st, in.score), PolicyScore
	}
	penalty = o.clamp(penalty)
	if lim := capFactor * float64(in.trigger); in.trigger > 0 && penalty > lim {
		penalty = o.clamp(lim)
	}
	st.count++
	st.last, st.lastAt, st.lastS = penalty, in.now, in.score
	return penalty, kind
}

// initialPenalty is p1 = sqrt(td(victim) × te(noisy)) − te(noisy), MinPenalty
// where the model degenerates. td is the triggering wait — the victim's whole
// deferring time would charge this pBox for delays others caused — or, lacking
// one, the victim's mean.
func (o *Options) initialPenalty(in actionInputs) float64 {
	td := float64(in.trigger)
	if td <= 0 {
		td = in.victimAvgDefer
	}
	if td <= 0 || in.noisyExec <= 0 {
		return float64(o.MinPenalty)
	}
	// A p1 ≤ 0 says the noisy activity already runs longer than the optimum:
	// start from the smallest effective penalty.
	if p1 := math.Sqrt(td*in.noisyExec) - in.noisyExec; p1 > 0 {
		return p1
	}
	return float64(o.MinPenalty)
}

// scorePenalty is p(i+1) = p1 × (1 + score/α): a penalty that did not lower
// the victim's s(i) raises the score, one that did lowers it. The decay bound
// (§5.9) keeps a step anchored at p1 from collapsing a gap escalation at once.
func (o *Options) scorePenalty(st *pairState, s float64) float64 {
	if s >= st.lastS {
		st.score++
	} else if st.score > 0 {
		st.score--
	}
	return max(st.p1*(1+st.score/alpha), st.last*maxDecay)
}

// gapPenalty is p(i+1) = p(i) × gap/δ with gap = s(i+1) − goal and
// δ = 1 − s(i)/s(i+1): decaying once the goal is met, and with δ floored and
// the step capped because a score that barely moved would explode it.
func (st *pairState) gapPenalty(s, goal float64) float64 {
	gap := s - goal
	if gap <= 0 {
		return st.last * maxDecay
	}
	if s <= 0 {
		return st.last
	}
	return min(st.last*gap/max(1-st.lastS/s, minGapDelta), st.last*maxGapStep)
}

// clamp bounds a penalty length to [MinPenalty, MaxPenalty].
func (o *Options) clamp(p float64) float64 {
	if p < float64(o.MinPenalty) {
		return float64(o.MinPenalty)
	}
	return min(p, float64(o.MaxPenalty))
}
