package core

import (
	"math"
	"sort"
	"time"
)

// PolicyKind identifies which adaptive policy produced a penalty length.
type PolicyKind int

const (
	// PolicyInitial is the first action on a (noisy pBox, resource) pair,
	// sized by the closed-form p1 = sqrt(td_victim × te_noisy) − te_noisy
	// derived from the one-noisy/one-victim model (Section 4.4.2).
	PolicyInitial PolicyKind = iota
	// PolicyScore is the score-based policy: each ineffective action
	// bumps a score and the next length is p1 × (1 + score/α).
	PolicyScore
	// PolicyGap is the gradient-descent-inspired policy:
	// p_{i+1} = p_i × gap/δ with gap = s(i+1) − λ and δ = 1 − s(i)/s(i+1).
	PolicyGap
	// PolicyFixed is the fixed-length mode used for the Table 4
	// comparison.
	PolicyFixed
)

// String returns a readable policy name.
func (k PolicyKind) String() string {
	switch k {
	case PolicyInitial:
		return "initial"
	case PolicyScore:
		return "score"
	case PolicyGap:
		return "gap"
	case PolicyFixed:
		return "fixed"
	default:
		return "unknown"
	}
}

// actionKey identifies the per-(noisy pBox, resource) penalty history.
type actionKey struct {
	noisyID int
	key     ResourceKey
}

// actionState is the mutable penalty-adaptation state for one pair.
type actionState struct {
	count        int
	p1           float64 // initial penalty (ns)
	lastPenalty  float64 // previous penalty length (ns)
	lastActionAt int64   // manager-clock time of the previous action
	score        float64
	lastS        float64 // s(i): victim interference score at previous action
	lengths      []float64
	policies     []PolicyKind
}

// actionHistory records every action the manager has taken, for both the
// adaptive policies and the evaluation figures. Guarded by m.verdictMu.
type actionHistory struct {
	states map[actionKey]*actionState
	order  []actionKey // insertion order for deterministic reports
}

func newActionHistory() *actionHistory {
	return &actionHistory{states: make(map[actionKey]*actionState)}
}

func (h *actionHistory) get(k actionKey) *actionState {
	st := h.states[k]
	if st == nil {
		st = &actionState{}
		h.states[k] = st
		h.order = append(h.order, k)
	}
	return st
}

// takeActionVerdict is take_action(noisy, victim) from Algorithm 1: compute
// a penalty length for the noisy pBox and schedule it. triggerDefer is the
// deferring time of the wait that triggered this action; the dynamic policy
// choice compares it against the previous penalty ("If the deferring time
// is much larger than the penalty, it chooses the second policy",
// Section 4.4.2). projected is the interference level the detector saw cross
// the victim's goal, reported to the Observer as the detection verdict. The
// penalty is not executed here — the noisy pBox may still hold resources; it
// is applied at the noisy pBox's next safe point.
//
// Caller holds m.verdictMu (the cold-path epoch lock), which guards the
// action history and serializes the policy feedback loop; per-pBox reads
// and writes take the relevant leaf lock (victim.actMu, noisy.actMu,
// noisy.penMu) one at a time.
func (m *Manager) takeActionVerdict(noisy, victim *PBox, key ResourceKey, now, triggerDefer int64, projected float64) {
	if noisy == nil || noisy.stateIs(StateDestroyed) || noisy == victim {
		return
	}
	if m.obs != nil {
		m.obs.Detection(noisy.id, victim.id, key, projected)
	}
	if e := m.attrVerdict(noisy, victim, key); e != nil {
		e.detections++
	}
	// A penalty that has not been served yet must not be stacked: the
	// adaptation compares the victim's state before and after a penalty
	// (Section 4.4.2), so a new action only makes sense once the previous
	// one has had a chance to take effect.
	if noisy.pendingPenalty.Load() > 0 {
		return
	}
	st := m.actions.get(actionKey{noisyID: noisy.id, key: key})
	if st.count > 0 && now-st.lastActionAt < int64(st.lastPenalty) {
		return
	}
	// s(i): the victim's interference score. The windowed aggregate covers
	// sustained interference; the live activity's ratio (including the
	// wait that triggered this action) covers episodic starvation that a
	// healthy history would otherwise dilute. Also read the victim-side
	// inputs of the initial-penalty model in the same hold.
	victim.actMu.Lock()
	sNow := victim.currentRatioLocked(now)
	if victim.stateIs(StateActive) {
		ltd := victim.deferTime + triggerDefer
		lte := now - victim.activityStart.Load()
		if sLive := averageRatio(ltd, lte); sLive > sNow {
			sNow = sLive
		}
	}
	victimAvgDefer := float64(0)
	if victim.activities > 0 {
		victimAvgDefer = float64(victim.totalDefer) / float64(victim.activities)
	}
	victim.actMu.Unlock()

	var penalty float64
	var kind PolicyKind
	switch {
	case m.opts.FixedPenalty > 0:
		penalty, kind = float64(m.opts.FixedPenalty), PolicyFixed
	case st.count == 0:
		penalty, kind = m.initialPenalty(noisy, now, triggerDefer, victimAvgDefer), PolicyInitial
		st.p1 = penalty
	default:
		// Dynamic policy choice: gap-based when the triggering wait
		// dwarfs the previous penalty, score-based otherwise.
		if float64(triggerDefer) > m.opts.GapPolicyFactor*st.lastPenalty {
			penalty, kind = m.gapPenalty(st, sNow, victim.rule.Level), PolicyGap
		} else {
			penalty, kind = m.scorePenalty(st, sNow), PolicyScore
		}
	}
	penalty = m.clampPenalty(penalty)
	// Proportionality cap: a penalty is sized to push back against the
	// delay this pBox inflicts; letting the adaptive score ratchet a
	// pBox that contributes microseconds up to multi-millisecond delays
	// would manufacture new interference instead of mitigating it.
	if lim := 4 * float64(triggerDefer); triggerDefer > 0 && penalty > lim {
		penalty = m.clampPenalty(lim)
	}
	st.count++
	st.lastPenalty = penalty
	st.lastActionAt = now
	st.lastS = sNow
	st.lengths = append(st.lengths, penalty)
	st.policies = append(st.policies, kind)

	noisy.penMu.Lock()
	pending := noisy.pendingPenalty.Load() + int64(penalty)
	if limit := int64(m.opts.MaxPenalty); pending > limit {
		pending = limit
	}
	noisy.pendingPenalty.Store(pending)
	noisy.pendingAttrVictim = victim.id
	noisy.pendingAttrKey = key
	noisy.penMu.Unlock()
	if e := m.attrVerdict(noisy, victim, key); e != nil {
		e.actions++
		e.scheduledNs += int64(penalty)
	}
	if m.obs != nil {
		m.obs.PenaltyAction(noisy.id, victim.id, key, kind, time.Duration(penalty))
	}
}

// initialPenalty computes p1 = sqrt(td(victim) × te(noisy)) − te(noisy)
// (Section 4.4.2), falling back to MinPenalty when the model degenerates.
// victimAvgDefer is the victim's per-activity average deferring time, read
// by the caller under the victim's actMu; the noisy pBox's side is read
// here under its own leaf lock.
func (m *Manager) initialPenalty(noisy *PBox, now, triggerDefer int64, victimAvgDefer float64) float64 {
	// The deferring time attributed to this noisy pBox is the wait that
	// triggered the action — using the victim's whole activity defer here
	// would charge this pBox for delays other pBoxes caused.
	tdVictim := float64(triggerDefer)
	if tdVictim <= 0 {
		tdVictim = victimAvgDefer
	}
	teNoisy := float64(0)
	if noisy.stateIs(StateActive) {
		teNoisy = float64(now - noisy.activityStart.Load())
	} else {
		noisy.actMu.Lock()
		if noisy.activities > 0 {
			teNoisy = float64(noisy.totalExec) / float64(noisy.activities)
		}
		noisy.actMu.Unlock()
	}
	if tdVictim <= 0 || teNoisy <= 0 {
		return float64(m.opts.MinPenalty)
	}
	p1 := math.Sqrt(tdVictim*teNoisy) - teNoisy
	if p1 <= 0 {
		// The model says the noisy activity already runs longer than the
		// optimum; start from the smallest effective penalty.
		return float64(m.opts.MinPenalty)
	}
	return p1
}

// scorePenalty implements the score-based policy. A previous penalty that
// failed to reduce the victim's interference score increments the score;
// an effective one decrements it while positive.
func (m *Manager) scorePenalty(st *actionState, sNow float64) float64 {
	if sNow >= st.lastS {
		st.score++
	} else if st.score > 0 {
		st.score--
	}
	next := st.p1 * (1 + st.score/m.opts.Alpha)
	// When the manager alternates between the two policies on one pair, a
	// score step must not collapse a gap-policy escalation in one jump;
	// decays are bounded to half the previous length per action.
	if next < st.lastPenalty/2 {
		next = st.lastPenalty / 2
	}
	return next
}

// gapPenalty implements the gradient-inspired policy:
// p_{i+1} = p_i × gap/δ, gap = s(i+1) − λ, δ = 1 − s(i)/s(i+1).
// Guards: when the goal is already met (gap ≤ 0) the penalty decays; when
// the score barely moved (δ ≈ 0) a full step would explode, so the step is
// capped at 4× the previous length.
func (m *Manager) gapPenalty(st *actionState, sNow, goal float64) float64 {
	gap := sNow - goal
	if gap <= 0 {
		return st.lastPenalty / 2
	}
	if sNow <= 0 {
		return st.lastPenalty
	}
	delta := 1 - st.lastS/sNow
	if delta < 0.05 {
		delta = 0.05
	}
	next := st.lastPenalty * gap / delta
	if maxStep := st.lastPenalty * 4; next > maxStep {
		next = maxStep
	}
	return next
}

// clampPenalty bounds a penalty length to [MinPenalty, MaxPenalty].
func (m *Manager) clampPenalty(p float64) float64 {
	if p < float64(m.opts.MinPenalty) {
		return float64(m.opts.MinPenalty)
	}
	if p > float64(m.opts.MaxPenalty) {
		return float64(m.opts.MaxPenalty)
	}
	return p
}

// ActionRecord summarizes the penalty history for one (noisy pBox,
// resource) pair; the experiment harness aggregates these into Figures 13
// and 14.
type ActionRecord struct {
	NoisyID      int
	Key          ResourceKey
	Actions      int
	Lengths      []time.Duration
	Policies     []PolicyKind
	ScoreActions int
	GapActions   int
	// ConvergenceSteps is the 1-based index of the first action after
	// which every subsequent penalty length stays within 10% of the final
	// length (the "steps for the penalty length to converge to a fixed
	// point" of Figure 13). Zero when fewer than two actions were taken.
	ConvergenceSteps int
}

// ActionReport returns one record per (noisy, resource) pair, in first-action
// order.
func (m *Manager) ActionReport() []ActionRecord {
	m.verdictMu.Lock()
	defer m.verdictMu.Unlock()
	out := make([]ActionRecord, 0, len(m.actions.order))
	for _, k := range m.actions.order {
		st := m.actions.states[k]
		rec := ActionRecord{
			NoisyID: k.noisyID,
			Key:     k.key,
			Actions: st.count,
		}
		for i, l := range st.lengths {
			rec.Lengths = append(rec.Lengths, time.Duration(l))
			switch st.policies[i] {
			case PolicyScore:
				rec.ScoreActions++
			case PolicyGap:
				rec.GapActions++
			}
		}
		rec.Policies = append(rec.Policies, st.policies...)
		rec.ConvergenceSteps = convergenceSteps(st.lengths)
		out = append(out, rec)
	}
	return out
}

// TotalActions returns the total number of penalty actions taken.
func (m *Manager) TotalActions() int {
	m.verdictMu.Lock()
	defer m.verdictMu.Unlock()
	n := 0
	for _, st := range m.actions.states {
		n += st.count
	}
	return n
}

// PenaltyLengths returns every penalty length applied, sorted ascending
// (Figure 14's distribution).
func (m *Manager) PenaltyLengths() []time.Duration {
	m.verdictMu.Lock()
	defer m.verdictMu.Unlock()
	var out []time.Duration
	for _, st := range m.actions.states {
		for _, l := range st.lengths {
			out = append(out, time.Duration(l))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// convergenceSteps finds the first index i (1-based) such that all lengths
// from i onward lie within ±10% of the final length.
func convergenceSteps(lengths []float64) int {
	if len(lengths) < 2 {
		return 0
	}
	final := lengths[len(lengths)-1]
	if final <= 0 {
		return 0
	}
	lo, hi := final*0.9, final*1.1
	steps := len(lengths)
	for i := len(lengths) - 1; i >= 0; i-- {
		if lengths[i] < lo || lengths[i] > hi {
			break
		}
		steps = i + 1
	}
	return steps
}
