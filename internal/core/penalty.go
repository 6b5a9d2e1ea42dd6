package core

import "time"

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

// actionState is one pair's adaptation state with the lengths and policies of
// every action taken on it (Figures 13 and 14).
type actionState struct {
	pairState
	lengths  []float64
	policies []PolicyKind
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

// takeActionVerdict is take_action(noisy, victim) from Algorithm 1: report the
// verdict, gather what the judge sizes a penalty from (judge.go's decide), and
// schedule the penalty on the noisy pBox. triggerDefer is the deferring time of
// the wait that triggered the action; projected is the interference level the
// detector saw cross the victim's goal. The penalty is not executed here — the
// noisy pBox may still hold resources; it is served at its next safe point.
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
	// A penalty that has not been served yet must not be stacked (a new action
	// only makes sense once the previous one had a chance to take effect), and
	// a pair that was never acted on gets no history entry: ActionReport lists
	// no pair with zero actions.
	if noisy.pendingPenalty.Load() > 0 {
		return
	}
	st := m.actions.get(actionKey{noisyID: noisy.id, key: key})
	if st.cooling(now) {
		return
	}
	in := actionInputs{now: now, trigger: triggerDefer, goal: victim.rule.Level}
	victim.actMu.Lock()
	var td, te int64
	for _, r := range victim.history {
		td += r.td
		te += r.te
	}
	in.score = adaptiveScore(td, te, victim.stateIs(StateActive),
		victim.deferTime, now-victim.activityStart.Load(), triggerDefer)
	if victim.activities > 0 {
		in.victimAvgDefer = float64(victim.totalDefer) / float64(victim.activities)
	}
	victim.actMu.Unlock()
	if noisy.stateIs(StateActive) {
		in.noisyExec = float64(now - noisy.activityStart.Load())
	} else {
		noisy.actMu.Lock()
		if noisy.activities > 0 {
			in.noisyExec = float64(noisy.totalExec) / float64(noisy.activities)
		}
		noisy.actMu.Unlock()
	}

	penalty, kind := m.opts.decide(&st.pairState, in)
	st.lengths = append(st.lengths, penalty)
	st.policies = append(st.policies, kind)

	noisy.penMu.Lock()
	noisy.pendingPenalty.Store(int64(penalty)) // nothing pending: checked above
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
