// Package refmodel is the executable specification of the pBox manager: the
// obvious implementation of the paper's Algorithm 1, the pBox-level monitor and
// the three penalty policies with DESIGN.md §5's deviations applied directly —
// one goroutine, plain maps, no shards, spools, contention slots or snapshots.
// A Model is what internal/core must behave like, record for record; the
// differential beside it (FuzzDifferential) holds every ingestion path of the
// real manager to it. It shares no code with internal/core: it uses that
// package's exported value types and constants and calls none of its functions
// or methods, so the spec cannot inherit a bug of the manager it judges. A
// penalty "sleep" takes no model time: the model appends the served rows and
// goes on, as a manager with a no-op Sleep does.
package refmodel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"pbox/internal/core"
)

// historySize is how many activities the score and the tail/max metrics look
// back over (§5.6); ratioCap bounds an interference level (§5.7).
const historySize, ratioCap = 64, 100.0

// The paper's constants: α of the score policy (Section 4.4.2), the share of
// the goal the pBox-level monitor acts from (Section 4.3.1), and how much
// larger than the previous penalty a trigger must be for the gap policy.
const alpha, monitorShare, gapFactor = 5.0, 0.9, 2.0

type (
	hold     struct{ count, since int64 }
	activity struct{ td, te int64 }
)

// blame is one blocker's share of a pBox's deferring time in this activity.
type blame struct {
	by  *pbox
	ns  int64
	key core.ResourceKey
}

type pbox struct {
	id    int
	rule  core.IsolationRule
	state core.State
	start int64 // activity start

	holds map[core.ResourceKey]hold
	waits map[core.ResourceKey]int // outstanding PREPAREs per key

	deferNs               int64 // deferring time of the current activity
	totalDefer, totalExec int64
	activities            int
	history               []activity // newest last, at most historySize
	blames                []blame
	pending               int64 // scheduled, unserved penalty (ns)
	pendVictim            int   // whose verdict scheduled it, and over what
	pendKey               core.ResourceKey
	shared                bool
	until                 int64 // requeue deadline of a shared-thread pBox
}

// waiter is one outstanding PREPARE on a resource.
type waiter struct {
	p     *pbox
	since int64
}

// action is the adaptation state of one (noisy pBox, resource) pair.
type action struct {
	count     int
	p1, last  float64 // first and previous penalty (ns)
	lastAt    int64
	score     float64
	lastScore float64 // s(i): the victim's interference score at the previous action
}

// Model is the reference manager. Not safe for concurrent use.
type Model struct {
	opts    core.Options // the fields that change what the manager decides; Now is required
	nextID  int
	pboxes  map[int]*pbox
	waiters map[core.ResourceKey][]waiter // arrival order
	actions map[[2]uintptr]*action        // by noisy pBox id and resource key
	recs    []core.Record
}

// New returns an empty model deciding by opts, with the manager's defaults.
func New(opts core.Options) *Model {
	opts.MinPenalty = cmp.Or(max(opts.MinPenalty, 0), 200*time.Microsecond)
	opts.MaxPenalty = cmp.Or(max(opts.MaxPenalty, 0), 20*time.Millisecond)
	return &Model{
		opts:    opts,
		pboxes:  make(map[int]*pbox),
		waiters: make(map[core.ResourceKey][]waiter),
		actions: make(map[[2]uintptr]*action),
	}
}

// Records returns the stream so far: what the manager owes a core.RecordObserver.
func (m *Model) Records() []core.Record { return m.recs }

func (m *Model) emit(r core.Record) { m.recs = append(m.recs, r) }

// Create is create_pbox: ids count from 1.
func (m *Model) Create(rule core.IsolationRule) (int, error) {
	if rule.Type != core.Relative || !(rule.Level > 0) || rule.Metric < core.MetricAverage || rule.Metric > core.MetricMax {
		return 0, fmt.Errorf("refmodel: invalid isolation rule %+v", rule)
	}
	m.nextID++
	p := &pbox{id: m.nextID, rule: rule, holds: map[core.ResourceKey]hold{}, waits: map[core.ResourceKey]int{}}
	m.pboxes[p.id] = p
	m.emit(core.Record{Kind: core.KindCreate, PBox: p.id, RuleType: rule.Type, Metric: rule.Metric, Level: rule.Level})
	return p.id, nil
}

// Release is release_pbox: the pBox leaves every book; a pending penalty is
// discarded with it.
func (m *Model) Release(id int) error {
	p := m.pboxes[id]
	if p == nil {
		return fmt.Errorf("refmodel: no pBox %d", id)
	}
	p.state = core.StateDestroyed
	m.dropWaits(p)
	clear(p.holds)
	delete(m.pboxes, id)
	m.emit(core.Record{Kind: core.KindRelease, PBox: id})
	return nil
}

// dropWaits removes every wait record of p.
func (m *Model) dropWaits(p *pbox) {
	for key := range p.waits {
		kept := m.waiters[key][:0]
		for _, w := range m.waiters[key] {
			if w.p != p {
				kept = append(kept, w)
			}
		}
		m.waiters[key] = kept
	}
	clear(p.waits)
}

// Activate is activate_pbox. A penalty carried over from the last activity is
// served first, before the activity clock starts (§4.2).
func (m *Model) Activate(id int) {
	p := m.pboxes[id]
	if p == nil {
		return
	}
	m.safePoint(p)
	p.state, p.start, p.deferNs, p.blames = core.StateActive, m.opts.Now(), 0, nil
	m.emit(core.Record{Kind: core.KindActivate, PBox: id, At: p.start})
}

// Freeze is freeze_pbox: close the activity, run the pBox-level monitor
// (Section 4.3.1), forget waits that never saw their ENTER, and serve the
// pBox's own pending penalty if it holds nothing.
func (m *Model) Freeze(id int) {
	p := m.pboxes[id]
	if p == nil || p.state != core.StateActive {
		return
	}
	now := m.opts.Now()
	p.state = core.StateFrozen
	te := max(now-p.start, 0) // an end before the start is an empty activity
	td := min(p.deferNs, te)
	m.emit(core.Record{Kind: core.KindFreeze, PBox: id, At: now})
	p.totalDefer += td
	p.totalExec += te
	p.activities++
	if p.history = append(p.history, activity{td, te}); len(p.history) > historySize {
		p.history = p.history[1:]
	}
	m.emit(core.Record{Kind: core.KindActivityEnd, PBox: id, Dur: td, Exec: te})
	m.dropWaits(p)
	if level := p.level(); !m.opts.DisablePBoxLevel && !m.opts.DisableDetection && level >= monitorShare*p.rule.Level {
		// The largest contributor to this activity's deferring time; of equals,
		// the pBox with the lower id.
		var worst *blame
		for i := range p.blames {
			b := &p.blames[i]
			if b.by == p || b.by.state == core.StateDestroyed || b.ns <= 0 {
				continue
			}
			if worst == nil || b.ns > worst.ns || b.ns == worst.ns && b.by.id < worst.by.id {
				worst = b
			}
		}
		if worst != nil {
			m.takeAction(worst.by, p, worst.key, now, worst.ns, level)
		}
	}
	m.safePoint(p)
}

// level is the pBox's interference level across its finished activities, by
// its rule's metric.
func (p *pbox) level() float64 {
	if p.rule.Metric == core.MetricAverage {
		return ratio(p.totalDefer, p.totalExec)
	}
	if len(p.history) == 0 {
		return 0
	}
	rs := make([]float64, len(p.history))
	for i, a := range p.history {
		rs[i] = ratio(a.td, a.te)
	}
	sort.Float64s(rs)
	q := map[core.Metric]float64{core.MetricTail: 0.95, core.MetricMax: 1}[p.rule.Metric]
	return rs[min(max(int(q*float64(len(rs)))-1, 0), len(rs)-1)]
}

// ratio is Tf = Td/(Te − Td) (Algorithm 1 line 22 as the text defines it,
// §5.1), capped (§5.7).
func ratio(td, te int64) float64 {
	switch {
	case te <= 0 || td <= 0:
		return 0
	case td >= te:
		return ratioCap
	}
	return math.Min(float64(td)/float64(te-td), ratioCap)
}

// SetShared marks the pBox as running on shared worker threads: its penalties
// become requeue deadlines (PenaltyWait) instead of sleeps. A released id
// emits nothing: a pBox's release row is its last.
func (m *Model) SetShared(id int, shared bool) {
	p := m.pboxes[id]
	if p == nil || p.shared == shared {
		return
	}
	p.shared = shared
	m.emit(core.Record{Kind: core.KindShared, PBox: id, Dur: map[bool]int64{true: 1}[shared]})
}

// PenaltyWait is how much longer a shared-thread pBox must stay queued.
func (m *Model) PenaltyWait(id int) time.Duration {
	if p := m.pboxes[id]; p != nil {
		return time.Duration(max(p.until-m.opts.Now(), 0))
	}
	return 0
}

// Update is update_pbox: one state event of Algorithm 1, then the safe-point
// check. Events outside an active window are ignored.
func (m *Model) Update(id int, key core.ResourceKey, ev core.EventType) {
	p := m.pboxes[id]
	if p == nil || p.state != core.StateActive {
		return
	}
	now := m.opts.Now()
	m.emit(core.Record{Kind: core.KindState, PBox: id, Key: key, Ev: ev, At: now})
	switch ev {
	case core.Prepare:
		m.waiters[key] = append(m.waiters[key], waiter{p, now})
		p.waits[key]++
	case core.Enter:
		// The pBox's oldest wait on the key ends; its length is deferring time.
		ws := m.waiters[key]
		for i, w := range ws {
			if w.p == p {
				m.waiters[key] = append(ws[:i], ws[i+1:]...)
				if p.waits[key]--; p.waits[key] == 0 {
					delete(p.waits, key)
				}
				p.deferNs += max(now-w.since, 0)
				break
			}
		}
	case core.Hold:
		h, held := p.holds[key]
		if !held {
			h.since = now
		}
		h.count++
		p.holds[key] = h
	case core.Unhold:
		h, held := p.holds[key]
		if !held {
			break
		}
		if h.count--; h.count > 0 {
			p.holds[key] = h
			break
		}
		delete(p.holds, key)
		m.settle(p, key, h.since, now)
	}
	m.safePoint(p)
}

// settle is the UNHOLD arm past the release: blame, then detection, over the
// resource's waiters in arrival order (§5.2: a holder is charged the part of
// each wait its hold overlapped).
func (m *Model) settle(p *pbox, key core.ResourceKey, heldSince, now int64) {
	ws := m.waiters[key]
	for _, w := range ws {
		overlap := now - max(w.since, heldSince)
		if overlap <= 0 {
			continue
		}
		v := w.p
		i := slices.IndexFunc(v.blames, func(b blame) bool { return b.by == p })
		if i < 0 {
			i, v.blames = len(v.blames), append(v.blames, blame{by: p})
		}
		v.blames[i].ns += overlap
		v.blames[i].key = key
		m.emit(core.Record{Kind: core.KindBlocked, PBox: p.id, Victim: v.id, Key: key, Dur: overlap})
	}
	for i := range ws {
		w := &ws[i]
		v := w.p
		if v == p || v.state != core.StateActive {
			continue
		}
		te := now - v.start
		waited := max(now-w.since, 0)
		if td := min(v.deferNs+waited, te); !m.opts.DisableDetection && te > 0 {
			// Worst-case projection: the victim is endangered if everything it
			// has waited so far, this wait included, already breaks its goal.
			// The holder answers for it when its hold covers at least a tenth
			// of the wait (§5.3).
			tf := ratio(td, te)
			overlap := now - max(w.since, heldSince)
			if tf > v.rule.Level && overlap > 0 && overlap*10 >= waited {
				m.takeAction(p, v, key, now, overlap, tf)
			}
		}
		// §5.2(a): the release wakes the waiter; if it does not get in it waits
		// anew, and what it waited so far is deferring time already.
		v.deferNs += waited
		w.since = max(w.since, now)
	}
}

// takeAction is take_action(noisy, victim): report the verdict, then size and
// schedule a penalty unless one is still unserved or cooling down (§5.5).
// trigger is the deferring time the noisy pBox answers for.
func (m *Model) takeAction(noisy, victim *pbox, key core.ResourceKey, now, trigger int64, projected float64) {
	if noisy.state == core.StateDestroyed || noisy == victim {
		return
	}
	m.emit(core.Record{Kind: core.KindDetection, PBox: noisy.id, Victim: victim.id, Key: key, Level: projected})
	if noisy.pending > 0 {
		return
	}
	pair := [2]uintptr{uintptr(noisy.id), uintptr(key)}
	a := m.actions[pair]
	if a == nil {
		a = &action{}
		m.actions[pair] = a
	}
	if a.count > 0 && now-a.lastAt < int64(a.last) {
		return
	}
	// s(i), §5.6: the defer-weighted ratio over the victim's recent activities
	// and the live one, or the live one's alone (with the triggering wait) when
	// that is worse.
	var td, te int64
	for _, h := range victim.history {
		td += h.td
		te += h.te
	}
	score := ratio(td, te)
	if victim.state == core.StateActive {
		live := now - victim.start
		score = math.Max(ratio(td+min(victim.deferNs, live), te+live), ratio(victim.deferNs+trigger, live))
	}

	penalty, policy := float64(m.opts.FixedPenalty), core.PolicyFixed
	switch {
	case penalty > 0:
	case a.count == 0:
		penalty, policy = m.initialPenalty(noisy, victim, now, trigger), core.PolicyInitial
		a.p1 = penalty
	case float64(trigger) > gapFactor*a.last:
		// The wait dwarfs the last penalty: p(i+1) = p(i) × gap/δ with
		// gap = s(i+1) − goal and δ = 1 − s(i)/s(i+1), halved when the goal is
		// met and stepped by at most 4×.
		policy = core.PolicyGap
		if gap := score - victim.rule.Level; gap <= 0 {
			penalty = a.last / 2
		} else {
			penalty = math.Min(a.last*gap/math.Max(1-a.lastScore/score, 0.05), a.last*4)
		}
	default:
		// p(i+1) = p1 × (1 + score/α): the score climbs while the victim is no
		// better off than at the last action; a decay is at most ½ (§5.9).
		policy = core.PolicyScore
		if score >= a.lastScore {
			a.score++
		} else if a.score > 0 {
			a.score--
		}
		penalty = math.Max(a.p1*(1+a.score/alpha), a.last/2)
	}
	penalty = m.clamp(penalty)
	if limit := 4 * float64(trigger); trigger > 0 && penalty > limit {
		penalty = m.clamp(limit) // §5.4
	}
	a.count++
	a.last, a.lastAt, a.lastScore = penalty, now, score
	noisy.pending = min(noisy.pending+int64(penalty), int64(m.opts.MaxPenalty))
	noisy.pendVictim, noisy.pendKey = victim.id, key
	m.emit(core.Record{Kind: core.KindAction, PBox: noisy.id, Victim: victim.id, Key: key, Policy: policy, Dur: int64(penalty)})
}

// initialPenalty is p1 = sqrt(td(victim) × te(noisy)) − te(noisy) (Section
// 4.4.2), MinPenalty where the closed form has nothing to say.
func (m *Model) initialPenalty(noisy, victim *pbox, now, trigger int64) float64 {
	td := float64(trigger)
	if td <= 0 && victim.activities > 0 {
		td = float64(victim.totalDefer) / float64(victim.activities)
	}
	var te float64
	if noisy.state == core.StateActive {
		te = float64(now - noisy.start)
	} else if noisy.activities > 0 {
		te = float64(noisy.totalExec) / float64(noisy.activities)
	}
	if p1 := math.Sqrt(td*te) - te; td > 0 && te > 0 && p1 > 0 {
		return p1
	}
	return float64(m.opts.MinPenalty)
}

func (m *Model) clamp(p float64) float64 {
	return math.Min(math.Max(p, float64(m.opts.MinPenalty)), float64(m.opts.MaxPenalty))
}

// safePoint serves p's pending penalty if p holds nothing and waits for
// nothing — only there can a delay neither defer anyone else nor count as p's
// own deferring time (§4.2). A shared-thread pBox is never slept: the penalty
// moves its requeue deadline.
func (m *Model) safePoint(p *pbox) {
	if p.pending <= 0 || len(p.holds) > 0 || len(p.waits) > 0 {
		return
	}
	pen := p.pending
	p.pending = 0
	if p.shared {
		p.until = max(p.until, m.opts.Now()+pen)
		return
	}
	m.emit(core.Record{Kind: core.KindServed, PBox: p.id, Dur: pen})
	m.emit(core.Record{Kind: core.KindServedFor, PBox: p.id, Victim: p.pendVictim, Key: p.pendKey, Dur: pen})
}
