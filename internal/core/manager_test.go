package core

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// harness drives a Manager with a hand-cranked clock and recorded sleeps so
// detection and penalty behaviour is fully deterministic.
type harness struct {
	t      *testing.T
	m      *Manager
	now    int64
	sleeps []time.Duration
}

func newHarness(t *testing.T, mutate ...func(*Options)) *harness {
	h := &harness{t: t}
	opts := Options{
		MinPenalty: 10 * time.Microsecond,
		MaxPenalty: 100 * time.Millisecond,
		TraceSize:  256,
	}
	opts.Now = func() int64 { return h.now }
	opts.Sleep = func(d time.Duration) {
		h.sleeps = append(h.sleeps, d)
		h.now += int64(d) // sleeping advances time
	}
	for _, f := range mutate {
		f(&opts)
	}
	h.m = NewManager(opts)
	return h
}

func (h *harness) advance(d time.Duration) { h.now += int64(d) }

// contention returns key's live waiter/holder counts from a precise Status
// (the zero counts when nobody waits on or holds it).
func contention(m *Manager, key ResourceKey) ResourceView {
	for _, r := range m.Status().Resources {
		if r.Key == key {
			return r
		}
	}
	return ResourceView{Key: key}
}

// preciseTrace returns the whole trace ring after a precise Status, so
// spooled events have reached it.
func preciseTrace(m *Manager) []TraceEntry {
	m.Status()
	tr, _ := m.TraceView(0)
	return tr
}

func (h *harness) pbox(level float64) *PBox {
	h.t.Helper()
	p, err := h.m.Create(IsolationRule{Type: Relative, Level: level, Metric: MetricAverage})
	if err != nil {
		h.t.Fatalf("Create: %v", err)
	}
	return p
}

func (h *harness) totalSleep() time.Duration {
	var s time.Duration
	for _, d := range h.sleeps {
		s += d
	}
	return s
}

func TestCreateRejectsInvalidRule(t *testing.T) {
	h := newHarness(t)
	if _, err := h.m.Create(IsolationRule{Type: Relative, Level: 0}); err == nil {
		t.Fatal("expected error for zero isolation level")
	}
	if _, err := h.m.Create(IsolationRule{Type: Relative, Level: -1}); err == nil {
		t.Fatal("expected error for negative isolation level")
	}
}

func TestLifecycle(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	if got := p.State(); got != StateStarted {
		t.Fatalf("state after create = %v, want started", got)
	}
	h.m.Activate(p)
	if got := p.State(); got != StateActive {
		t.Fatalf("state after activate = %v, want active", got)
	}
	h.advance(time.Millisecond)
	h.m.Freeze(p)
	if got := p.State(); got != StateFrozen {
		t.Fatalf("state after freeze = %v, want frozen", got)
	}
	snap := p.snapshot()
	if snap.Activities != 1 {
		t.Fatalf("activities = %d, want 1", snap.Activities)
	}
	if snap.TotalExec != time.Millisecond {
		t.Fatalf("total exec = %v, want 1ms", snap.TotalExec)
	}
	if err := h.m.Release(p); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := h.m.Release(p); !errors.Is(err, ErrReleased) {
		t.Fatalf("double release err = %v, want ErrReleased", err)
	}
	if len(h.m.Status().Snapshots) != 0 {
		t.Fatalf("live = %d, want 0", len(h.m.Status().Snapshots))
	}
}

func TestDeferAccounting(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	h.m.Activate(p)
	key := ResourceKey(7)

	h.m.Update(p, key, Prepare)
	if contention(h.m, key).Waiters != 1 {
		t.Fatalf("waiters = %d, want 1", contention(h.m, key).Waiters)
	}
	h.advance(300 * time.Microsecond)
	h.m.Update(p, key, Enter)
	if contention(h.m, key).Waiters != 0 {
		t.Fatalf("waiters after enter = %d, want 0", contention(h.m, key).Waiters)
	}
	h.advance(700 * time.Microsecond)
	h.m.Freeze(p)

	snap := p.snapshot()
	if snap.TotalDefer != 300*time.Microsecond {
		t.Fatalf("defer = %v, want 300µs", snap.TotalDefer)
	}
	// Tf = 300 / (1000-300) ≈ 0.4286
	want := 300.0 / 700.0
	if diff := snap.InterferenceLevel - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("interference level = %v, want %v", snap.InterferenceLevel, want)
	}
}

func TestEventsIgnoredOutsideActiveWindow(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	key := ResourceKey(1)
	h.m.Update(p, key, Prepare) // not active yet
	if contention(h.m, key).Waiters != 0 {
		t.Fatal("event before activate should be ignored")
	}
	h.m.Activate(p)
	h.m.Freeze(p)
	h.m.Update(p, key, Prepare) // frozen
	if contention(h.m, key).Waiters != 0 {
		t.Fatal("event after freeze should be ignored")
	}
}

// TestAlgorithm1Detection reproduces the canonical detection flow: a noisy
// pBox holds a resource; a victim prepares, waits long enough that its
// projected interference level exceeds its goal; when the noisy pBox
// unholds, the manager identifies it and applies a penalty at its safe
// point.
func TestAlgorithm1Detection(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	key := ResourceKey(42)

	h.m.Activate(noisy)
	h.m.Activate(victim)

	// Noisy acquires the resource.
	h.m.Update(noisy, key, Prepare)
	h.m.Update(noisy, key, Enter)
	h.m.Update(noisy, key, Hold)

	// Victim runs 100µs, then waits 900µs for the resource:
	// te=1000µs, td=900µs, tf = 900/100 = 9 > 0.5.
	h.advance(100 * time.Microsecond)
	h.m.Update(victim, key, Prepare)
	h.advance(900 * time.Microsecond)

	// Noisy releases: detection should fire and, since noisy holds
	// nothing else, the penalty is served immediately.
	h.m.Update(noisy, key, Unhold)

	if len(h.sleeps) != 1 {
		t.Fatalf("penalties applied = %d, want 1 (sleeps: %v)", len(h.sleeps), h.sleeps)
	}
	if h.m.TotalActions() != 1 {
		t.Fatalf("actions = %d, want 1", h.m.TotalActions())
	}
	snap := noisy.snapshot()
	if snap.PenaltiesReceived != 1 || snap.PenaltyTotal <= 0 {
		t.Fatalf("noisy snapshot = %+v, want 1 penalty", snap)
	}
}

// TestLateHolderBlamedForOverlapOnly: a holder that acquired the resource
// after the waiter started waiting is blamed for exactly the overlap of its
// hold with the wait (the paper's line-23 predates-the-waiter condition is
// the single-long-hold special case; overlap also charges re-acquisition
// past sleeping waiters — see DESIGN.md).
func TestLateHolderBlamedForOverlapOnly(t *testing.T) {
	h := newHarness(t)
	late := h.pbox(0.5)
	victim := h.pbox(0.5)
	key := ResourceKey(42)

	h.m.Activate(late)
	h.m.Activate(victim)

	h.advance(50 * time.Microsecond)
	h.m.Update(victim, key, Prepare) // victim waits first
	h.advance(100 * time.Microsecond)
	h.m.Update(late, key, Hold) // late holder arrives afterwards
	h.advance(2 * time.Millisecond)
	h.m.Update(late, key, Unhold)

	if got := h.m.TotalActions(); got != 1 {
		t.Fatalf("actions = %d, want 1 (late holder blamed for its overlap)", got)
	}
	// p1 = sqrt(overlap × te_noisy) − te_noisy with overlap = 2ms and
	// te(late) = 2.15ms → negative → MinPenalty.
	if len(h.sleeps) != 1 || h.sleeps[0] != 10*time.Microsecond {
		t.Fatalf("penalty = %v, want MinPenalty", h.sleeps)
	}
}

// TestNoActionBelowGoal checks that short waits do not trigger action.
func TestNoActionBelowGoal(t *testing.T) {
	h := newHarness(t)
	holder := h.pbox(0.5)
	waiter := h.pbox(0.5)
	key := ResourceKey(9)

	h.m.Activate(holder)
	h.m.Activate(waiter)
	h.m.Update(holder, key, Hold)
	// Waiter executes 1ms then waits only 50µs: tf ≈ 0.0476 < 0.5.
	h.advance(time.Millisecond)
	h.m.Update(waiter, key, Prepare)
	h.advance(50 * time.Microsecond)
	h.m.Update(holder, key, Unhold)

	if got := h.m.TotalActions(); got != 0 {
		t.Fatalf("actions = %d, want 0", got)
	}
}

// TestPenaltyDeferredUntilAllResourcesReleased verifies the nested-hold
// rule of Section 4.4.1: the penalty is served only when the noisy pBox has
// released everything.
func TestPenaltyDeferredUntilAllResourcesReleased(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	keyA, keyB := ResourceKey(1), ResourceKey(2)

	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, keyA, Hold)
	h.m.Update(noisy, keyB, Hold)

	h.advance(100 * time.Microsecond)
	h.m.Update(victim, keyA, Prepare)
	h.advance(2 * time.Millisecond)

	h.m.Update(noisy, keyA, Unhold) // detection fires, but keyB still held
	if len(h.sleeps) != 0 {
		t.Fatalf("penalty served while still holding keyB: %v", h.sleeps)
	}
	h.m.Update(noisy, keyB, Unhold) // safe point
	if len(h.sleeps) != 1 {
		t.Fatalf("penalties = %d, want 1 after last unhold", len(h.sleeps))
	}
}

// TestPenaltyNotServedWhilePreparing: a pBox that is itself waiting on a
// resource must not serve a penalty (the sleep would pollute its deferring
// time).
func TestPenaltyNotServedWhilePreparing(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	keyA, keyB := ResourceKey(1), ResourceKey(2)

	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, keyA, Hold)
	h.advance(50 * time.Microsecond)
	h.m.Update(victim, keyA, Prepare)
	h.advance(2 * time.Millisecond)

	// Noisy starts waiting on keyB before releasing keyA.
	h.m.Update(noisy, keyB, Prepare)
	h.m.Update(noisy, keyA, Unhold) // action scheduled; noisy still preparing
	if len(h.sleeps) != 0 {
		t.Fatalf("penalty served mid-wait: %v", h.sleeps)
	}
	h.advance(10 * time.Microsecond)
	h.m.Update(noisy, keyB, Enter) // wait over, no holds -> safe point
	if len(h.sleeps) != 1 {
		t.Fatalf("penalties = %d, want 1 after wait ended", len(h.sleeps))
	}
}

// TestInitialPenaltyFormula checks p1 = sqrt(td_victim × te_noisy) −
// te_noisy for a case where the closed form applies.
func TestInitialPenaltyFormula(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	key := ResourceKey(3)

	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, key, Hold)
	h.advance(100 * time.Microsecond) // te_noisy = 100µs at action time... victim waits below
	h.m.Update(victim, key, Prepare)
	h.advance(900 * time.Microsecond)
	// At unhold: te_noisy = 1000µs, defer (td victim live) = 900µs.
	h.m.Update(noisy, key, Unhold)

	if len(h.sleeps) != 1 {
		t.Fatalf("penalties = %d, want 1", len(h.sleeps))
	}
	// p1 = sqrt(900µs × 1000µs) − 1000µs ≈ 948.68µs − 1000µs < 0 → MinPenalty.
	if h.sleeps[0] != 10*time.Microsecond {
		t.Fatalf("p1 = %v, want MinPenalty 10µs", h.sleeps[0])
	}
}

// TestInitialPenaltyPositive exercises the non-degenerate branch of p1.
func TestInitialPenaltyPositive(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	key := ResourceKey(3)

	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, key, Hold)
	h.m.Update(victim, key, Prepare)
	h.advance(4 * time.Millisecond) // te_noisy = 4ms, victim defer = 4ms
	h.m.Update(noisy, key, Unhold)

	if len(h.sleeps) != 1 {
		t.Fatalf("penalties = %d, want 1", len(h.sleeps))
	}
	// p1 = sqrt(4ms × 4ms) − 4ms = 0 → clamped to MinPenalty. Use a victim
	// with longer accumulated defer to get a positive value instead:
	h2 := newHarness(t)
	noisy2 := h2.pbox(0.5)
	victim2 := h2.pbox(0.5)
	h2.m.Activate(victim2)
	h2.m.Activate(noisy2)
	// Noisy holds across an activity boundary: the victim has waited 9ms
	// by release time but the noisy activity that releases is only 1ms
	// old, so p1 = sqrt(9ms×1ms) − 1ms = 2ms.
	h2.m.Update(noisy2, key, Hold)
	h2.m.Update(victim2, key, Prepare)
	h2.advance(8 * time.Millisecond)
	h2.m.Freeze(noisy2)
	h2.m.Activate(noisy2)
	h2.advance(time.Millisecond)
	h2.m.Update(noisy2, key, Unhold)
	if len(h2.sleeps) != 1 {
		t.Fatalf("penalties = %d, want 1", len(h2.sleeps))
	}
	got := h2.sleeps[0]
	if got < 1900*time.Microsecond || got > 2100*time.Microsecond {
		t.Fatalf("p1 = %v, want ≈2ms", got)
	}
}

// TestFixedPenaltyMode: Table 4's comparison mode applies a constant length.
func TestFixedPenaltyMode(t *testing.T) {
	h := newHarness(t, func(o *Options) {
		o.FixedPenalty = 3 * time.Millisecond
	})
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	key := ResourceKey(4)

	h.m.Activate(noisy)
	h.m.Activate(victim)
	for i := 0; i < 3; i++ {
		h.m.Update(noisy, key, Hold)
		h.m.Update(victim, key, Prepare)
		h.advance(2 * time.Millisecond)
		h.m.Update(noisy, key, Unhold)
		h.m.Update(victim, key, Enter)
	}
	for _, d := range h.sleeps {
		if d != 3*time.Millisecond {
			t.Fatalf("fixed penalty = %v, want 3ms", d)
		}
	}
	if len(h.sleeps) != 3 {
		t.Fatalf("penalties = %d, want 3", len(h.sleeps))
	}
}

// TestPBoxLevelMonitor: interference that never trips Algorithm 1 in a
// single activity is caught by the average monitor at freeze time and
// penalizes the last blocker.
func TestPBoxLevelMonitor(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	key := ResourceKey(11)

	h.m.Activate(noisy)
	h.m.Update(noisy, key, Hold)

	// Victim activity: waits 400µs of 1000µs → ratio 400/600 ≈ 0.667,
	// above 0.9×0.5=0.45, but per-wait tf at unhold stays below goal
	// because we interleave enters... Simpler: run the wait, have noisy
	// unhold while victim's projected tf is just under its goal is hard;
	// instead disable Algorithm 1 by having noisy unhold when no waiter
	// is present, and rely on lastBlocker being recorded.
	h.m.Activate(victim)
	h.m.Update(victim, key, Prepare)
	h.advance(400 * time.Microsecond)
	// Noisy unholds while the victim waits: records lastBlocker. The
	// victim's te==td here (it spent its whole activity waiting), so tf
	// is large and Algorithm 1 fires too; accept either path and check
	// the freeze-time monitor on a second, fresh pBox below.
	h.m.Update(noisy, key, Unhold)
	h.m.Update(victim, key, Enter)
	h.advance(600 * time.Microsecond)
	actionsBefore := h.m.TotalActions()
	h.m.Freeze(victim)
	if h.m.TotalActions() <= actionsBefore-1 {
		t.Fatalf("expected pBox-level monitor to evaluate at freeze")
	}
	// Ratio 400/600 ≈ 0.667 ≥ 0.45 → freeze triggers one more action.
	if h.m.TotalActions() != actionsBefore+1 {
		t.Fatalf("actions after freeze = %d, want %d", h.m.TotalActions(), actionsBefore+1)
	}
	// One count of actions: SelfStats' equals what the per-pair history holds.
	history := 0
	for _, r := range h.m.ActionReport() {
		history += r.Actions
	}
	if got, st := h.m.TotalActions(), h.m.SelfStats(); got != int(st.Penalties) || got != history {
		t.Fatalf("TotalActions() = %d, SelfStats().Penalties = %d, ActionReport sums %d", got, st.Penalties, history)
	}
}

// TestPBoxLevelMonitorRespectsDisable checks the DisablePBoxLevel option.
func TestPBoxLevelMonitorRespectsDisable(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.DisablePBoxLevel = true })
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	key := ResourceKey(11)

	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, key, Hold)
	h.m.Update(victim, key, Prepare)
	h.advance(100 * time.Microsecond)
	h.m.Update(noisy, key, Unhold) // tf infinite-ish → Algorithm 1 acts
	algActions := h.m.TotalActions()
	h.m.Update(victim, key, Enter)
	h.advance(10 * time.Microsecond)
	h.m.Freeze(victim)
	if h.m.TotalActions() != algActions {
		t.Fatalf("freeze-time action taken despite DisablePBoxLevel")
	}
}

// TestSharedThreadPenaltyBecomesGate: shared-thread pBoxes are never slept;
// the penalty surfaces as a requeue deadline.
func TestSharedThreadPenaltyBecomesGate(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	h.m.MarkShared(noisy)
	key := ResourceKey(21)

	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, key, Hold)
	h.m.Update(victim, key, Prepare)
	h.advance(3 * time.Millisecond)
	h.m.Update(noisy, key, Unhold)

	if len(h.sleeps) != 0 {
		t.Fatalf("shared-thread pBox was slept directly: %v", h.sleeps)
	}
	if w := h.m.PenaltyWait(noisy); w <= 0 {
		t.Fatalf("PenaltyWait = %v, want > 0", w)
	}
	if w := h.m.PenaltyWait(victim); w != 0 {
		t.Fatalf("victim PenaltyWait = %v, want 0", w)
	}
	// After the deadline passes the pBox is runnable again.
	h.advance(h.m.PenaltyWait(noisy) + time.Microsecond)
	if w := h.m.PenaltyWait(noisy); w != 0 {
		t.Fatalf("PenaltyWait after deadline = %v, want 0", w)
	}
}

// TestFreezeClearsStalePrepares: PREPAREs without matching ENTER must not
// leak into the next activity or the competitor map.
func TestFreezeClearsStalePrepares(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	key := ResourceKey(31)
	h.m.Activate(p)
	h.m.Update(p, key, Prepare)
	h.m.Freeze(p)
	if contention(h.m, key).Waiters != 0 {
		t.Fatalf("stale waiter left after freeze: %d", contention(h.m, key).Waiters)
	}
}

// TestNestedHolds: nested HOLD/UNHOLD on the same key only releases at the
// outermost UNHOLD.
func TestNestedHolds(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	key := ResourceKey(17)
	h.m.Activate(p)
	h.m.Update(p, key, Hold)
	h.m.Update(p, key, Hold)
	if contention(h.m, key).Holders != 1 {
		t.Fatalf("holders = %d, want 1", contention(h.m, key).Holders)
	}
	h.m.Update(p, key, Unhold)
	if contention(h.m, key).Holders != 1 {
		t.Fatalf("holders after inner unhold = %d, want 1", contention(h.m, key).Holders)
	}
	h.m.Update(p, key, Unhold)
	if contention(h.m, key).Holders != 0 {
		t.Fatalf("holders after outer unhold = %d, want 0", contention(h.m, key).Holders)
	}
}

// TestPenaltyLowersNoisyInterferenceLevel: penalty sleep adds execution
// time but no deferring time, so the penalized pBox's own interference
// level drops — the cascade-avoidance property of Section 4.4.1 (a goal
// violation caused by the penalty never reads as interference).
func TestPenaltyLowersNoisyInterferenceLevel(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	key := ResourceKey(2)

	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, key, Hold)
	h.m.Update(victim, key, Prepare)
	h.advance(5 * time.Millisecond)
	h.m.Update(noisy, key, Unhold) // sleeps (advances clock by penalty)
	if len(h.sleeps) != 1 {
		t.Fatalf("penalties = %d, want 1", len(h.sleeps))
	}
	pen := h.sleeps[0]
	h.m.Freeze(noisy)
	snap := noisy.snapshot()
	// Total exec includes the penalty, and defer stays zero, so the
	// noisy pBox's own level is 0 — it can never accuse others because
	// it was penalized.
	want := 5*time.Millisecond + pen
	if snap.TotalExec != want {
		t.Fatalf("noisy exec = %v, want %v (execution + penalty)", snap.TotalExec, want)
	}
	if snap.InterferenceLevel != 0 {
		t.Fatalf("noisy level = %v, want 0", snap.InterferenceLevel)
	}
}

// TestTraceRecordsEvents verifies the trace ring captures lifecycle, events
// and actions.
func TestTraceRecordsEvents(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	h.m.Activate(p)
	h.m.Update(p, ResourceKey(1), Hold)
	h.m.Update(p, ResourceKey(1), Unhold)
	h.m.Freeze(p)
	tr := preciseTrace(h.m)
	if len(tr) < 5 {
		t.Fatalf("trace entries = %d, want >= 5", len(tr))
	}
	var sawHold bool
	for _, e := range tr {
		if e.Kind == KindState && e.Ev == Hold {
			sawHold = true
		}
	}
	if !sawHold {
		t.Fatalf("no HOLD entry in trace: %v", tr)
	}
}

// TestConvergenceSteps exercises the Figure 13 fixed-point metric.
func TestConvergenceSteps(t *testing.T) {
	cases := []struct {
		lengths []float64
		want    int
	}{
		{nil, 0},
		{[]float64{100}, 0},
		{[]float64{100, 100}, 1},
		{[]float64{100, 200, 300, 300, 300}, 3},
		{[]float64{100, 200, 205, 200, 201}, 2},
		{[]float64{300, 200, 100}, 3},
	}
	for i, c := range cases {
		if got := convergenceSteps(c.lengths); got != c.want {
			t.Errorf("case %d: convergenceSteps(%v) = %d, want %d", i, c.lengths, got, c.want)
		}
	}
}

// TestDetectionDisabled: pBoxes with a goal no level reaches are pure
// tracers.
func TestDetectionDisabled(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(unreachableGoal)
	victim := h.pbox(unreachableGoal)
	key := ResourceKey(2)
	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, key, Hold)
	h.m.Update(victim, key, Prepare)
	h.advance(10 * time.Millisecond)
	h.m.Update(noisy, key, Unhold)
	h.m.Update(victim, key, Enter)
	h.m.Freeze(victim)
	if h.m.TotalActions() != 0 {
		t.Fatalf("actions = %d, want 0 with detection disabled", h.m.TotalActions())
	}
	// Accounting still happens.
	if victim.snapshot().TotalDefer == 0 {
		t.Fatal("defer accounting lost with detection disabled")
	}
}

// TestReleaseWhileHoldingCleansUp: releasing a pBox that holds resources and
// waits on others must leave no dangling bookkeeping.
func TestReleaseWhileHoldingCleansUp(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	keyH, keyW := ResourceKey(1), ResourceKey(2)
	h.m.Activate(p)
	h.m.Update(p, keyH, Hold)
	h.m.Update(p, keyW, Prepare)
	if err := h.m.Release(p); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if contention(h.m, keyH).Holders != 0 || contention(h.m, keyW).Waiters != 0 {
		t.Fatalf("dangling bookkeeping after release: holders=%d waiters=%d",
			contention(h.m, keyH).Holders, contention(h.m, keyW).Waiters)
	}
}

// TestMaxMetricRule: a rule with the max metric reacts to a single bad
// activity in the history.
func TestMaxMetricRule(t *testing.T) {
	h := newHarness(t)
	victim, err := h.m.Create(IsolationRule{Type: Relative, Level: 0.5, Metric: MetricMax})
	if err != nil {
		t.Fatal(err)
	}
	noisy := h.pbox(0.5)
	key := ResourceKey(6)
	h.m.Activate(noisy)
	h.m.Update(noisy, key, Hold)

	// One clean activity.
	h.m.Activate(victim)
	h.advance(time.Millisecond)
	h.m.Freeze(victim)

	// One terrible activity: ratio far above goal.
	h.m.Activate(victim)
	h.m.Update(victim, key, Prepare)
	h.advance(800 * time.Microsecond)
	h.m.Update(noisy, key, Unhold) // records lastBlocker + may act
	h.m.Update(victim, key, Enter)
	h.advance(200 * time.Microsecond)
	before := h.m.TotalActions()
	h.m.Freeze(victim)
	// Max metric sees the bad activity (ratio 800/200 = 4) even though the
	// average over both activities ( (0+800)/(1200-800)... ) also high —
	// at minimum the monitor must have acted.
	if h.m.TotalActions() < before {
		t.Fatal("impossible")
	}
	snapLevel := victim.snapshot().InterferenceLevel
	if snapLevel < 3.9 {
		t.Fatalf("max-metric level = %v, want ≈4", snapLevel)
	}
}

// TestReleaseClearsBookkeepingInPlace: Release must leave the destroyed
// pBox's holder/prepare maps empty (cleared in place, not reallocated — the
// release path should shed work, not create garbage) and drop every
// shard-side record the pBox still had.
func TestReleaseClearsBookkeepingInPlace(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(1)
	h.m.Activate(p)
	h.m.Update(p, 1, Prepare) // never entered: stale waiter
	h.m.Update(p, 2, Prepare)
	h.m.Update(p, 2, Enter)
	h.m.Update(p, 2, Hold)
	h.m.Update(p, 3, Hold) // held at release time
	if err := h.m.Release(p); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if p.State() != StateDestroyed {
		t.Fatalf("state after release = %v", p.State())
	}
	if len(p.holders) != 0 || len(p.preparing) != 0 {
		t.Fatalf("released pBox keeps bookkeeping: holders=%d preparing=%d",
			len(p.holders), len(p.preparing))
	}
	if p.holders == nil || p.preparing == nil {
		t.Fatal("release should clear the maps in place, not nil them")
	}
	for _, key := range []ResourceKey{1, 2, 3} {
		if c := contention(h.m, key); c.Waiters != 0 || c.Holders != 0 {
			t.Fatalf("dangling shard bookkeeping on key %v after release", key)
		}
	}
}

// TestFreezeTieIsDeterministic: two blockers that deferred the victim equally
// must not leave the pBox-level verdict to map iteration order (DESIGN.md §11:
// a replayed log reproduces the verdicts); the lower id answers.
func TestFreezeTieIsDeterministic(t *testing.T) {
	for run := 0; run < 200; run++ {
		obs := newRecordingObserver()
		h := newHarness(t, func(o *Options) { o.Observer, o.Sleep = obs, func(time.Duration) {} }) // a served penalty takes no time
		a, b, victim := h.pbox(0.5), h.pbox(0.5), h.pbox(0.5)
		for _, p := range []*PBox{a, b, victim} {
			h.m.Activate(p)
		}
		h.m.Update(a, 1, Hold)
		h.m.Update(b, 2, Hold)
		h.m.Update(victim, 1, Prepare)
		h.m.Update(victim, 2, Prepare)
		h.advance(time.Microsecond)
		h.m.Update(a, 1, Unhold)
		h.m.Update(b, 2, Unhold)
		h.m.Freeze(victim)
		recs := obs.snapshot()
		if last := recs[len(recs)-1]; last.Kind != KindDetection || last.PBox != a.id || last.Victim != victim.id {
			t.Fatalf("run %d: the freeze's verdict is %v, want a detection of pBox %d", run, last, a.id)
		}
	}
}

// TestFreezeBeforeStartIsEmptyActivity: a Freeze whose time precedes the
// activity's start — a manager clock that stepped back, or a FreezeAt stamp
// older than the Activate's read — folds an empty activity into the books, not
// a negative execution (and, through td ≤ te, deferring) time.
func TestFreezeBeforeStartIsEmptyActivity(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	h.advance(time.Millisecond)
	h.m.Activate(p)
	h.m.Update(p, 7, Prepare)
	h.advance(10 * time.Microsecond)
	h.m.Update(p, 7, Enter)
	h.advance(-500 * time.Microsecond) // the clock steps back past the start
	h.m.Freeze(p)
	h.m.Activate(p)
	h.m.FreezeAt(p, h.now-int64(time.Millisecond))

	if s := p.snapshot(); s.Activities != 2 || s.TotalExec != 0 || s.TotalDefer != 0 {
		t.Fatalf("two activities that ended before they started: %+v", s)
	}
	for _, e := range preciseTrace(h.m) {
		if e.Kind == KindActivityEnd && (e.Dur != 0 || e.Exec != 0) {
			t.Fatalf("activity_end row: %v", e.Record)
		}
	}
}

// TestStampedCallsReadNoClock: an activity issued wholly through the At forms —
// spooled events, a slow-path event on a contended key, the lifecycle calls,
// the flushes they cause and the trace ring's rows — takes every time from its
// caller.
func TestStampedCallsReadNoClock(t *testing.T) {
	reads := 0
	m := NewManager(Options{Now: func() int64 { reads++; return 0 }, Sleep: func(time.Duration) {}, TraceSize: 64})
	p, _ := m.Create(DefaultRule())
	w := m.NewWorker()
	w.BindDirect(p) // reads it once, for the penalty gate
	m.markContended(9)
	reads = 0
	for at := int64(100); at < 400; at += 100 {
		m.ActivateAt(p, at)
		for _, key := range []ResourceKey{8, 9} {
			for ev := Prepare; ev <= Unhold; ev++ {
				w.UpdateAt(key, ev, at+int64(ev))
			}
		}
		m.FreezeAt(p, at+50)
	}
	if s := p.snapshot(); reads != 0 || s.Activities != 3 || s.TotalExec != 150 || s.TotalDefer != 6 {
		t.Fatalf("%d clock reads; books %+v", reads, s)
	}
}

// TestFrozen100kMemoryBound gates what an idle tenant costs: 100k registered
// pBoxes that each ran one real activity and were frozen must stay within
// 768 bytes apiece (643 measured on linux/amd64, go1.24; the benchmark reports
// the same figure as core.resident_bytes_per_pbox).
func TestFrozen100kMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-bound sweep skipped in -short")
	}
	h := newHarness(t)
	const n = 100_000
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	pboxes := make([]*PBox, n)
	for i := range pboxes {
		p, err := h.m.Create(DefaultRule())
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		h.m.Activate(p)
		// A bounded resource-key space: the bound under test is bytes per
		// pBox, and per-resource shard-side state (holder indexes, name
		// maps) is charged to resources, not tenants.
		key := ResourceKey(1 + i%4096)
		h.m.Update(p, key, Hold)
		h.advance(10 * time.Microsecond)
		h.m.Update(p, key, Unhold)
		h.m.Freeze(p)
		pboxes[i] = p
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("bytes per frozen pBox: %.0f", per)
	if per > 768 {
		t.Fatalf("frozen bytes/pBox = %.0f, want <= 768", per)
	}
	runtime.KeepAlive(pboxes)
}
