package core

import (
	"sync"
	"testing"
	"time"
)

// attrRecorder keeps the attribution side of the record stream (Blocked and
// PenaltyServedFor) and ignores the rest.
type attrRecorder struct {
	RecordObserver
	mu      sync.Mutex
	blocked []Record
	served  []Record
}

func newAttrRecorder() *attrRecorder {
	a := &attrRecorder{}
	a.Sink = a
	return a
}

func (a *attrRecorder) Record(rec Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch rec.Kind {
	case KindBlocked:
		a.blocked = append(a.blocked, rec)
	case KindServedFor:
		a.served = append(a.served, rec)
	}
}

// driveNoisyVictim runs one hold-overlapping-wait cycle: noisy holds key,
// victim waits d, noisy releases (detection fires here), victim enters.
func driveNoisyVictim(h *harness, noisy, victim *PBox, key ResourceKey, d time.Duration) {
	h.m.Update(noisy, key, Hold)
	h.m.Update(victim, key, Prepare)
	h.advance(d)
	h.m.Update(noisy, key, Unhold)
	h.m.Update(victim, key, Enter)
}

func TestAttributionLedgerAccumulates(t *testing.T) {
	obs := newAttrRecorder()
	h := newHarness(t, func(o *Options) {
		o.Attribution = true
		o.Observer = obs
	})
	key := ResourceKey(0x10)
	h.m.NameResource(key, "undo_log")
	noisy := h.pbox(0.5)
	h.m.SetLabel(noisy, "purge")
	victim := h.pbox(0.5)
	h.m.SetLabel(victim, "reader")
	h.m.Activate(noisy)
	h.m.Activate(victim)

	driveNoisyVictim(h, noisy, victim, key, 5*time.Millisecond)
	h.m.Freeze(victim)
	h.m.Freeze(noisy)

	recs := h.m.Status().Attribution
	if len(recs) == 0 {
		t.Fatal("attribution ledger is empty after an overlapping hold")
	}
	r := recs[0]
	if r.CulpritID != noisy.ID() || r.VictimID != victim.ID() || r.Key != key {
		t.Fatalf("top record = %+v, want culprit=%d victim=%d key=%#x", r, noisy.ID(), victim.ID(), uintptr(key))
	}
	if r.CulpritLabel != "purge" || r.VictimLabel != "reader" || r.Resource != "undo_log" {
		t.Fatalf("labels not resolved: %+v", r)
	}
	if r.Blocked < 5*time.Millisecond {
		t.Fatalf("blocked time %v, want >= 5ms", r.Blocked)
	}
	if r.Detections == 0 || r.Actions == 0 {
		t.Fatalf("detections=%d actions=%d, want both nonzero", r.Detections, r.Actions)
	}
	if r.PenaltyScheduled <= 0 {
		t.Fatalf("penalty scheduled = %v, want > 0", r.PenaltyScheduled)
	}
	if r.PenaltyServed <= 0 {
		t.Fatalf("penalty served = %v, want > 0 (total slept %v)", r.PenaltyServed, h.totalSleep())
	}
	if r.PenaltyServed > r.PenaltyScheduled {
		t.Fatalf("served %v exceeds scheduled %v", r.PenaltyServed, r.PenaltyScheduled)
	}

	// The AttributionObserver stream saw the same chain.
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.blocked) == 0 {
		t.Fatal("Blocked callback never fired")
	}
	if obs.blocked[0].PBox != noisy.ID() || obs.blocked[0].Victim != victim.ID() {
		t.Fatalf("Blocked reported %+v", obs.blocked[0])
	}
	if len(obs.served) == 0 {
		t.Fatal("PenaltyServedFor callback never fired")
	}
	if obs.served[0].PBox != noisy.ID() || obs.served[0].Victim != victim.ID() {
		t.Fatalf("PenaltyServedFor reported %+v", obs.served[0])
	}
}

func TestAttributionSurvivesRelease(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.Attribution = true })
	key := ResourceKey(0x11)
	noisy := h.pbox(0.5)
	h.m.SetLabel(noisy, "noisy-conn")
	victim := h.pbox(0.5)
	h.m.SetLabel(victim, "victim-conn")
	h.m.Activate(noisy)
	h.m.Activate(victim)
	driveNoisyVictim(h, noisy, victim, key, 3*time.Millisecond)
	h.m.Freeze(victim)
	h.m.Freeze(noisy)
	if err := h.m.Release(noisy); err != nil {
		t.Fatal(err)
	}
	if err := h.m.Release(victim); err != nil {
		t.Fatal(err)
	}

	recs := h.m.Status().Attribution
	if len(recs) == 0 {
		t.Fatal("ledger lost its entries after release")
	}
	if recs[0].CulpritLabel != "noisy-conn" || recs[0].VictimLabel != "victim-conn" {
		t.Fatalf("released pBoxes lost their labels: %+v", recs[0])
	}
}

func TestAttributionDisabledReturnsNil(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	h.m.Activate(noisy)
	h.m.Activate(victim)
	driveNoisyVictim(h, noisy, victim, ResourceKey(1), 3*time.Millisecond)
	if recs := h.m.Status().Attribution; recs != nil {
		t.Fatalf("Attribution() = %v with attribution disabled, want nil", recs)
	}
	st := h.m.Status()
	if st.Attribution != nil {
		t.Fatalf("Status().Attribution = %v with attribution disabled", st.Attribution)
	}
	if len(st.Snapshots) != 2 {
		t.Fatalf("Status().Snapshots has %d entries, want 2", len(st.Snapshots))
	}
}

func TestStatusCombinedViewIsConsistent(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.Attribution = true })
	key := ResourceKey(0x12)
	h.m.NameResource(key, "cache_lock")
	noisy := h.pbox(0.5)
	h.m.SetLabel(noisy, "noisy")
	victim := h.pbox(0.5)
	h.m.SetLabel(victim, "victim")
	h.m.Activate(noisy)
	h.m.Activate(victim)
	driveNoisyVictim(h, noisy, victim, key, 4*time.Millisecond)
	h.m.Freeze(victim)

	st := h.m.Status()
	if len(st.Snapshots) != 2 || len(st.Attribution) == 0 {
		t.Fatalf("Status: %d snapshots, %d attribution rows", len(st.Snapshots), len(st.Attribution))
	}
	labels := make(map[int]string)
	for _, s := range st.Snapshots {
		labels[s.ID] = s.Label
	}
	for _, r := range st.Attribution {
		if got := labels[r.CulpritID]; got != r.CulpritLabel {
			t.Fatalf("culprit %d: ledger label %q, snapshot label %q", r.CulpritID, r.CulpritLabel, got)
		}
		if got := labels[r.VictimID]; got != r.VictimLabel {
			t.Fatalf("victim %d: ledger label %q, snapshot label %q", r.VictimID, r.VictimLabel, got)
		}
		if r.Resource != "cache_lock" {
			t.Fatalf("resource name %q, want cache_lock", r.Resource)
		}
	}
}

func TestAttributionLedgerCap(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.Attribution = true })
	victim := h.pbox(unreachableGoal)
	h.m.Activate(victim)
	// One culprit per round against a distinct resource key overflows the
	// triple cap; the ledger must stop growing and count the drops.
	rounds := maxAttrEntries + 50
	for i := 0; i < rounds; i++ {
		key := ResourceKey(0x1000 + i)
		noisy := h.pbox(unreachableGoal)
		h.m.Activate(noisy)
		driveNoisyVictim(h, noisy, victim, key, 10*time.Microsecond)
		h.m.Freeze(noisy)
		if err := h.m.Release(noisy); err != nil {
			t.Fatal(err)
		}
	}
	recs := h.m.Status().Attribution
	if len(recs) != maxAttrEntries {
		t.Fatalf("ledger holds %d entries, want capped at %d", len(recs), maxAttrEntries)
	}
	if d := h.m.Status().AttributionDropped; d != 50 {
		t.Fatalf("dropped = %d, want 50", d)
	}
}

// TestAttributionDisabledAllocFree extends the PR-1 discipline: with the
// ledger disabled the attribution sites must add zero allocations to the
// event hot path.
func TestAttributionDisabledAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	m := NewManager(Options{})
	p, _ := m.Create(DefaultRule())
	m.Activate(p)
	key := ResourceKey(7)
	for i := 0; i < 100; i++ {
		runDisabledEventPath(m, p, key)
	}
	allocs := testing.AllocsPerRun(1000, func() { runDisabledEventPath(m, p, key) })
	if allocs != 0 {
		t.Fatalf("event path with attribution disabled allocates %.1f objects per op, want 0", allocs)
	}
}

// attrNop is the cheapest AttributionObserver, for hook-path benchmarks.
type attrNop struct{ nopObserver }

func (attrNop) Blocked(int, int, ResourceKey, int64)                  {}
func (attrNop) PenaltyServedFor(int, int, ResourceKey, time.Duration) {}

// verdictCycle is the full attribution hook path: an overlapping hold, a
// detection verdict against the pair, and the blocked-time ledger update.
func verdictCycle(h *harness, noisy, victim *PBox, key ResourceKey) {
	h.m.Update(noisy, key, Hold)
	h.m.Update(victim, key, Prepare)
	h.advance(50 * time.Microsecond)
	h.m.Update(noisy, key, Unhold)
	h.m.Update(victim, key, Enter)
}

// newVerdictBench builds a harness where every cycle reaches a detection
// verdict but only the first schedules a penalty (a huge MinPenalty keeps
// the per-pair cooldown active), so the steady-state hook path is pure
// ledger increments.
func newVerdictBench(t *testing.T, obs Observer) (*harness, *PBox, *PBox, ResourceKey) {
	h := newHarness(t, func(o *Options) {
		o.Attribution = true
		o.Observer = obs
		o.TraceSize = 0
		o.MinPenalty = time.Hour
		o.MaxPenalty = 2 * time.Hour
		o.DisablePBoxLevel = true
		// The default harness Sleep advances the fake clock by the slept
		// duration; serving the hour-long warmup penalty would then jump
		// the clock past the per-pair cooldown and schedule a fresh action
		// (with its history appends) every cycle. Serving instantly keeps
		// the cooldown active so steady state is pure ledger increments.
		o.Sleep = func(time.Duration) {}
	})
	key := ResourceKey(0x42)
	h.m.NameResource(key, "bench_lock")
	noisy := h.pbox(0.01)
	victim := h.pbox(0.01)
	h.m.Activate(noisy)
	h.m.Activate(victim)
	return h, noisy, victim, key
}

// TestVerdictPathNoRecorderAllocFree asserts the hardening requirement: the
// verdict-time hook path (attribution ledger enabled, attribution observer
// attached, no flight recorder) allocates nothing in steady state, so
// attribution can stay always-on in production without adding GC pressure
// to the penalty path.
func TestVerdictPathNoRecorderAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	h, noisy, victim, key := newVerdictBench(t, attrNop{})
	for i := 0; i < 100; i++ {
		verdictCycle(h, noisy, victim, key)
	}
	if h.m.TotalActions() == 0 {
		t.Fatal("warmup never scheduled an action; benchmark scenario is broken")
	}
	recs := h.m.Status().Attribution
	if len(recs) == 0 || recs[0].Detections < 50 {
		t.Fatalf("verdicts not firing every cycle: %+v", recs)
	}
	allocs := testing.AllocsPerRun(1000, func() { verdictCycle(h, noisy, victim, key) })
	if allocs != 0 {
		t.Fatalf("verdict hook path allocates %.2f objects per op, want 0", allocs)
	}
}

// BenchmarkVerdictPathNoRecorder measures the steady-state cost of the full
// verdict hook path with attribution enabled and no flight recorder.
func BenchmarkVerdictPathNoRecorder(b *testing.B) {
	h := &harness{}
	opts := Options{
		Attribution:      true,
		Observer:         attrNop{},
		MinPenalty:       time.Hour,
		MaxPenalty:       2 * time.Hour,
		DisablePBoxLevel: true,
	}
	opts.Now = func() int64 { return h.now }
	opts.Sleep = func(time.Duration) {} // see newVerdictBench: keep the cooldown active
	h.m = NewManager(opts)
	key := ResourceKey(0x42)
	noisy, _ := h.m.Create(IsolationRule{Type: Relative, Level: 0.01, Metric: MetricAverage})
	victim, _ := h.m.Create(IsolationRule{Type: Relative, Level: 0.01, Metric: MetricAverage})
	h.m.Activate(noisy)
	h.m.Activate(victim)
	for i := 0; i < 100; i++ {
		verdictCycle(h, noisy, victim, key)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(1000, func() { verdictCycle(h, noisy, victim, key) }); allocs != 0 {
			b.Fatalf("verdict hook path allocates %.2f objects per op, want 0", allocs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verdictCycle(h, noisy, victim, key)
	}
}
