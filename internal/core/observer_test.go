package core

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// recordingObserver captures every callback in order, as the Records the
// adapter builds. Callbacks fire under the manager lock (except
// PenaltyServed), so the recorder takes its own lock to stay race-clean
// either way.
type recordingObserver struct {
	RecordObserver
	mu     sync.Mutex
	events []Record
}

func newRecordingObserver() *recordingObserver {
	r := &recordingObserver{}
	r.Sink = r
	return r
}

func (r *recordingObserver) Record(rec Record) {
	r.mu.Lock()
	r.events = append(r.events, rec)
	r.mu.Unlock()
}

func (r *recordingObserver) snapshot() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.events...)
}

func TestObserverLifecycleAndPenaltyOrdering(t *testing.T) {
	obs := newRecordingObserver()
	h := newHarness(t, func(o *Options) { o.Observer = obs })
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, ResourceKey(1), Hold)
	h.m.Update(victim, ResourceKey(1), Prepare)
	h.advance(5 * time.Millisecond)
	h.m.Update(noisy, ResourceKey(1), Unhold)
	h.m.Update(victim, ResourceKey(1), Enter)
	h.m.Freeze(victim)
	h.m.Freeze(noisy)
	h.m.Release(victim)
	h.m.Release(noisy)
	h.m.SetShared(victim, true) // a flip after the release emits nothing

	got := obs.snapshot()
	idx := func(kind Kind, pbox int) int {
		for i, e := range got {
			if e.Kind == kind && e.PBox == pbox {
				return i
			}
		}
		return -1
	}
	// Lifecycle brackets everything.
	for _, p := range []*PBox{noisy, victim} {
		c, r := idx(KindCreate, p.ID()), idx(KindRelease, p.ID())
		if c < 0 || r < 0 || c >= r {
			t.Fatalf("pbox %d: create at %d, release at %d", p.ID(), c, r)
		}
		for i, e := range got {
			if e.PBox == p.ID() && (i < c || i > r) {
				t.Fatalf("pbox %d: callback %+v outside create/release window", p.ID(), e)
			}
		}
	}
	// The detection verdict precedes the penalty action, which precedes the
	// served penalty, all against the noisy pBox.
	d, a, s := idx(KindDetection, noisy.ID()), idx(KindAction, noisy.ID()), idx(KindServed, noisy.ID())
	if d < 0 || a < 0 || s < 0 {
		t.Fatalf("missing detect/action/served for noisy: %d %d %d (events %+v)", d, a, s, got)
	}
	if !(d < a && a < s) {
		t.Fatalf("ordering detect=%d action=%d served=%d, want detect < action < served", d, a, s)
	}
	for _, e := range got {
		if e.Kind == KindAction && e.Dur <= 0 {
			t.Fatalf("action with non-positive length: %+v", e)
		}
		if e.Kind == KindServed && e.Dur <= 0 {
			t.Fatalf("served with non-positive length: %+v", e)
		}
	}
}

// handObserver is the hand-written twelve-callback observer the adapter is
// checked against: it builds each Record itself, sharing no code with
// RecordObserver.
type handObserver struct {
	mu   sync.Mutex
	recs []Record
}

func (h *handObserver) add(r Record) {
	h.mu.Lock()
	h.recs = append(h.recs, r)
	h.mu.Unlock()
}

func (h *handObserver) PBoxCreated(id int, rule IsolationRule) {
	h.add(Record{Kind: 1, PBox: id, RuleType: rule.Type, Level: rule.Level, Metric: rule.Metric})
}
func (h *handObserver) PBoxReleased(id int)            { h.add(Record{Kind: 2, PBox: id}) }
func (h *handObserver) PBoxActivated(id int, at int64) { h.add(Record{Kind: 3, PBox: id, At: at}) }
func (h *handObserver) PBoxFrozen(id int, at int64)    { h.add(Record{Kind: 4, PBox: id, At: at}) }
func (h *handObserver) PBoxSharedChanged(id int, shared bool) {
	var flag int64
	if shared {
		flag = 1
	}
	h.add(Record{Kind: 11, PBox: id, Dur: flag})
}
func (h *handObserver) StateEventAt(id int, key ResourceKey, ev EventType, at int64) {
	h.add(Record{Kind: 5, PBox: id, Key: key, Ev: ev, At: at})
}
func (h *handObserver) ActivityEnd(id int, deferNs, execNs int64) {
	h.add(Record{Kind: 9, PBox: id, Dur: deferNs, Exec: execNs})
}
func (h *handObserver) Detection(noisy, victim int, key ResourceKey, projected float64) {
	h.add(Record{Kind: 6, PBox: noisy, Victim: victim, Key: key, Level: projected})
}
func (h *handObserver) PenaltyAction(noisy, victim int, key ResourceKey, policy PolicyKind, length time.Duration) {
	h.add(Record{Kind: 7, PBox: noisy, Victim: victim, Key: key, Policy: policy, Dur: int64(length)})
}
func (h *handObserver) PenaltyServed(id int, d time.Duration) {
	h.add(Record{Kind: 8, PBox: id, Dur: int64(d)})
}
func (h *handObserver) Blocked(culprit, victim int, key ResourceKey, deferNs int64) {
	h.add(Record{Kind: 10, PBox: culprit, Victim: victim, Key: key, Dur: deferNs})
}
func (h *handObserver) PenaltyServedFor(culprit, victim int, key ResourceKey, d time.Duration) {
	h.add(Record{Kind: 12, PBox: culprit, Victim: victim, Key: key, Dur: int64(d)})
}

// adapterScript is one deterministic run that produces every record kind:
// two pBoxes, spooled events on private keys, direct events on a shared key
// that end in a verdict with a served penalty, and a shared-thread flip. It
// returns what the manager's own trace ring stored.
func adapterScript(t *testing.T, obs Observer) []Record {
	t.Helper()
	h := newHarness(t, func(o *Options) {
		o.Attribution = true
		o.Observer = obs
	})
	noisy, victim := h.pbox(0.5), h.pbox(0.5)
	h.m.Activate(noisy)
	h.m.Activate(victim)
	w := smallWorker(h.m, 4)
	if err := w.BindDirect(victim); err != nil {
		t.Fatalf("BindDirect: %v", err)
	}
	for i := 0; i < 6; i++ { // spooled: crosses a fill-flush and leaves a remainder
		w.Update(ResourceKey(0x200), Hold)
		h.advance(time.Microsecond)
		w.Update(ResourceKey(0x200), Unhold)
		h.advance(time.Microsecond)
	}
	if got := h.m.contentionSlot(ResourceKey(0x200)).Load(); got != int64(victim.id) {
		t.Fatalf("private key's slot = %d, want the worker's fast-path claim %d", got, victim.id)
	}
	h.m.Update(noisy, ResourceKey(42), Hold) // direct
	h.m.Update(victim, ResourceKey(42), Prepare)
	h.advance(5 * time.Millisecond)
	h.m.Update(noisy, ResourceKey(42), Unhold) // blocked, detection, action, served
	h.m.Update(victim, ResourceKey(42), Enter)
	h.m.Freeze(victim)
	h.m.Freeze(noisy)
	h.m.SetShared(noisy, true)
	h.m.SetShared(noisy, false)
	h.m.Release(victim)
	h.m.Release(noisy)
	rows, next := h.m.TraceView(0)
	if int(next) != len(rows) {
		t.Fatalf("ring wrapped: %d rows of %d", len(rows), next)
	}
	ring := make([]Record, len(rows))
	for i, e := range rows {
		ring[i] = e.Record
	}
	return ring
}

// TestRecordObserverMatchesCallbacks pins the adapter: the Record stream its
// sink sees is field for field the stream a hand-written observer on the
// bare manager sees, and Next receives every callback exactly once —
// attribution included — at every position of the chain: the manager's own
// trace ring (its first link), then two sinks, then a bare observer.
func TestRecordObserverMatchesCallbacks(t *testing.T) {
	want := &handObserver{}
	adapterScript(t, want)
	seen := make(map[Kind]bool)
	for _, r := range want.recs {
		seen[r.Kind] = true
	}
	for k := KindCreate; k <= KindServedFor; k++ {
		if !seen[k] {
			t.Fatalf("script never produced a %v record", k)
		}
	}

	front, back, next := newRecordingObserver(), newRecordingObserver(), &handObserver{}
	front.Next, back.Next = back, next
	ring := adapterScript(t, front)
	for name, got := range map[string][]Record{"trace ring": ring, "front sink": front.events, "back sink": back.events, "next": next.recs} {
		if !slices.Equal(got, want.recs) {
			t.Fatalf("%s saw %d records, bare observer %d; first difference at %d",
				name, len(got), len(want.recs), firstDiff(got, want.recs))
		}
	}
}

func firstDiff(a, b []Record) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestObserverConcurrentEvents hammers one manager from many goroutines and
// checks that the serialized callback stream keeps its per-pBox invariants:
// created before any other callback, nothing after released, and state-event
// counts matching what each goroutine issued.
func TestObserverConcurrentEvents(t *testing.T) {
	obs := newRecordingObserver()
	m := NewManager(Options{Observer: obs, DisableDetection: true})
	const goroutines = 8
	const rounds = 50

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := ResourceKey(100 + g)
			for i := 0; i < rounds; i++ {
				p, err := m.Create(DefaultRule())
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				m.Activate(p)
				m.Update(p, key, Prepare)
				m.Update(p, key, Enter)
				m.Update(p, key, Hold)
				m.Update(p, key, Unhold)
				m.Freeze(p)
				if err := m.Release(p); err != nil {
					t.Errorf("Release: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	got := obs.snapshot()
	type state struct {
		created, released bool
		events            int
		activities        int
	}
	perBox := make(map[int]*state)
	for _, e := range got {
		st := perBox[e.PBox]
		if st == nil {
			st = &state{}
			perBox[e.PBox] = st
		}
		switch e.Kind {
		case KindCreate:
			if st.created {
				t.Fatalf("pbox %d created twice", e.PBox)
			}
			st.created = true
		case KindRelease:
			if !st.created || st.released {
				t.Fatalf("pbox %d released out of order", e.PBox)
			}
			st.released = true
		default:
			if !st.created || st.released {
				t.Fatalf("pbox %d: %v outside lifecycle window", e.PBox, e.Kind)
			}
			if e.Kind == KindState {
				st.events++
			}
			if e.Kind == KindActivityEnd {
				st.activities++
			}
		}
	}
	if len(perBox) != goroutines*rounds {
		t.Fatalf("observed %d pboxes, want %d", len(perBox), goroutines*rounds)
	}
	for id, st := range perBox {
		if !st.created || !st.released {
			t.Fatalf("pbox %d: incomplete lifecycle %+v", id, st)
		}
		if st.events != 4 {
			t.Fatalf("pbox %d: %d state events, want 4", id, st.events)
		}
		if st.activities != 1 {
			t.Fatalf("pbox %d: %d activities, want 1", id, st.activities)
		}
	}
}

// runDisabledEventPath is the hot path measured by the nil-observer
// allocation guard: one contested-free Prepare/Enter wait pair.
func runDisabledEventPath(m *Manager, p *PBox, key ResourceKey) {
	m.Update(p, key, Prepare)
	m.Update(p, key, Enter)
}

func TestObserverDisabledAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	m := NewManager(Options{})
	p, _ := m.Create(DefaultRule())
	m.Activate(p)
	key := ResourceKey(7)
	// Warm up internal slices/maps to steady state.
	for i := 0; i < 100; i++ {
		runDisabledEventPath(m, p, key)
	}
	allocs := testing.AllocsPerRun(1000, func() { runDisabledEventPath(m, p, key) })
	if allocs != 0 {
		t.Fatalf("nil-observer event path allocates %.1f objects per op, want 0", allocs)
	}
}

// BenchmarkObserverDisabled proves the nil-observer event path stays
// allocation-free: the telemetry hooks cost one nil check when disabled.
func BenchmarkObserverDisabled(b *testing.B) {
	m := NewManager(Options{})
	p, _ := m.Create(DefaultRule())
	m.Activate(p)
	key := ResourceKey(7)
	for i := 0; i < 100; i++ {
		runDisabledEventPath(m, p, key)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(1000, func() { runDisabledEventPath(m, p, key) }); allocs != 0 {
			b.Fatalf("nil-observer event path allocates %.1f objects per op, want 0", allocs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runDisabledEventPath(m, p, key)
	}
}

// BenchmarkObserverEnabled measures the same path with a no-op observer
// attached, for comparison against BenchmarkObserverDisabled.
func BenchmarkObserverEnabled(b *testing.B) {
	m := NewManager(Options{Observer: nopObserver{}})
	p, _ := m.Create(DefaultRule())
	m.Activate(p)
	key := ResourceKey(7)
	for i := 0; i < 100; i++ {
		runDisabledEventPath(m, p, key)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runDisabledEventPath(m, p, key)
	}
}

// nopObserver is the cheapest possible Observer, for overhead benchmarks.
type nopObserver struct{}

func (nopObserver) PBoxCreated(int, IsolationRule)                                 {}
func (nopObserver) PBoxReleased(int)                                               {}
func (nopObserver) PBoxActivated(int, int64)                                       {}
func (nopObserver) PBoxFrozen(int, int64)                                          {}
func (nopObserver) PBoxSharedChanged(int, bool)                                    {}
func (nopObserver) StateEventAt(int, ResourceKey, EventType, int64)                {}
func (nopObserver) ActivityEnd(int, int64, int64)                                  {}
func (nopObserver) Detection(int, int, ResourceKey, float64)                       {}
func (nopObserver) PenaltyAction(int, int, ResourceKey, PolicyKind, time.Duration) {}
func (nopObserver) PenaltyServed(int, time.Duration)                               {}
