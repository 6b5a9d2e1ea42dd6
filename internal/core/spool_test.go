package core

import (
	"sync"
	"testing"
	"time"
)

// Structural tests for the two-tier ingestion path (spool.go, DESIGN.md §10):
// lock counts, flush-on-read, degenerate capacities, races. That a spooled
// script behaves like the same script through Manager.Update — and like the
// reference model — is internal/core/refmodel's differential.

// smallWorker is NewWorker with the spool's buffer cut to capacity records
// (len(recs) is the capacity), for scripts that need fill-flushes.
func smallWorker(m *Manager, capacity int) *Worker {
	w := m.NewWorker()
	w.spool.recs = w.spool.recs[:capacity]
	return w
}

// TestReplayQuietPrivateKeysSkipShards: a batch of balanced pairs on keys only
// its pBox has touched replays without one shard lock (so which stripe the
// keys hash to, and who else uses it, cannot cost the tenant anything), and
// the shortcut stands down exactly where the stripe could hold a waiter: the
// pBox's own outstanding PREPARE, and a slot another pBox has contended. (What
// each script books is checked by refmodel's seeds quiet-*.)
func TestReplayQuietPrivateKeysSkipShards(t *testing.T) {
	const k1, k2, other = ResourceKey(0x1100), ResourceKey(0x2200), ResourceKey(0x3300)
	type step struct {
		key    ResourceKey
		ev     EventType
		byPeer bool // issued by a second pBox through Manager.Update
	}
	pair := func(k ResourceKey) []step {
		return []step{{k, Prepare, false}, {k, Enter, false}, {k, Hold, false}, {k, Unhold, false}}
	}
	scripts := []struct {
		name      string
		steps     []step
		wantLocks int64 // shard locks the final Freeze's replay may take
	}{
		{"balanced pairs on private keys", append(pair(k1), pair(k2)...), 0},
		// PREPARE stays outstanding across the HOLD+UNHOLD: p waits on k1
		// itself, so the pair must run the UNHOLD arm under the stripe.
		{"own waiter outstanding", []step{{k1, Prepare, false}, {k1, Hold, false}, {k1, Unhold, false}, {k1, Enter, false}}, 1},
		// The peer's event revokes k1's claim and sweeps p's batch in: k1 is
		// slow path for good, what p spools on k2 afterwards is still private.
		{"peer contends one key", append(append(pair(k1), step{k1, Prepare, true}, step{k1, Enter, true}), append(pair(k1), pair(k2)...)...), 0},
	}
	for _, sc := range scripts {
		for _, observed := range []bool{false, true} {
			name := sc.name
			if observed {
				// Collapse and privateTo do not ask who listens: the observed
				// batch (trace ring and an observer) takes the same locks.
				name += ", observed"
			}
			t.Run(name, func(t *testing.T) {
				h := newHarness(t, func(o *Options) {
					if observed {
						o.Observer = newRecordingObserver()
					} else {
						o.TraceSize = 0
					}
				})
				p, peer := h.pbox(0.5), h.pbox(0.5)
				w := h.m.NewWorker()
				if err := w.BindDirect(p); err != nil {
					t.Fatalf("BindDirect: %v", err)
				}
				h.m.Activate(p)
				h.m.Activate(peer)
				h.m.Update(peer, other, Hold) // the peer is live on the stripes throughout
				for _, s := range sc.steps {
					if s.byPeer {
						h.m.Update(peer, s.key, s.ev)
					} else {
						w.Update(s.key, s.ev)
					}
					h.advance(10 * time.Microsecond)
				}
				before := h.m.SelfStats().ShardLockAcquisitions
				h.m.Freeze(p)
				if locks := h.m.SelfStats().ShardLockAcquisitions - before; locks != sc.wantLocks {
					t.Fatalf("the freeze's replay took %d shard locks, want %d", locks, sc.wantLocks)
				}
			})
		}
	}
}

// TestSpoolFlushOnReadStatus: spooled events that no trigger has flushed yet
// are visible to every consistent read — a precise Status sweeps the spools
// first, and the trace then carries the rows at their recorded event times —
// with no explicit Flush anywhere.
func TestSpoolFlushOnReadStatus(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	h.m.Activate(p)
	w := h.m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		t.Fatalf("BindDirect: %v", err)
	}
	w.Update(7, Prepare)
	h.advance(300 * time.Microsecond)
	w.Update(7, Enter)
	h.advance(100 * time.Microsecond)
	w.Update(9, Hold)
	if h.m.SelfStats().SpoolFlushedEvents != 0 {
		t.Fatal("the script did not stay in the spool")
	}
	if got := contention(h.m, 9).Holders; got != 1 {
		t.Fatalf("Holders(9) = %d, want 1", got)
	}
	if got := contention(h.m, 7).Waiters; got != 0 {
		t.Fatalf("Waiters(7) = %d, want 0", got)
	}
	var at []time.Duration
	for _, e := range preciseTrace(h.m) {
		if e.Kind == KindState {
			at = append(at, e.At)
		}
	}
	if len(at) != 3 || at[0] != 0 || at[1] != 300*time.Microsecond || at[2] != 400*time.Microsecond {
		t.Fatalf("state rows stamped %v, want the recorded event times 0, 300µs, 400µs", at)
	}
}

// TestSpoolEdgeCapacities covers the degenerate spool sizes: a one-slot spool
// (every second append triggers a fill-flush) and a zero-slot spool (append
// can never succeed, like a takeover that keeps losing to another feeder;
// Worker.Update's double-failure fallback applies the event directly).
func TestSpoolEdgeCapacities(t *testing.T) {
	for capacity, name := range []string{"zero-slot", "one-slot"} { // the index is the capacity
		t.Run(name, func(t *testing.T) {
			h := newHarness(t)
			p := h.pbox(0.5)
			h.m.Activate(p)
			w := smallWorker(h.m, capacity)
			if err := w.BindDirect(p); err != nil {
				t.Fatal(err)
			}
			w.Update(5, Prepare)
			h.advance(40 * time.Microsecond)
			w.Update(5, Enter)
			h.advance(10 * time.Microsecond)
			w.Update(5, Hold)
			h.advance(20 * time.Microsecond)
			w.Update(5, Unhold)
			w.Update(6, Hold)
			if got := contention(h.m, 6).Holders; got != 1 {
				t.Fatalf("Holders(6) mid-script = %d, want 1", got)
			}
			w.Update(6, Unhold)
			h.advance(30 * time.Microsecond)
			w.Flush()
			// A zero-capacity spool can never accept an append; Worker.Update
			// must fall back to the slow path rather than drop the event.
			if st := h.m.SelfStats(); capacity == 0 && (st.SpoolFlushedEvents != 0 || st.SpoolOverflows == 0) {
				t.Fatalf("zero-slot run spooled %d events over %d refused appends; want none, some", st.SpoolFlushedEvents, st.SpoolOverflows)
			}
			h.m.Freeze(p)
			// What the script books through Manager.Update.
			if s := p.snapshot(); s.Activities != 1 || s.TotalDefer != 40*time.Microsecond || s.TotalExec != 100*time.Microsecond {
				t.Fatalf("booked %d activities, %v deferred of %v; want 1, 40µs of 100µs", s.Activities, s.TotalDefer, s.TotalExec)
			}
		})
	}
}

// TestRefusedAppendKeepsItsStamp: an event the spool refuses (a zero-slot
// spool refuses every append) goes to Tier B with the stamp its Tier A attempt
// took: one clock read, and its state row at that read's time.
func TestRefusedAppendKeepsItsStamp(t *testing.T) {
	var now, reads int64
	m := NewManager(Options{Now: func() int64 { reads++; now += 100; return now }, Sleep: func(time.Duration) {}, TraceSize: 64})
	p, _ := m.Create(DefaultRule())
	w := smallWorker(m, 0)
	if err := w.BindDirect(p); err != nil {
		t.Fatal(err)
	}
	m.Activate(p)
	reads, stamp := 0, now+100
	w.Update(5, Prepare)
	if st := m.SelfStats(); reads != 1 || st.SpoolOverflows != 1 {
		t.Fatalf("one refused event: %d clock reads, %d refused appends; want 1, 1", reads, st.SpoolOverflows)
	}
	var rows []int64
	for _, e := range preciseTrace(m) {
		if e.Kind == KindState {
			rows = append(rows, e.Record.At)
		}
	}
	if len(rows) != 1 || rows[0] != stamp {
		t.Fatalf("state rows at %v, want one at the Tier A attempt's stamp %d", rows, stamp)
	}
}

// TestSpoolFlushRacesLifecycle races the three flush paths against each
// other and against the pBox lifecycle with the race detector watching:
// worker-goroutine fills and slow-path hand-offs (flush(true)), reader
// sweeps from Status/Trace/Attribution (flush(false)), and the
// Activate/Freeze/Release flush of the hinted spool — including Release landing while
// the worker is still issuing updates, which the replay's state check must
// turn into dropped batches, never into dangling shard state.
func TestSpoolFlushRacesLifecycle(t *testing.T) {
	m := NewManager(Options{
		MinPenalty:  20 * time.Microsecond,
		MaxPenalty:  100 * time.Microsecond,
		Attribution: true,
		TraceSize:   256,
	})
	const (
		workers = 4
		rounds  = 3
	)
	hot := ResourceKey(0x999)

	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopReaders:
				return
			default:
			}
			_ = m.Status()
			_ = preciseTrace(m)
			_ = m.Status().Attribution
			_ = contention(m, hot).Holders
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := smallWorker(m, 8) // small: fill-flushes constantly
			for r := 0; r < rounds; r++ {
				p, err := m.Create(DefaultRule())
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.BindDirect(p); err != nil {
					t.Error(err)
					return
				}
				m.Activate(p)

				// The lifecycle racer flips Freeze/Activate under the
				// worker's feet, then releases the pBox while updates may
				// still be in flight.
				var lc sync.WaitGroup
				lc.Add(1)
				go func() {
					defer lc.Done()
					for j := 0; j < 15; j++ {
						m.Freeze(p)
						time.Sleep(5 * time.Microsecond)
						m.Activate(p)
					}
					m.Freeze(p)
					if err := m.Release(p); err != nil {
						t.Error(err)
					}
				}()

				// Fresh cold keys per round keep the fast path claimable.
				base := ResourceKey(0x10000 + g*0x1000 + r*0x100)
				for i := 0; i < 400; i++ {
					cold := base + ResourceKey(i%8)
					w.Update(cold, Hold)
					w.Update(cold, Unhold)
					if i%7 == 0 {
						m.Update(p, hot, Hold)
						m.Update(p, hot, Unhold)
					}
				}
				w.Flush()
				lc.Wait()
			}
		}(g)
	}
	wg.Wait()
	close(stopReaders)
	readers.Wait()

	if live := len(m.Status().Snapshots); live != 0 {
		t.Fatalf("live pboxes after race = %d", live)
	}
	// Release tears down every shard-side record regardless of which events
	// the races dropped, so nothing may dangle.
	if c := contention(m, hot); c.Waiters != 0 || c.Holders != 0 {
		t.Fatalf("dangling bookkeeping on hot key: waiters=%d holders=%d", c.Waiters, c.Holders)
	}
	for g := 0; g < workers; g++ {
		for r := 0; r < rounds; r++ {
			for i := 0; i < 8; i++ {
				key := ResourceKey(0x10000 + g*0x1000 + r*0x100 + i)
				if c := contention(m, key); c.Waiters != 0 || c.Holders != 0 {
					t.Fatalf("dangling bookkeeping on cold key %#x: waiters=%d holders=%d",
						uintptr(key), c.Waiters, c.Holders)
				}
			}
		}
	}
}
