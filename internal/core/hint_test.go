package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the local activity boundary (spool.go): the pBox's spool hint,
// single ownership of a pBox's records, the flushes that find a spool through
// its pBox and the striped counts they leave. These are the structural
// assertions; that the scripts
// book what Manager.Update and the reference model book is refmodel's
// differential (seeds hint-sequential-migration, single-owner-*).

// TestHintSequentialMigration: a pBox handed from worker A to worker B
// (Unbind flushes on A, Bind appends on B) never meets the giver's spool: the
// hint follows the feeder and no append is refused.
func TestHintSequentialMigration(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.TraceSize = 0 }) // no observer, no ring: the lock-free lifecycle path
	p := h.pbox(0.5)
	const conn = uintptr(0xc0)
	h.m.Associate(p, conn)
	a, b := h.m.NewWorker(), h.m.NewWorker()
	slice := func(w *Worker, key ResourceKey) {
		if _, err := w.Bind(conn, BindShared); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		w.Update(key, Prepare)
		h.advance(30 * time.Microsecond)
		w.Update(key, Enter)
		w.Update(key, Hold)
		h.advance(10 * time.Microsecond)
		w.Update(key, Unhold)
	}
	for round := 0; round < 3; round++ {
		h.m.Activate(p)
		slice(a, 0x100)
		if p.spool.Load() != a.spool {
			t.Fatalf("round %d: hint does not name worker A's spool", round)
		}
		if _, err := a.Unbind(conn, BindShared); err != nil {
			t.Fatalf("Unbind: %v", err)
		}
		if p.spool.Load() != nil {
			t.Fatalf("round %d: hint survived the unbind flush", round)
		}
		slice(b, 0x200)
		if p.spool.Load() != b.spool {
			t.Fatalf("round %d: hint does not name worker B's spool", round)
		}
		h.m.Freeze(p) // B's slice is still buffered; the hint finds it
		if _, err := b.Unbind(conn, BindShared); err != nil {
			t.Fatalf("Unbind: %v", err)
		}
		h.advance(5 * time.Microsecond)
	}
	if got := h.m.SelfStats().SpoolOverflows; got != 0 {
		t.Fatalf("sequential hand-off: %d appends refused, want none", got)
	}
}

// hintProbe counts the state rows delivered while the pBox's hint is unset.
type hintProbe struct {
	nopObserver
	p     *PBox
	unset int
}

func (o *hintProbe) StateEventAt(int, ResourceKey, EventType, int64) {
	if o.p.spool.Load() == nil {
		o.unset++
	}
}

// TestHintNamesSpoolDuringReplay: a flush withdraws the hint after the replay,
// not before — a lifecycle call that found it unset would not wait for the
// spool, could freeze the pBox under the replay, and the batch would be dropped.
// The window is a few instructions no race test hits, so it is observed from
// inside: every row of a spooled batch is delivered with the hint still set.
func TestHintNamesSpoolDuringReplay(t *testing.T) {
	probe := &hintProbe{}
	h := newHarness(t, func(o *Options) { o.Observer, o.TraceSize = probe, 0 })
	probe.p = h.pbox(0.5)
	w := h.m.NewWorker()
	if err := w.BindDirect(probe.p); err != nil {
		t.Fatal(err)
	}
	h.m.Activate(probe.p)
	for i := 0; i < 16; i++ {
		w.Update(ResourceKey(1+i/4), EventType(i%4)) // PREPARE, ENTER, HOLD, UNHOLD on four private keys
	}
	h.m.Freeze(probe.p)
	if flushed := h.m.SelfStats().SpoolFlushedEvents; flushed != 16 || probe.unset != 0 {
		t.Fatalf("%d of 16 events spooled; %d rows delivered with the hint withdrawn", flushed, probe.unset)
	}
}

// spoolBuffered is the number of records sp holds for p.
func spoolBuffered(sp *eventSpool, p *PBox) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.pbox != p {
		return 0
	}
	return sp.n
}

// TestSpoolSingleOwner: two Workers BindDirect one pBox and feed it in turn.
// A pBox's records sit in one spool at a time — the worker that finds the
// other's spool named flushes it before taking its own over — so at no point
// do both buffer p's records, the hint always names the one that does, and
// Freeze, Release and a refused Hibernate fold what is left through the hint
// alone. (That the global issue order reaches the record stream is refmodel's.)
func TestSpoolSingleOwner(t *testing.T) {
	type step struct {
		byB bool
		key ResourceKey
		ev  EventType
	}
	script := []step{
		{false, 0x100, Hold},
		{true, 0x200, Prepare},
		{true, 0x200, Enter},
		{false, 0x100, Unhold},
		{false, 0x101, Hold}, // still held at the transition
	}
	for _, end := range []string{"freeze", "release", "hibernate"} {
		t.Run(end, func(t *testing.T) {
			h := newHarness(t)
			p := h.pbox(0.5)
			a, b := h.m.NewWorker(), h.m.NewWorker()
			for _, w := range []*Worker{a, b} {
				if err := w.BindDirect(p); err != nil {
					t.Fatalf("BindDirect: %v", err)
				}
			}
			h.m.Activate(p)
			for i, st := range script {
				w, other := a, b
				if st.byB {
					w, other = b, a
				}
				w.Update(st.key, st.ev)
				if got := spoolBuffered(other.spool, p); got != 0 {
					t.Fatalf("step %d: both spools buffer the pBox's records (%d in the other worker's)", i, got)
				}
				if spoolBuffered(w.spool, p) == 0 || p.spool.Load() != w.spool {
					t.Fatalf("step %d: the issuing worker's spool does not hold the record under the hint", i)
				}
				h.advance(20 * time.Microsecond)
			}
			// Each change of feeder flushed the other's batch: 1 + 2.
			if got := h.m.SelfStats().SpoolFlushedEvents; got != 3 {
				t.Fatalf("%d events flushed before the transition, want 3", got)
			}
			switch end {
			case "freeze":
				h.m.Freeze(p)
			case "release":
				if err := h.m.Release(p); err != nil {
					t.Fatalf("Release: %v", err)
				}
			case "hibernate":
				// Refused mid-activity, but only after the flush.
				if err := h.m.Hibernate(p); err == nil {
					t.Fatal("Hibernate accepted an active pBox")
				}
			}
			if got := h.m.SelfStats().SpoolFlushedEvents; got != int64(len(script)) {
				t.Fatalf("%s folded %d of %d spooled events", end, got, len(script))
			}
			if spoolBuffered(a.spool, p)+spoolBuffered(b.spool, p) != 0 || p.spool.Load() != nil {
				t.Fatalf("%s left records behind in a spool, or the hint set", end)
			}
			if end == "hibernate" {
				h.m.Freeze(p)
			}
			if end != "release" {
				if c := contention(h.m, 0x101); c.Holders != 1 {
					t.Fatalf("hold across the transition: holders = %d, want 1", c.Holders)
				}
			}
		})
	}
}

// TestSpoolTwoFeedersRace: two goroutines, each with its own Worker
// BindDirected to the same pBox, issue events at once — private keys that
// spool, and a contended key that hands off to the slow path — while a third
// goroutine sweeps and makes refused Hibernate calls, through the Freeze that
// ends each activity. Nothing deadlocks, every issued event reaches the record
// stream exactly once with each feeder's events in its issue order, and
// Crossings() reconciles: one per call, so spooled plus slow-path events are
// the events issued. A last activity is frozen under the feeders' feet. Run
// under -race.
func TestSpoolTwoFeedersRace(t *testing.T) {
	obs := newRecordingObserver()
	m := NewManager(Options{Sleep: func(time.Duration) {}, Observer: obs})
	p, _ := m.Create(DefaultRule())
	peer, _ := m.Create(DefaultRule())
	const hot = ResourceKey(0x999)
	m.Activate(peer)
	m.Update(peer, hot, Hold) // hot's slot is contended for good
	m.Update(peer, hot, Unhold)
	calls := int64(5) // the manager calls so far, one crossing each
	ws := [2]*Worker{m.NewWorker(), m.NewWorker()}
	for _, w := range ws {
		if err := w.BindDirect(p); err != nil {
			t.Fatal(err)
		}
	}
	const (
		rounds    = 20
		cycles    = 150 // per feeder and activity
		hotEvents = cycles / 5 * 2
		perFeeder = cycles*4 + hotEvents
	)
	feed := func(g int, wg *sync.WaitGroup) {
		defer wg.Done()
		base := ResourceKey(0x1000 * (g + 1))
		for i := 0; i < cycles; i++ {
			k := base + ResourceKey(i%4)
			ws[g].Update(k, Prepare)
			ws[g].Update(k, Enter)
			ws[g].Update(k, Hold)
			ws[g].Update(k, Unhold)
			if i%5 == 0 {
				ws[g].Update(hot, Hold)
				ws[g].Update(hot, Unhold)
			}
		}
	}
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: two feeders of one pBox deadlocked", what)
		}
	}
	stateRows := func() (rows []Record) {
		for _, r := range obs.snapshot() {
			if r.Kind == KindState && r.PBox == p.id {
				rows = append(rows, r)
			}
		}
		return rows
	}

	within("feeders, a sweeper and a freeze", func() {
		for r := 0; r < rounds; r++ {
			m.Activate(p)
			var feeders, flusher sync.WaitGroup
			stop := make(chan struct{})
			flusher.Add(1)
			go func() {
				defer flusher.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if m.Hibernate(p) == nil {
						t.Error("Hibernate accepted an active pBox")
					}
					calls++
					m.RefreshStatusView()
				}
			}()
			feeders.Add(2)
			go feed(0, &feeders)
			go feed(1, &feeders)
			feeders.Wait()
			close(stop)
			flusher.Wait()
			m.Freeze(p)
			calls += 2 + 2*perFeeder
		}
	})
	const issued = rounds * 2 * perFeeder
	rows := stateRows()
	if len(rows) != issued {
		t.Fatalf("%d state rows for %d issued events", len(rows), issued)
	}
	cycle := map[EventType]EventType{Prepare: Enter, Enter: Hold, Hold: Unhold, Unhold: Prepare}
	next := map[ResourceKey]EventType{}
	for i, r := range rows {
		if r.Key == hot {
			continue // both feeders nest holds on it: only the count is defined
		}
		if want, seen := next[r.Key]; seen && r.Ev != want || !seen && r.Ev != Prepare {
			t.Fatalf("row %d: key %#x saw %v out of its feeder's issue order", i, uintptr(r.Key), r.Ev)
		}
		next[r.Key] = cycle[r.Ev]
	}
	st := m.SelfStats()
	if st.Crossings != calls || m.Crossings() != calls {
		t.Fatalf("Crossings() = %d after %d calls", st.Crossings, calls)
	}
	if spooled := st.SpoolFlushedEvents; spooled == 0 || spooled > issued-rounds*2*hotEvents {
		t.Fatalf("%d of %d events spooled, %d of them on the contended key", spooled, issued, rounds*2*hotEvents)
	}
	t.Logf("%d events: %d spooled, %d slow path, %d refused appends, %d sticky slots",
		issued, st.SpoolFlushedEvents, issued-st.SpoolFlushedEvents, st.SpoolOverflows, st.ContentionStickySlots)

	// One more activity, frozen and re-activated while the feeders run: events
	// that meet a frozen window are dropped, so only the end state is defined.
	within("freezes under the feeders' feet", func() {
		m.Activate(p)
		var feeders sync.WaitGroup
		feeders.Add(2)
		go feed(0, &feeders)
		go feed(1, &feeders)
		for i := 0; i < 50; i++ {
			m.Freeze(p)
			m.Activate(p)
		}
		feeders.Wait()
		m.Freeze(p)
	})
	if p.spool.Load() != nil || spoolBuffered(ws[0].spool, p)+spoolBuffered(ws[1].spool, p) != 0 {
		t.Fatal("the last freeze left records in a spool, or the hint set")
	}
	if extra := len(stateRows()) - issued; extra > 2*perFeeder {
		t.Fatalf("the last activity delivered %d rows for %d events", extra, 2*perFeeder)
	}
}

// TestHintInvariantUnderSweep: a sweep (RefreshStatusView) racing the owner's
// first append of the next batch leaves the hint and the spool's owner field
// agreeing — p.spool == sp ⇔ sp.pbox == p, exactly, whenever the spool's
// mutex is free — refuses no append, and loses no event. Run under -race.
func TestHintInvariantUnderSweep(t *testing.T) {
	m := NewManager(Options{Sleep: func(time.Duration) {}})
	p, err := m.Create(DefaultRule())
	if err != nil {
		t.Fatal(err)
	}
	w := m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		t.Fatal(err)
	}
	m.Activate(p)
	sp := w.spool
	const (
		iters  = 10_000
		perHit = 8 // events the owner issues against each sweep
	)
	// The owner waits until the sweeper is running before it appends, so the
	// batch starts while the sweep's flush of the previous one is in flight.
	var sweeping atomic.Int64
	overtaken := 0 // sweeps whose copy-out came before the owner's last append
	kick, swept := make(chan struct{}), make(chan struct{})
	go func() {
		for range kick {
			sweeping.Add(1)
			m.RefreshStatusView()
			swept <- struct{}{}
		}
	}()
	for i := 1; i <= iters; i++ {
		kick <- struct{}{}
		for sweeping.Load() != int64(i) {
			runtime.Gosched()
		}
		for k := 0; k < perHit/2; k++ {
			w.Update(0x77, Hold)
			w.Update(0x77, Unhold)
		}
		<-swept
		sp.mu.Lock()
		named, owns := p.spool.Load() == sp, sp.pbox == p
		sp.mu.Unlock()
		if named != owns {
			t.Fatalf("iteration %d: hint names the spool = %v, spool buffers the pBox = %v", i, named, owns)
		}
		if owns {
			overtaken++
		}
	}
	close(kick)
	m.Freeze(p)
	if p.spool.Load() != nil {
		t.Fatal("hint survived the freeze")
	}
	st := m.SelfStats()
	if st.SpoolFlushedEvents != perHit*iters || st.ContentionStickySlots != 0 || st.SpoolOverflows != 0 {
		t.Fatalf("flushed %d of %d events, %d sticky slots, %d refused appends",
			st.SpoolFlushedEvents, perHit*iters, st.ContentionStickySlots, st.SpoolOverflows)
	}
	t.Logf("%d of %d sweeps left part of the owner's batch behind", overtaken, iters)
}

// TestLifecycleTakesNoManagerLock is the structural proof of the local
// boundary: with every manager-wide mutex but the registry's at Release held
// by the test, a tenant takes a worker, runs activities, hibernates and wakes
// without blocking — on a quiet manager (no observer, no trace
// ring), and on one built with pboxd's options, where the only ring lock on
// the path is the tenant's own stripe of the trace ring (taken per lifecycle
// row and per run of state rows, never across a replay): the test holds a
// second pBox's stripe as well. Release is left out of the locked part only
// because it takes the registry lock to unregister, as it always has; it runs
// after.
func TestLifecycleTakesNoManagerLock(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"quiet", Options{}},
		{"pboxd options", Options{TraceSize: 4096, Attribution: true, Observer: nopObserver{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Sleep = func(time.Duration) {}
			m := NewManager(tc.opts)
			p, err := m.Create(DefaultRule())
			if err != nil {
				t.Fatal(err)
			}
			var other *traceStripe // a neighbour's stripe of the ring, held throughout
			if m.trace != nil {
				q, err := m.Create(DefaultRule())
				if err != nil {
					t.Fatal(err)
				}
				if other = m.trace.stripe(q.id); other == m.trace.stripe(p.id) {
					t.Fatalf("pBoxes %d and %d share a trace stripe", p.id, q.id)
				}
				other.mu.Lock()
			}
			m.snap.Lock()
			m.reg.Lock()
			m.verdictMu.Lock()
			done := make(chan struct{})
			go func() {
				defer close(done)
				w := m.NewWorker()
				if err := w.BindDirect(p); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 3; i++ {
					m.Activate(p)
					for k := ResourceKey(1); k <= 4; k++ {
						w.Update(k, Prepare)
						w.Update(k, Enter)
						w.Update(k, Hold)
						w.Update(k, Unhold)
					}
					if i == 0 {
						w.Flush()
					}
					m.Freeze(p)
					if err := m.Hibernate(p); err != nil {
						t.Error(err)
					}
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("a lifecycle call blocked on a manager-wide mutex")
			}
			if other != nil {
				other.mu.Unlock()
			}
			m.verdictMu.Unlock()
			m.reg.Unlock()
			m.snap.Unlock()
			if err := m.Release(p); err != nil {
				t.Fatal(err)
			}
			if st := m.SelfStats(); st.SpoolFlushedEvents != 3*16 {
				t.Fatalf("flushed %d of %d events", st.SpoolFlushedEvents, 3*16)
			}
			if tc.opts.TraceSize > 0 {
				// The replays delivered every state row: 3 × 16 of them.
				rows, _ := m.TraceView(0)
				states := 0
				for _, e := range rows {
					if e.Kind == KindState {
						states++
					}
				}
				if states != 3*16 {
					t.Fatalf("the ring holds %d state rows, want %d", states, 3*16)
				}
			}
		})
	}
}

// TestSpoolSumsExact: the flush and crossing counts on the manager's stripes
// sum to exactly the calls issued — with eight workers running at once, and
// after the pBoxes are released.
func TestSpoolSumsExact(t *testing.T) {
	m := NewManager(Options{Sleep: func(time.Duration) {}})
	const (
		workers    = 8
		activities = 200
		perAct     = 16
	)
	ps := make([]*PBox, workers)
	ws := make([]*Worker, workers)
	for g := range ps {
		p, err := m.Create(DefaultRule())
		if err != nil {
			t.Fatal(err)
		}
		ps[g], ws[g] = p, m.NewWorker()
		if err := ws[g].BindDirect(p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range ps {
		wg.Add(1)
		go func(p *PBox, w *Worker, base ResourceKey) {
			defer wg.Done()
			for i := 0; i < activities; i++ {
				m.Activate(p)
				for k := base; k < base+4; k++ {
					w.Update(k, Prepare)
					w.Update(k, Enter)
					w.Update(k, Hold)
					w.Update(k, Unhold)
				}
				m.Freeze(p)
			}
		}(ps[g], ws[g], ResourceKey(0x1000*(g+1)))
	}
	wg.Wait()
	check := func(when string, crossings int64) {
		t.Helper()
		st := m.SelfStats()
		if st.ContentionStickySlots != 0 {
			t.Fatalf("%s: %d sticky slots: the private keys collided and the count below means nothing", when, st.ContentionStickySlots)
		}
		if st.SpoolFlushes != workers*activities || st.SpoolFlushedEvents != workers*activities*perAct {
			t.Fatalf("%s: %d flushes of %d events, want %d of %d", when,
				st.SpoolFlushes, st.SpoolFlushedEvents, workers*activities, workers*activities*perAct)
		}
		if got := m.Crossings(); got != crossings || st.Crossings != crossings {
			t.Fatalf("%s: Crossings() = %d, SelfStats().Crossings = %d, issued %d", when, got, st.Crossings, crossings)
		}
	}
	issued := int64(workers * (1 + activities*(perAct+2))) // Create, then Activate + 16 events + Freeze
	check("after the run", issued)
	for _, p := range ps {
		if err := m.Release(p); err != nil {
			t.Fatal(err)
		}
	}
	check("after Release", issued+workers)
}

// TestRevocationFlushesOnlyClaimant: a slow-path event that revokes a claim
// flushes the claimant's spool and no other. A spools on a key whose slot it
// claimed, B on a private key; C's direct HOLD on A's key puts A's records on
// the books before C's, withdraws A's hint and leaves B's spool as it was,
// until a precise rebuild's flush-on-read collects it.
func TestRevocationFlushesOnlyClaimant(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.TraceSize = 0 })
	a, b, c := h.pbox(0.5), h.pbox(0.5), h.pbox(0.5)
	wa, wb := h.m.NewWorker(), h.m.NewWorker()
	if err := wa.BindDirect(a); err != nil {
		t.Fatal(err)
	}
	if err := wb.BindDirect(b); err != nil {
		t.Fatal(err)
	}
	const shared, private = ResourceKey(0x100), ResourceKey(0x200)
	if h.m.contentionSlot(shared) == h.m.contentionSlot(private) {
		t.Fatal("the two keys alias one contention slot")
	}
	for _, p := range []*PBox{a, b, c} {
		h.m.Activate(p)
	}
	wa.Update(shared, Prepare)
	wa.Update(shared, Enter)
	wa.Update(shared, Hold)
	wb.Update(private, Hold)
	if a.spool.Load() != wa.spool || b.spool.Load() != wb.spool {
		t.Fatal("the updates were not spooled")
	}
	before := h.m.SelfStats()
	h.m.Update(c, shared, Hold)

	after := h.m.SelfStats()
	if a.spool.Load() != nil {
		t.Fatal("the claimant's hint survived the revocation")
	}
	a.mu.Lock()
	_, held := a.holders[shared]
	a.mu.Unlock()
	if !held {
		t.Fatal("the claimant's spooled HOLD is not on the books")
	}
	if b.spool.Load() != wb.spool || wb.spool.n != 1 {
		t.Fatal("the revocation flushed a bystander's spool")
	}
	if got := after.SpoolFlushedEvents - before.SpoolFlushedEvents; got != 3 {
		t.Fatalf("the revocation flushed %d events, want the claimant's 3", got)
	}
	if after.ContentionRevocations != before.ContentionRevocations+1 || after.SpoolSweeps != before.SpoolSweeps {
		t.Fatalf("revocations %d → %d, sweeps %d → %d; want one revocation and no sweep",
			before.ContentionRevocations, after.ContentionRevocations, before.SpoolSweeps, after.SpoolSweeps)
	}

	h.m.RefreshStatusView()
	if b.spool.Load() != nil {
		t.Fatal("a precise rebuild left the bystander's spool hinted")
	}
	b.mu.Lock()
	_, held = b.holders[private]
	b.mu.Unlock()
	if !held {
		t.Fatal("a precise rebuild left the bystander's HOLD off the books")
	}
	if st := h.m.SelfStats(); st.SpoolFlushedEvents != after.SpoolFlushedEvents+1 || st.SpoolSweeps != after.SpoolSweeps+1 {
		t.Fatalf("the rebuild flushed %d events in %d sweeps, want 1 in 1",
			st.SpoolFlushedEvents-after.SpoolFlushedEvents, st.SpoolSweeps-after.SpoolSweeps)
	}

	// Revocations racing the claimants' own appends (run it under -race): the
	// revoker starts once every claimant has claimed its keys and is still
	// appending; every event is booked exactly once, whichever tier took it,
	// and every balanced pair leaves its key unheld.
	t.Run("racing", func(t *testing.T) {
		m := NewManager(Options{Sleep: func(time.Duration) {}})
		const claimants, keys, pairs = 4, 64, 2000
		ps := make([]*PBox, claimants+1) // the last one revokes
		for i := range ps {
			p, err := m.Create(DefaultRule())
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
			m.Activate(p)
		}
		key := func(g, i int) ResourceKey { return ResourceKey(0x10000*(g+1) + i%keys) }
		var wg, claimed sync.WaitGroup
		claimed.Add(claimants)
		for g := 0; g < claimants; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				w := m.NewWorker()
				if err := w.BindDirect(ps[g]); err != nil {
					t.Error(err)
					claimed.Done()
					return
				}
				for i := 0; i < pairs; i++ {
					if i == keys {
						claimed.Done()
					}
					w.Update(key(g, i), Hold)
					w.Update(key(g, i), Unhold)
				}
				w.Flush()
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			claimed.Wait()
			for i := 0; i < keys; i++ {
				for g := 0; g < claimants; g++ {
					m.Update(ps[claimants], key(g, i), Hold)
					m.Update(ps[claimants], key(g, i), Unhold)
				}
			}
		}()
		wg.Wait()
		// Create and Activate per pBox, every event once.
		if want := int64(2*len(ps) + 2*claimants*pairs + 2*claimants*keys); m.Crossings() != want {
			t.Fatalf("crossings = %d, want %d", m.Crossings(), want)
		}
		if held := m.Status().Resources; len(held) != 0 {
			t.Fatalf("keys still held or waited on after balanced pairs: %+v", held)
		}
		if m.SelfStats().ContentionRevocations == 0 {
			t.Fatal("no claim was revoked: the race did not happen")
		}
	})
}
