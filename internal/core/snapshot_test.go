package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotBoundedStaleness pins the §12 contract: a view returned by
// StatusView is never older than SnapshotInterval under the manager clock,
// reads inside the interval share one published view, and the first read
// past the interval rebuilds with the next epoch.
func TestSnapshotBoundedStaleness(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	h.m.Activate(p)

	v1 := h.m.StatusView()
	if v1.Epoch != 1 {
		t.Fatalf("first view epoch = %d, want 1", v1.Epoch)
	}
	if v2 := h.m.StatusView(); v2 != v1 {
		t.Fatalf("second read inside the interval rebuilt: epoch %d", v2.Epoch)
	}

	h.advance(50 * time.Millisecond)
	v3 := h.m.StatusView()
	if v3 != v1 {
		t.Fatalf("read at 50ms rebuilt: epoch %d (interval is 100ms)", v3.Epoch)
	}
	if got := h.m.ViewAge(v3); got != 50*time.Millisecond {
		t.Fatalf("ViewAge = %v, want 50ms", got)
	}

	h.advance(60 * time.Millisecond) // age 110ms > 100ms interval
	v4 := h.m.StatusView()
	if v4 == v1 || v4.Epoch != 2 {
		t.Fatalf("read at 110ms did not rebuild: epoch %d, want 2", v4.Epoch)
	}
	if got := h.m.ViewAge(v4); got != 0 {
		t.Fatalf("fresh view age = %v, want 0", got)
	}

	st := h.m.SelfStats()
	if st.SnapshotBuilds != 2 {
		t.Fatalf("SnapshotBuilds = %d, want 2", st.SnapshotBuilds)
	}
	if st.SnapshotCacheHits != 2 {
		t.Fatalf("SnapshotCacheHits = %d, want 2", st.SnapshotCacheHits)
	}
	if st.SnapshotEpoch != 2 {
		t.Fatalf("SelfStats epoch = %d, want 2", st.SnapshotEpoch)
	}
}

// TestViewAgeNeverNegative: a view read right after its rebuild, on a clock
// that reads a little behind the builder's (exec.Now's unfenced counter read
// on another CPU), is 0 old on both read surfaces, never negative.
func TestViewAgeNeverNegative(t *testing.T) {
	now := int64(time.Second)
	m := NewManager(Options{Now: func() int64 { now--; return now }})
	v := m.RefreshStatusView()
	if age := m.ViewAge(v); age != 0 {
		t.Fatalf("ViewAge right after the rebuild = %v, want 0", age)
	}
	if st := m.SelfStats(); st.SnapshotEpoch != v.Epoch || st.SnapshotAge != 0 {
		t.Fatalf("SelfStats: epoch %d age %v, want epoch %d age 0", st.SnapshotEpoch, st.SnapshotAge, v.Epoch)
	}
}

// TestSnapshotRefreshForcesRebuild: RefreshStatusView bumps the epoch even
// when the published view is fresh, so detection-time captures always see
// pre-call events.
func TestSnapshotRefreshForcesRebuild(t *testing.T) {
	h := newHarness(t)
	v1 := h.m.StatusView()
	v2 := h.m.RefreshStatusView()
	if v2.Epoch != v1.Epoch+1 {
		t.Fatalf("refresh epoch = %d, want %d", v2.Epoch, v1.Epoch+1)
	}
	if v3 := h.m.StatusView(); v3 != v2 {
		t.Fatalf("read after refresh did not return the refreshed view")
	}
}

// TestSnapshotDifferentialQuiesced: with no concurrent writers, two
// consecutive rebuilds agree field for field, and Status() is exactly the
// refreshed view's contents — the epoch path loses only freshness, never
// content.
func TestSnapshotDifferentialQuiesced(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.Attribution = true })
	noisy := h.pbox(0.5)
	h.m.SetLabel(noisy, "noisy")
	victim := h.pbox(0.5)
	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.NameResource(0x100, "cache_lock")

	// Drive contention through a spooled worker and a direct victim so the
	// attribution ledger, holder sets, and trace all have content.
	w := h.m.NewWorker()
	if err := w.BindDirect(noisy); err != nil {
		t.Fatalf("BindDirect: %v", err)
	}
	for i := 0; i < 10; i++ {
		w.Update(0x100, Hold)
		h.advance(2 * time.Millisecond)
		h.m.Update(victim, 0x100, Prepare)
		h.m.Update(victim, 0x100, Enter)
		h.advance(2 * time.Millisecond)
		w.Update(0x100, Unhold)
		h.m.Update(victim, 0x100, Hold)
		h.m.Update(victim, 0x100, Unhold)
	}
	w.Update(0x200, Hold) // leave an open holder so Resources is non-empty
	w.Flush()

	precise := h.m.Status()
	snap := h.m.RefreshStatusView()
	if !reflect.DeepEqual(precise, snap.Status) {
		t.Fatalf("quiesced snapshot diverges from precise Status():\nprecise: %+v\nsnapshot: %+v", precise, snap.Status)
	}
	if len(snap.Resources) == 0 {
		t.Fatal("expected a non-empty Resources view (open holder on 0x200)")
	}
}

// TestSnapshotCachedViewMissesSpooledEvents pins the staleness trade
// explicitly: events still sitting in a worker spool are invisible to the
// cached view until the interval expires or a precise read — Status() or
// RefreshStatusView(), one path — sweeps the spool and republishes.
func TestSnapshotCachedViewMissesSpooledEvents(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	h.m.Activate(p)
	w := h.m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		t.Fatalf("BindDirect: %v", err)
	}

	v1 := h.m.StatusView() // epoch 1, before any event
	w.Update(0x300, Hold)  // spooled: uncontended fast path, not yet replayed

	if v2 := h.m.StatusView(); v2 != v1 || len(v2.Resources) != 0 {
		t.Fatalf("cached view changed or sees the spooled hold: epoch %d resources %v", v2.Epoch, v2.Resources)
	}

	precise := h.m.Status() // flush-on-read: sweeps the spool
	if len(precise.Resources) != 1 || precise.Resources[0].Key != 0x300 || precise.Resources[0].Holders != 1 {
		t.Fatalf("precise Status missed the spooled hold: %+v", precise.Resources)
	}

	// Status() is a refresh: the next cached read is that view, epoch 2.
	v3 := h.m.StatusView()
	if v3.Epoch != v1.Epoch+1 || len(v3.Resources) != 1 || v3.Resources[0].Holders != 1 {
		t.Fatalf("view after precise read: epoch %d resources %+v, want epoch %d with the hold", v3.Epoch, v3.Resources, v1.Epoch+1)
	}
}

// TestConcurrentSnapshotReadersWriters races spooled writers, snapshot
// readers, self-telemetry readers, and forced refreshes (run under -race in
// CI). Readers assert the epoch protocol: epochs never move backwards, and
// every view is internally non-torn (BuiltAt set, epoch > 0).
func TestConcurrentSnapshotReadersWriters(t *testing.T) {
	m := NewManager(Options{
		Sleep:       func(time.Duration) {},
		TraceSize:   256,
		Attribution: true,
	})
	const writers, readers = 4, 3
	var quit atomic.Bool
	var wg sync.WaitGroup

	for i := 0; i < writers; i++ {
		p, err := m.Create(DefaultRule())
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		m.Activate(p)
		w := m.NewWorker()
		if err := w.BindDirect(p); err != nil {
			t.Fatalf("BindDirect: %v", err)
		}
		wg.Add(1)
		go func(w *Worker, key ResourceKey) {
			defer wg.Done()
			for !quit.Load() {
				w.Update(key, Hold)
				w.Update(key, Unhold)
				w.Update(0x999, Hold) // shared key: exercises the contended tier
				w.Update(0x999, Unhold)
			}
			w.Flush()
		}(w, ResourceKey(0x1000+i))
	}

	errs := make(chan string, readers+1)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for !quit.Load() {
				v := m.StatusView()
				if v.Epoch == 0 || v.BuiltAt < 0 {
					errs <- "torn view published"
					return
				}
				if v.Epoch < lastEpoch {
					errs <- "epoch moved backwards"
					return
				}
				lastEpoch = v.Epoch
				_ = m.ViewAge(v)
				_ = m.SelfStats()
				_, _ = m.TraceView(v.TraceSeq)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !quit.Load() {
			v := m.RefreshStatusView()
			if v.Epoch == 0 {
				errs <- "refresh returned epoch 0"
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	time.Sleep(100 * time.Millisecond)
	quit.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	st := m.SelfStats()
	if st.SnapshotBuilds == 0 || st.ShardLockAcquisitions == 0 {
		t.Fatalf("self-telemetry silent under load: %+v", st)
	}
}
