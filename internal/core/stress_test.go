package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentManagerStress drives a real Manager (real clock, tiny real
// penalties) from many goroutines at once: per-connection pBoxes running
// activities against shared resources, with creates/releases interleaved.
// Run under -race this covers the manager's locking discipline end to end.
func TestConcurrentManagerStress(t *testing.T) {
	m := NewManager(Options{
		MinPenalty: 50 * time.Microsecond,
		MaxPenalty: 200 * time.Microsecond,
	})
	keys := []ResourceKey{1, 2, 3}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := m.Create(DefaultRule())
			if err != nil {
				t.Error(err)
				return
			}
			defer func() {
				if err := m.Release(p); err != nil {
					t.Error(err)
				}
			}()
			for i := 0; i < 60; i++ {
				m.Activate(p)
				key := keys[(g+i)%len(keys)]
				m.Update(p, key, Prepare)
				m.Update(p, key, Enter)
				m.Update(p, key, Hold)
				if i%3 == 0 {
					time.Sleep(50 * time.Microsecond)
				}
				m.Update(p, key, Unhold)
				m.Freeze(p)
			}
		}(g)
	}
	wg.Wait()
	if len(m.Status().Snapshots) != 0 {
		t.Fatalf("live pboxes after stress = %d", len(m.Status().Snapshots))
	}
	for _, key := range keys {
		if c := contention(m, key); c.Waiters != 0 || c.Holders != 0 {
			t.Fatalf("dangling bookkeeping on key %v", key)
		}
	}
}

// TestConcurrentBindStress drives the event-driven worker shim from several
// worker goroutines binding/unbinding a shared set of pBoxes.
func TestConcurrentBindStress(t *testing.T) {
	m := NewManager(Options{})
	const nConns = 4
	for i := 0; i < nConns; i++ {
		p, err := m.Create(DefaultRule())
		if err != nil {
			t.Fatal(err)
		}
		m.MarkShared(p)
		m.Associate(p, uintptr(0x100+i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := m.NewWorker()
			for i := 0; i < 100; i++ {
				key := uintptr(0x100 + (w+i)%nConns)
				p, err := worker.Bind(key, BindShared)
				if err != nil {
					continue // penalized or taken — requeue semantics
				}
				m.Activate(p)
				m.Update(p, ResourceKey(9), Hold)
				m.Update(p, ResourceKey(9), Unhold)
				m.Freeze(p)
				if _, err := worker.Unbind(key, BindShared); err != nil {
					t.Errorf("unbind: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPenaltySleepRunsOffManagerLock: while one pBox serves a (real) penalty
// sleep, other pBoxes must be able to use the manager — the penalty must
// never be served holding the manager's mutex.
func TestPenaltySleepRunsOffManagerLock(t *testing.T) {
	m := NewManager(Options{
		MinPenalty: 5 * time.Millisecond,
		MaxPenalty: 5 * time.Millisecond,
	})
	noisy, _ := m.Create(DefaultRule())
	victim, _ := m.Create(DefaultRule())
	m.Activate(noisy)
	m.Activate(victim)
	key := ResourceKey(5)
	m.Update(noisy, key, Hold)
	m.Update(victim, key, Prepare)
	time.Sleep(4 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		m.Update(noisy, key, Unhold) // serves a 5ms penalty inline
		close(done)
	}()
	time.Sleep(time.Millisecond) // the penalty sleep is in progress
	t0 := time.Now()
	other, _ := m.Create(DefaultRule())
	m.Activate(other)
	m.Freeze(other)
	if el := time.Since(t0); el > 3*time.Millisecond {
		t.Fatalf("manager blocked for %v during a penalty sleep", el)
	}
	<-done
	if noisy.snapshot().PenaltiesReceived != 1 {
		t.Fatal("penalty was not served")
	}
}

// reconcileObserver counts the attribution-relevant observer stream with
// atomics only (the callbacks fire under manager locks and must not call
// back into the Manager).
type reconcileObserver struct {
	RecordObserver
	created, released atomic.Int64
	blockedNs         atomic.Int64
	servedNs          atomic.Int64
	servedForNs       atomic.Int64
}

func newReconcileObserver() *reconcileObserver {
	o := &reconcileObserver{}
	o.Sink = o
	return o
}

func (o *reconcileObserver) Record(rec Record) {
	switch rec.Kind {
	case KindCreate:
		o.created.Add(1)
	case KindRelease:
		o.released.Add(1)
	case KindServed:
		o.servedNs.Add(rec.Dur)
	case KindBlocked:
		o.blockedNs.Add(rec.Dur)
	case KindServedFor:
		o.servedForNs.Add(rec.Dur)
	}
}

// TestConcurrentStressReconciles runs the full lifecycle mix — concurrent
// Create/Release/Activate/Update/Freeze across 8 worker goroutines, 64 cold
// per-worker resource keys plus a small hot contended set, with attribution
// and tracing on and diagnostic readers (Status, Snapshots, ActionReport)
// polling throughout — then checks the books balance after quiescence:
// every holder and waiter record is gone, and the attribution ledger's
// blocked/served totals equal what the observer stream saw. Cold-key events
// go through per-goroutine Workers (the Tier A spool of spool.go) while
// hot-key events take direct Manager.Update, so the two ingestion tiers
// interleave: round-over-round pBox turnover revokes fast-path claims
// mid-stream and the diagnostic readers force flush-on-read sweeps. Run
// under -race this exercises the sharded lock order and the spool's flush
// serialization end to end.
func TestConcurrentStressReconciles(t *testing.T) {
	obs := newReconcileObserver()
	m := NewManager(Options{
		MinPenalty:  20 * time.Microsecond,
		MaxPenalty:  100 * time.Microsecond,
		Attribution: true,
		Observer:    obs,
		TraceSize:   512,
	})
	// 8 workers × 8 distinct cold keys each = 64 disjoint resource keys,
	// plus the shared hot set below.
	const (
		workers = 8
		rounds  = 8
	)
	hotKeys := []ResourceKey{0x10, 0x11} // the contended set
	var (
		handleMu sync.Mutex
		handles  []*PBox
	)

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
			_ = m.Status().Snapshots
			_ = m.ActionReport()
			_ = preciseTrace(m)
			_ = m.Status().Attribution
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			worker := m.NewWorker()
			for r := 0; r < rounds; r++ {
				p, err := m.Create(DefaultRule())
				if err != nil {
					t.Error(err)
					return
				}
				handleMu.Lock()
				handles = append(handles, p)
				handleMu.Unlock()
				m.SetLabel(p, "w")
				if err := worker.BindDirect(p); err != nil {
					t.Errorf("BindDirect: %v", err)
					return
				}
				for i := 0; i < 20; i++ {
					m.Activate(p)
					cold := ResourceKey(0x1000 + g*8 + i%8)
					worker.Update(cold, Hold)
					hot := hotKeys[(g+i)%len(hotKeys)]
					m.Update(p, hot, Prepare)
					m.Update(p, hot, Enter)
					m.Update(p, hot, Hold)
					if i%4 == 0 {
						time.Sleep(30 * time.Microsecond)
					}
					m.Update(p, hot, Unhold)
					worker.Update(cold, Unhold)
					m.Freeze(p)
				}
				if err := m.Release(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopReaders)
	readers.Wait()

	// Quiescent: the books must balance.
	if live := len(m.Status().Snapshots); live != 0 {
		t.Fatalf("live pboxes after stress = %d", live)
	}
	if obs.created.Load() != int64(workers*rounds) || obs.released.Load() != int64(workers*rounds) {
		t.Fatalf("lifecycle stream: created=%d released=%d want %d each",
			obs.created.Load(), obs.released.Load(), workers*rounds)
	}
	for g := 0; g < workers; g++ {
		for i := 0; i < 8; i++ {
			if key := ResourceKey(0x1000 + g*8 + i); contention(m, key) != (ResourceView{Key: key}) {
				t.Fatalf("dangling bookkeeping on cold key %#x", uintptr(key))
			}
		}
	}
	for _, key := range hotKeys {
		if c := contention(m, key); c.Waiters != 0 || c.Holders != 0 {
			t.Fatalf("dangling bookkeeping on hot key %#x", uintptr(key))
		}
	}
	if d := m.Status().AttributionDropped; d != 0 {
		t.Fatalf("attribution ledger dropped %d triples; totals would not reconcile", d)
	}
	var ledgerBlocked, ledgerServed time.Duration
	for _, rec := range m.Status().Attribution {
		ledgerBlocked += rec.Blocked
		ledgerServed += rec.PenaltyServed
	}
	if got, want := int64(ledgerBlocked), obs.blockedNs.Load(); got != want {
		t.Fatalf("blocked time: ledger=%d observer=%d", got, want)
	}
	if got, want := int64(ledgerServed), obs.servedForNs.Load(); got != want {
		t.Fatalf("served time: ledger=%d attribution observer=%d", got, want)
	}
	if got, want := obs.servedForNs.Load(), obs.servedNs.Load(); got != want {
		t.Fatalf("served time: attribution observer=%d observer=%d", got, want)
	}
	var snapshotServed time.Duration
	for _, p := range handles {
		snapshotServed += p.snapshot().PenaltyTotal
	}
	if got, want := int64(snapshotServed), obs.servedNs.Load(); got != want {
		t.Fatalf("served time: per-pbox snapshots=%d observer=%d", got, want)
	}
}
