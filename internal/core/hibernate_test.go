package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHibernateLifecycleAndRefusals(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)

	// Mid-activity refusal.
	h.m.Activate(p)
	if err := h.m.Hibernate(p); err == nil {
		t.Fatal("expected refusal hibernating an active pBox")
	}
	// Cross-activity holds refuse too: the frozen pBox still owns shard-side
	// holder records that reference the maps hibernation would free.
	h.m.Update(p, ResourceKey(1), Hold)
	h.m.Freeze(p)
	if err := h.m.Hibernate(p); err == nil {
		t.Fatal("expected refusal hibernating with cross-activity holds")
	}
	// Clean frozen pBox hibernates, idempotently.
	h.m.Activate(p)
	h.m.Update(p, ResourceKey(1), Unhold)
	h.m.Freeze(p)
	if err := h.m.Hibernate(p); err != nil {
		t.Fatalf("Hibernate: %v", err)
	}
	if err := h.m.Hibernate(p); err != nil {
		t.Fatalf("second Hibernate not idempotent: %v", err)
	}
	if got := p.State(); got != StateHibernated {
		t.Fatalf("state = %v, want hibernated", got)
	}
	if got := p.State().String(); got != "hibernated" {
		t.Fatalf("state string = %q", got)
	}
	if got := h.m.SelfStats().Hibernated; got != 1 {
		t.Fatalf("Hibernated() = %d, want 1", got)
	}
	// Accounting survives compaction.
	if s := p.snapshot(); s.Activities != 2 || s.State != StateHibernated {
		t.Fatalf("snapshot after hibernate: %+v", s)
	}
	// Events against a hibernated pBox are dropped, like frozen.
	h.m.Update(p, ResourceKey(2), Hold)
	if n := contention(h.m, ResourceKey(2)).Holders; n != 0 {
		t.Fatalf("hibernated pBox acquired a hold: %d", n)
	}
	// Activate wakes transparently.
	h.m.Activate(p)
	if got := p.State(); got != StateActive {
		t.Fatalf("state after wake = %v", got)
	}
	if got := h.m.SelfStats().Hibernated; got != 0 {
		t.Fatalf("Hibernated() after wake = %d, want 0", got)
	}
	st := h.m.SelfStats()
	if st.Hibernations != 1 || st.Wakes != 1 || st.Hibernated != 0 {
		t.Fatalf("self stats: hibernations=%d wakes=%d hibernated=%d",
			st.Hibernations, st.Wakes, st.Hibernated)
	}
	h.m.Freeze(p)

	// Release of a hibernated pBox keeps the gauge honest.
	if err := h.m.Hibernate(p); err != nil {
		t.Fatalf("Hibernate: %v", err)
	}
	if err := h.m.Release(p); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := h.m.SelfStats().Hibernated; got != 0 {
		t.Fatalf("Hibernated() after release = %d, want 0", got)
	}
	if err := h.m.Hibernate(p); err != ErrReleased {
		t.Fatalf("Hibernate on destroyed = %v, want ErrReleased", err)
	}
}

func TestHibernateCarriesPendingPenalty(t *testing.T) {
	obs := newRecordingObserver()
	h := newHarness(t, func(o *Options) { o.Observer = obs })
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)

	// Organic pending penalty: the noisy pBox still holds a second resource
	// when detection fires, so the penalty cannot be served at a safe point
	// and parks in pendingPenalty.
	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, ResourceKey(1), Hold)
	h.m.Update(noisy, ResourceKey(2), Hold)
	h.m.Update(victim, ResourceKey(1), Prepare)
	h.advance(5 * time.Millisecond)
	h.m.Update(noisy, ResourceKey(1), Unhold)
	if noisy.pendingPenalty.Load() <= 0 {
		t.Fatal("expected a pending penalty while holding resource 2")
	}
	h.m.Update(victim, ResourceKey(1), Enter)
	h.m.Freeze(victim)
	h.m.Freeze(noisy)
	// Still holding resource 2 across the freeze: hibernate must refuse
	// rather than strand the shard-side holder record.
	if err := h.m.Hibernate(noisy); err == nil {
		t.Fatal("expected refusal: pending penalty holder still holds a resource")
	}

	// A clean frozen pBox with a pending penalty hibernates and carries it.
	h.m.Activate(noisy)
	h.m.Update(noisy, ResourceKey(2), Unhold)
	h.m.Freeze(noisy)
	const carried = 3 * time.Millisecond
	noisy.penMu.Lock()
	noisy.pendingPenalty.Store(int64(carried))
	noisy.penMu.Unlock()
	if err := h.m.Hibernate(noisy); err != nil {
		t.Fatalf("Hibernate with pending penalty: %v", err)
	}
	if got := noisy.pendingPenalty.Load(); got != int64(carried) {
		t.Fatalf("pending penalty after hibernate = %d, want %d", got, carried)
	}
	before := len(h.sleeps)
	h.m.Activate(noisy) // wake serves the carried penalty first
	if len(h.sleeps) != before+1 || h.sleeps[before] != carried {
		t.Fatalf("carried penalty not served at wake: sleeps %v", h.sleeps)
	}
	h.m.Freeze(noisy)
	h.m.Release(noisy)
	h.m.Release(victim)
}

// TestHibernateWakeRaces hammers hibernate against the full lifecycle and
// both event tiers under -race: wake racing Freeze/Release/Update must never
// corrupt the maps hibernation frees, and the hibernated gauge must settle
// to zero once everything is released.
func TestHibernateWakeRaces(t *testing.T) {
	var now atomic.Int64
	m := NewManager(Options{
		Now:   func() int64 { return now.Add(1000) },
		Sleep: func(time.Duration) {},
	})
	const npbox = 8
	pboxes := make([]*PBox, npbox)
	for i := range pboxes {
		p, err := m.Create(DefaultRule())
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		pboxes[i] = p
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			w := m.NewWorker()
			for i := 0; i < 3000; i++ {
				p := pboxes[rng.Intn(npbox)]
				key := ResourceKey(1 + rng.Intn(4))
				switch rng.Intn(12) {
				case 0, 1:
					m.Activate(p)
				case 2, 3:
					m.Freeze(p)
				case 4:
					if err := m.Hibernate(p); err != nil && err == ErrReleased {
						t.Error("ErrReleased on live pBox")
					}
				case 5:
					_ = p.snapshot()
					_ = m.SelfStats()
				case 6:
					if w.BindDirect(p) == nil {
						w.Update(key, Hold)
						w.Update(key, Unhold)
					}
				default:
					m.Update(p, key, Hold)
					m.Update(p, key, Unhold)
				}
			}
			w.Flush()
		}(int64(g) + 1)
	}
	wg.Wait()
	for _, p := range pboxes {
		m.Freeze(p)
		if err := m.Release(p); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	if got := m.SelfStats().Hibernated; got != 0 {
		t.Fatalf("hibernated gauge after releasing everything = %d, want 0", got)
	}
}

// TestHibernate100kMemoryBound is the memory-bound acceptance check: 100k
// registered pBoxes that each ran a real activity must compact below 512
// bytes apiece once hibernated (the benchmark reports the same figure as
// core.hibernated_bytes_per_pbox).
func TestHibernate100kMemoryBound(t *testing.T) {
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
	var resident runtime.MemStats
	runtime.ReadMemStats(&resident)

	for _, p := range pboxes {
		if err := h.m.Hibernate(p); err != nil {
			t.Fatalf("Hibernate: %v", err)
		}
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	residentPer := float64(int64(resident.HeapAlloc)-int64(before.HeapAlloc)) / n
	hibernatedPer := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("bytes/pBox: resident %.0f, hibernated %.0f", residentPer, hibernatedPer)
	if hibernatedPer > 512 {
		t.Fatalf("hibernated bytes/pBox = %.0f, want <= 512", hibernatedPer)
	}
	if hibernatedPer >= residentPer {
		t.Fatalf("hibernation did not shrink the footprint: resident %.0f, hibernated %.0f",
			residentPer, hibernatedPer)
	}
	// Handles stay live: a woken pBox traces again.
	p := pboxes[0]
	h.m.Activate(p)
	h.m.Update(p, ResourceKey(1), Hold)
	h.m.Update(p, ResourceKey(1), Unhold)
	h.m.Freeze(p)
	if s := p.snapshot(); s.Activities != 2 {
		t.Fatalf("woken pBox activities = %d, want 2", s.Activities)
	}
}
