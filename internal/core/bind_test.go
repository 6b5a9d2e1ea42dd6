package core

import (
	"errors"
	"testing"
	"time"
)

func TestWorkerBindUnbindRoundTrip(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	w := h.m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		t.Fatalf("BindDirect: %v", err)
	}
	if w.Current() != p {
		t.Fatal("Current != bound pBox")
	}
	const connKey = uintptr(0xbeef)
	id, err := w.Unbind(connKey, BindShared)
	if err != nil {
		t.Fatalf("Unbind: %v", err)
	}
	if id != p.ID() {
		t.Fatalf("Unbind returned id %d, want %d", id, p.ID())
	}
	if w.Current() != nil {
		t.Fatal("Current should be nil after unbind")
	}
	got, err := w.Bind(connKey, BindShared)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if got != p {
		t.Fatal("Bind returned a different pBox")
	}
}

// TestLazyUnbindAvoidsCrossings: unbind immediately followed by bind of the
// same pBox must not cost manager crossings (Section 5's optimization).
func TestLazyUnbindAvoidsCrossings(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	w := h.m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		t.Fatal(err)
	}
	base := h.m.Crossings()
	for i := 0; i < 100; i++ {
		if _, err := w.Unbind(uintptr(0x1), BindShared); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Bind(uintptr(0x1), BindShared); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.m.Crossings() - base; got != 0 {
		t.Fatalf("lazy unbind/bind cost %d crossings, want 0", got)
	}
}

// TestEagerUnbindPublishes: binding a different pBox after a lazy unbind
// publishes the detached association so another worker can pick it up.
func TestEagerUnbindPublishes(t *testing.T) {
	h := newHarness(t)
	p1 := h.pbox(0.5)
	p2 := h.pbox(0.5)
	h.m.Associate(p2, uintptr(0x2))

	w := h.m.NewWorker()
	if err := w.BindDirect(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Unbind(uintptr(0x1), BindShared); err != nil {
		t.Fatal(err)
	}
	// Bind a different key: the lazy detach of p1 must be published.
	got, err := w.Bind(uintptr(0x2), BindShared)
	if err != nil {
		t.Fatalf("Bind(0x2): %v", err)
	}
	if got != p2 {
		t.Fatal("bound wrong pBox")
	}
	// Another worker finds p1 under key 0x1.
	w2 := h.m.NewWorker()
	got1, err := w2.Bind(uintptr(0x1), BindShared)
	if err != nil {
		t.Fatalf("worker2 Bind(0x1): %v", err)
	}
	if got1 != p1 {
		t.Fatal("worker2 bound wrong pBox")
	}
}

func TestBindUnknownKeyFails(t *testing.T) {
	h := newHarness(t)
	w := h.m.NewWorker()
	if _, err := w.Bind(uintptr(0x404), BindShared); err == nil {
		t.Fatal("expected error binding unknown key")
	}
}

func TestUnbindWithoutBindFails(t *testing.T) {
	h := newHarness(t)
	w := h.m.NewWorker()
	if _, err := w.Unbind(uintptr(1), BindShared); err == nil {
		t.Fatal("expected error unbinding with nothing bound")
	}
}

// TestBindPenalizedSharedPBox: a shared-thread pBox under penalty must fail
// Bind with ErrPenalized carrying the remaining wait.
func TestBindPenalizedSharedPBox(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	h.m.MarkShared(noisy)
	h.m.Associate(noisy, uintptr(0x7))
	key := ResourceKey(5)

	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, key, Hold)
	h.m.Update(victim, key, Prepare)
	h.advance(4 * time.Millisecond)
	h.m.Update(noisy, key, Unhold) // penalty -> penaltyUntil

	w := h.m.NewWorker()
	_, err := w.Bind(uintptr(0x7), BindShared)
	var pe *ErrPenalized
	if !errors.As(err, &pe) {
		t.Fatalf("Bind err = %v, want ErrPenalized", err)
	}
	if pe.Wait <= 0 || pe.PBoxID != noisy.ID() {
		t.Fatalf("ErrPenalized = %+v", pe)
	}
	// After the deadline, bind succeeds.
	h.advance(pe.Wait + time.Millisecond)
	if _, err := w.Bind(uintptr(0x7), BindShared); err != nil {
		t.Fatalf("Bind after deadline: %v", err)
	}
}

// TestBindDirectPenalizedChangesNothing: a BindDirect refused with
// ErrPenalized leaves the worker as it was — still lazily detached from the
// pBox it unbound (no events traced into it) and with no unbind published.
func TestBindDirectPenalizedChangesNothing(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	other := h.pbox(0.5)
	h.m.MarkShared(noisy)
	key := ResourceKey(5)

	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Activate(other)
	h.m.Update(noisy, key, Hold)
	h.m.Update(victim, key, Prepare)
	h.advance(4 * time.Millisecond)
	h.m.Update(noisy, key, Unhold) // penalty -> penaltyUntil

	w := h.m.NewWorker()
	if err := w.BindDirect(other); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Unbind(uintptr(0x8), BindDedicated); err != nil {
		t.Fatal(err)
	}
	before := h.m.Crossings()
	var pe *ErrPenalized
	if err := w.BindDirect(noisy); !errors.As(err, &pe) {
		t.Fatalf("BindDirect err = %v, want ErrPenalized", err)
	}
	if cur := w.Current(); cur != nil {
		t.Fatalf("refused BindDirect re-attached pBox %d", cur.ID())
	}
	w.Update(ResourceKey(0x77), Hold)
	w.Flush()
	if c := contention(h.m, 0x77); c.Holders != 0 {
		t.Fatal("an event after the refused BindDirect was traced into the unbound pBox")
	}
	if got := h.m.Crossings(); got != before {
		t.Fatalf("refused BindDirect cost %d crossings: the lazy unbind was published", got-before)
	}
	// The lazy unbind is still pending: the same key binds back locally.
	if p, err := w.Bind(uintptr(0x8), BindDedicated); err != nil || p != other {
		t.Fatalf("Bind after the refused BindDirect = %v, %v; want the unbound pBox back", p, err)
	}
}

// TestReleaseDropsBinding: releasing an associated pBox removes the key.
func TestReleaseDropsBinding(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	h.m.Associate(p, uintptr(0x9))
	if err := h.m.Release(p); err != nil {
		t.Fatal(err)
	}
	w := h.m.NewWorker()
	if _, err := w.Bind(uintptr(0x9), BindShared); err == nil {
		t.Fatal("bind to released pBox's key should fail")
	}
}
