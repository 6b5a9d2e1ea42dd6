package core

import (
	"fmt"
	"time"
)

// The event-driven model (Section 4.1, Figure 6b): multiple pBoxes share the
// same worker thread and only one pBox owns a thread at a time. unbind_pbox
// detaches the pBox from the current thread and associates it with a key
// (e.g. the connection identifier); bind_pbox finds the pBox for a key and
// binds it to the current thread.
//
// In this userspace reproduction a Worker stands in for one worker thread's
// user-level library state. It implements the lazy-unbind optimization of
// Section 5: an unbind immediately followed by a bind of the same pBox costs
// no manager crossing at all.
//
// A Worker owns one event spool (spool.go), which the manager reaches only
// through the hint of the pBox whose records it holds. Every hand-off of a pBox
// from one worker to another passes through a flush on the giving side
// (Unbind, Bind or BindDirect over a live binding), which also withdraws the
// pBox's spool hint — so the receiving worker's first append takes its own
// spool over without meeting the giver's.

// Worker is the per-worker-thread shim of the user-level pBox library.
// It is not safe for concurrent use — exactly like thread-local state.
type Worker struct {
	mgr *Manager
	// cur is the pBox currently bound to this worker thread.
	cur *PBox
	// detached marks a lazy unbind: cur is logically detached but the
	// manager still considers it bound to this thread.
	detached    bool
	detachedKey uintptr
	// spool is this worker's Tier A event buffer (spool.go).
	spool *eventSpool
}

// NewWorker returns the library state for one worker thread. The manager
// keeps no list of workers or spools, so a worker needs no closing: one that
// is dropped is garbage once its last batch is flushed — by a lifecycle call,
// a revocation or a view rebuild, each of which finds the spool through the
// hint of the pBox whose records it holds.
func (m *Manager) NewWorker() *Worker {
	return &Worker{mgr: m, spool: newEventSpool(m)}
}

// Current returns the pBox bound to this worker, or nil.
func (w *Worker) Current() *PBox {
	if w.detached {
		return nil
	}
	return w.cur
}

// Unbind detaches the worker's current pBox and associates it with key k
// (unbind_pbox). Under lazy unbind no manager call is made; the association
// is published to the manager only if a different pBox is bound afterwards.
func (w *Worker) Unbind(k uintptr, flags BindFlags) (int, error) {
	if w.cur == nil || w.detached {
		return 0, fmt.Errorf("pbox: unbind with no bound pBox")
	}
	p := w.cur
	// Unbind is a flush trigger: the activity slice this worker traced for p
	// ends here, and another worker may pick p up next — its events must not
	// sit buffered behind a detached worker.
	w.spool.flush(true)
	w.mgr.SetShared(p, flags == BindShared)
	// Lazy unbind: mark detached, pause tracing, no crossing.
	w.detached = true
	w.detachedKey = k
	return p.id, nil
}

// Bind finds the pBox associated with key k and binds it to this worker
// thread (bind_pbox). If the worker lazily unbound the same pBox, the bind
// is satisfied locally. If the pBox is a shared-thread pBox still under
// penalty, Bind fails with *ErrPenalized and the caller must requeue the
// task — the manager's way of delaying a noisy pBox without stalling the
// shared thread (Section 5).
func (w *Worker) Bind(k uintptr, flags BindFlags) (*PBox, error) {
	if w.detached && w.detachedKey == k && w.cur != nil && w.cur.State() != StateDestroyed {
		p := w.cur
		if err := w.checkPenalty(p); err != nil {
			return nil, err
		}
		w.detached = false
		return p, nil
	}
	// Different pBox: publish the pending detach and do a real bind.
	if w.detached && w.cur != nil {
		w.mgr.Associate(w.cur, w.detachedKey)
		w.detached = false
		w.cur = nil
	}
	p := w.mgr.lookupBinding(k)
	if p == nil {
		return nil, fmt.Errorf("pbox: no pBox associated with key %#x", k)
	}
	if err := w.checkPenalty(p); err != nil {
		return nil, err
	}
	// Rebinding to a different pBox: flush any records still buffered for
	// the previous one (Unbind flushed already on that path, but Bind may
	// also be called over a live binding).
	if w.cur != nil && w.cur != p {
		w.spool.flush(true)
	}
	w.mgr.SetShared(p, flags == BindShared)
	w.cur = p
	return p, nil
}

// checkPenalty reports ErrPenalized when p's requeue deadline is in the
// future: a local check, library work with no crossing.
func (w *Worker) checkPenalty(p *PBox) error {
	if d := w.mgr.PenaltyWait(p); d > 0 {
		return &ErrPenalized{PBoxID: p.id, Wait: d}
	}
	return nil
}

// BindDirect binds an existing pBox handle to this worker without a key
// lookup; used when the application still has the handle (e.g. dedicated
// threads in a hybrid architecture).
func (w *Worker) BindDirect(p *PBox) error {
	// The penalty check comes first: a refused bind changes nothing — the
	// worker stays lazily detached and no unbind is published.
	if err := w.checkPenalty(p); err != nil {
		return err
	}
	if w.detached && w.cur != nil && w.cur != p {
		w.mgr.Associate(w.cur, w.detachedKey)
	}
	w.detached = false
	if w.cur != nil && w.cur != p {
		w.spool.flush(true)
	}
	w.cur = p
	return nil
}

// Associate records the key→pBox association in the manager's registry: the
// real unbind syscall a lazy Unbind publishes once another pBox is bound, and
// the eager form for applications that register connections up front rather
// than via Worker.Unbind.
func (m *Manager) Associate(p *PBox, k uintptr) {
	m.cross(p.id)
	m.reg.Lock()
	defer m.reg.Unlock()
	if p.stateIs(StateDestroyed) {
		return
	}
	if p.hasBoundKey && m.reg.bindings[p.boundKey] == p {
		delete(m.reg.bindings, p.boundKey)
	}
	p.boundKey = k
	p.hasBoundKey = true
	m.reg.bindings[k] = p
}

// lookupBinding resolves a key to its associated pBox.
func (m *Manager) lookupBinding(k uintptr) *PBox {
	m.cross(0)
	m.reg.Lock()
	defer m.reg.Unlock()
	return m.reg.bindings[k]
}

// PenaltyWait returns how much longer pBox p must stay queued (shared-thread
// penalty), zero if runnable. Event loops may use it to schedule requeues.
func (m *Manager) PenaltyWait(p *PBox) time.Duration {
	now := m.opts.Now()
	p.penMu.Lock()
	defer p.penMu.Unlock()
	if p.penaltyUntil > now {
		return time.Duration(p.penaltyUntil - now)
	}
	return 0
}
