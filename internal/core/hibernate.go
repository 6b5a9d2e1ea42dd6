package core

import "fmt"

// Hibernation (DESIGN.md §15) is the storage tier below StateFrozen for the
// million-registered, few-active tenant regime of the wire ingestion tier: a
// registered pBox that will stay idle for a while is compacted down to its
// bare struct — event-structural maps freed, blame map dropped, the activity
// history ring shrunk to an exact-size slice — while its identity, isolation
// rule, label, lifetime accounting, bindings, and any carried penalty all
// survive. The next Activate wakes it transparently; no caller can tell a
// woken pBox from one that was merely frozen, and the verdict stream over a
// given event sequence is identical either way (refmodel's hibernate-wake
// seeds: the reference model has no hibernation to be invisible).
//
// State machine:
//
//	started/frozen ── Hibernate ──▶ hibernated ── Activate ──▶ active
//	                                    │
//	                                 Release ──▶ destroyed
//
// Hibernate refuses mid-activity pBoxes (StateActive) and pBoxes holding
// resources or waits across activities (their shard-side records reference
// the maps being freed). Pending penalties are carried, not discarded: they
// live in scalar fields that cost nothing to keep, and dropping them would
// let a noisy pBox launder an unserved penalty through a hibernate cycle.

// Hibernate compacts an idle pBox to its minimal resident footprint. The
// handle stays valid and registered; Activate wakes it transparently.
// It is idempotent on an already-hibernated pBox and returns an error when
// the pBox is mid-activity (StateActive), destroyed, or holds resources or
// waits across activities.
func (m *Manager) Hibernate(p *PBox) error {
	// Stragglers spooled against this pBox must reach the books (or be
	// dropped by the replay's state check) before its structures go away.
	m.flushSpoolsFor(p)
	p.mu.Lock()
	defer p.mu.Unlock()
	switch State(p.state.Load()) {
	case StateHibernated:
		return nil
	case StateActive:
		return fmt.Errorf("pbox: cannot hibernate pbox %d mid-activity", p.id)
	case StateDestroyed:
		return ErrReleased
	}
	if len(p.holders) > 0 || len(p.preparing) > 0 {
		return fmt.Errorf("pbox: cannot hibernate pbox %d: holds resources or waits across activities", p.id)
	}
	// Free the event-structural maps; Activate reallocates them at wake.
	// Both are empty here, so no shard-side record can reference them.
	p.holders = nil
	p.preparing = nil
	p.actMu.Lock()
	p.compactHistoryLocked()
	// blame is per-activity state reset by the next Activate anyway.
	p.blame = nil
	p.actMu.Unlock()
	p.setState(StateHibernated)
	m.self.hibernations.Add(1)
	m.self.hibernated.Add(1)
	return nil
}

// compactHistoryLocked rewrites the activity-history ring as an exact-size,
// oldest-first slice, shedding the slack capacity append growth left behind.
// Verdict-neutral: every history consumer (the totalDefer/totalExec sums,
// the sorted tail/max percentile, the windowed adaptive-penalty score) is
// insensitive to element order, and when the ring was full the oldest record
// lands at position 0 with histPos reset to 0, so the next overwrite evicts
// exactly the record the un-compacted ring would have evicted. Caller holds
// p.actMu.
func (p *PBox) compactHistoryLocked() {
	if len(p.history) == 0 {
		p.history = nil
		p.histPos = 0
		return
	}
	out := make([]activityRecord, len(p.history))
	if p.histFull {
		n := copy(out, p.history[p.histPos:])
		copy(out[n:], p.history[:p.histPos])
	} else {
		copy(out, p.history)
	}
	p.history = out
	p.histPos = 0
}
