package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Two-tier event ingestion (DESIGN.md §10). The sharded Update path still
// takes the calling pBox's mutex and one shard lock on every event, even when
// the resource has no competitors at all — the overwhelmingly common case.
// The paper's kernel pBox keeps tracing overhead negligible with per-thread
// state tracking, falling into the manager only when a transition can
// actually trigger detection (§5); this file is that idea in userspace.
//
// Tier A (fast path): when a resource's contention slot shows no cross-pBox
// competition, Worker.Update records the event in the worker's own fixed
// capacity spool — (key, event, timestamp) — under the spool's own mutex,
// touching no shard and no pBox mutex. Tier B (slow path): any event on a
// contended slot — or any direct Manager.Update, which by definition may
// create cross-pBox overlap — flips the slot, flushes the spool of the pBox
// whose claim it revoked, and then runs the full Algorithm 1 bookkeeping, so
// detection verdicts, penalties, attribution, flight-recorder captures, and
// observer callbacks see exactly the event stream the unspooled manager
// produces: batched events are replayed in order with their recorded
// timestamps.
//
// Contention-slot state machine (one atomic.Int64 per slot, keys hashed onto
// slots with the same Fibonacci mix as shards):
//
//	 0  untouched: no pBox has ever touched a key hashing here
//	>0  claimed: the id of the single pBox spooling events for keys here
//	-1  contended: slow path only (sticky; see below)
//
// The fast path claims a slot with CAS(0→id) or proceeds when it already
// holds its own id. Anything else — another pBox's claim, or -1 — is the
// cross-pBox overlap condition ("first HOLD by X while the holder hint names
// Y, first PREPARE while a holder exists" both reduce to this, because any
// shard-side state for the slot's keys was created by the claimant alone).
// The slow path revokes claims with markContended: swap in -1 and, if a
// claim was present, flush the claimant's spool before applying the triggering
// event — the slot's value names the only pBox that can have spooled records on
// its keys, and that pBox's hint names the one spool holding them.
// The -1 is sticky: distinct keys alias the same slot, so "the key's state
// emptied" never proves the slot is reclaimable — resetting could hand a
// fast-path claim to a key whose alias still has live shard state. Stickiness
// degrades performance only, never correctness: a contended slot simply runs
// today's slow path forever.
//
// A spool has one lock and one buffer: an append holds eventSpool.mu for a few
// stores, a flush holds it across the in-place replay of the buffer (a Freeze,
// across the whole transition). It ranks after Manager.snap and before the
// registry (Manager's lock order; lint lockorder enforces it): nothing may
// take it while holding any manager lock, and no path holds two.
//
// Flush triggers: the spool fills, a slow-path event arrives on the worker
// (the spool holding the pBox's records first, so per-pBox order holds), the
// worker rebinds or unbinds, the pBox is Activated/Frozen/Released or its
// shared-thread marking is set (SetShared), its claim on a slot is
// revoked, or a StatusView rebuild needs the spooled state (flush-on-read over
// the registered pBoxes' hints).
//
// A spool is found through its pBox: whoever is not its owner — a lifecycle
// call, SetShared, a revocation — flushes the spool the pBox's hint
// (PBox.spool) names (flushHinted), and a view rebuild flushes the hints of the
// registered pBoxes (sweepSpools). So Activate/Freeze/Release take no
// manager-wide lock (a traced manager's ring lock is the pBox's own
// stripe's), and a revocation stalls only the claimant's feeder. Nothing in
// the manager lists the spools: a dropped Worker's spool is reachable only
// while a hint names it, and needs no closing. A flush adds its counts and its
// batch's crossings to the pBox's stripe of the manager's counters
// (Manager.stripes).
//
// Hint invariant, maintained inside eventSpool.mu: sp.pbox == p ⇔ p.spool ==
// sp — a pBox's records sit in one spool at a time. The append that takes an
// empty spool over for p publishes the hint with CAS(nil → sp) and is refused
// while another spool is named; the flush that replayed p's batch withdraws it
// before it unlocks. A refused worker flushes the named spool itself and
// retries (Worker.Update), so a hand-off between workers — sequential (Unbind
// flushes on A, Bind appends on B) or not — keeps the pBox's issue order.

// contentionSlots is the fixed size of the contention-slot table (power of
// two). More slots mean fewer aliasing collisions, and a collision costs
// performance only (a shared claim fails and falls to the slow path).
const (
	contentionSlots = 1024
	contentionShift = 54 // 64 - log2(contentionSlots)
)

// contentionTable is the slot array of the fast path, embedded by value in
// the Manager so Worker.Update resolves a slot with one offset computation
// from the manager pointer — no table-pointer chase, slice-header load, or
// runtime stride multiply, each of which measurably taxes the ~50 ns
// uncontended op. Consecutive slots sit on distinct cache lines — 64 KiB per
// manager — because adjacent 8-byte atomics hammered by different workers'
// CAS/Load traffic false-share catastrophically on multicore (pad.go).
type contentionTable struct {
	slots [contentionSlots * padWords]atomic.Int64
}

// slot returns the contention slot owning key. The constant stride into a
// fixed-size array means the shift-bounded index needs no bounds check.
//
//pbox:hotpath
func (t *contentionTable) slot(key ResourceKey) *atomic.Int64 {
	idx := (uint64(key) * fibMix) >> contentionShift
	return &t.slots[idx*padWords]
}

// stickySlots counts slots currently stuck at the contended value.
//
//pbox:snapshotreader
func (t *contentionTable) stickySlots() int {
	n := 0
	for i := 0; i < contentionSlots; i++ {
		if t.slots[i*padWords].Load() == contendedSlot {
			n++
		}
	}
	return n
}

// spoolCapacity is the size of every worker spool, in records.
const spoolCapacity = 256

// spoolRec is one spooled event. No pointers: the spool buffer is reused for
// the life of the worker and must hold nothing alive.
type spoolRec struct {
	key ResourceKey
	ev  EventType
	at  int64 // manager-clock ns: the caller's stamp, or read at append time
}

// eventSpool is one worker's Tier A buffer: one mutex, one buffer preallocated
// at construction, and an append/flush cycle that allocates nothing. mu guards
// the buffer and its header and is held across a flush's replay, so two
// flushers — the owning worker racing a sweep or a lifecycle call — can never
// replay the same batch twice or out of order, and the owner's next append
// waits for a replay in flight (at most one buffer's worth; DESIGN.md §10).
type eventSpool struct {
	m *Manager

	// mu ranks before the registry in the lock order: replay acquires
	// pbox/shard/verdict locks under it, and nothing may acquire it while
	// holding any manager lock.
	mu   sync.Mutex
	pbox *PBox // owner of the buffered records (nil when empty)
	recs []spoolRec
	n    int

	_ cacheLinePad // keep the header off the next allocation's line
}

func newEventSpool(m *Manager) *eventSpool {
	return &eventSpool{m: m, recs: make([]spoolRec, spoolCapacity)}
}

// appendRun is Tier A's one append and its one admission predicate: under one
// hold of mu it appends the longest prefix of a run stamped at that may be
// spooled — p active, the key's slot p's own or claimed by CAS(0→id), room in
// the buffer, and the buffer p's or empty, an empty one taken over by
// publishing the hint (CAS(nil → sp): refused while another spool holds p's
// records) — and returns its length and the slots it claimed. Nothing else
// runs under the hold (no clock, no observer, no other lock), and it covers at
// most spoolCapacity appends: less than the replay a flush holds mu across.
//
//pbox:hotpath
func (sp *eventSpool) appendRun(p *PBox, run []KeyEvent, at int64) (n int, claims int64) {
	m, id := sp.m, int64(p.id)
	sp.mu.Lock()
	for ; n < len(run); n++ {
		if !p.stateIs(StateActive) {
			break
		}
		if slot := m.contentionSlot(run[n].Key); slot.Load() != id {
			if !slot.CompareAndSwap(0, id) {
				break
			}
			claims++
		}
		if sp.n >= len(sp.recs) || (sp.n > 0 && sp.pbox != p) ||
			(sp.n == 0 && !p.spool.CompareAndSwap(nil, sp)) {
			break
		}
		sp.pbox = p
		sp.recs[sp.n] = spoolRec{key: run[n].Key, ev: run[n].Ev, at: at}
		sp.n++
	}
	sp.mu.Unlock()
	return n, claims
}

// flush replays the buffered records in place, in order and with their
// recorded timestamps, and hands the spool back empty — all under mu. serve
// selects whether a penalty that became servable by the replay is slept here —
// true only when the flush runs on the owning worker's goroutine (its own fills
// and slow-path hand-offs); sweep and lifecycle flushes pass false so a
// diagnostics reader never serves another pBox's delay.
func (sp *eventSpool) flush(serve bool) {
	sp.mu.Lock()
	p := sp.pbox
	var pen time.Duration
	if p != nil {
		pen = sp.m.replay(p, sp.recs[:sp.n], serve)
		sp.emptied()
	}
	sp.mu.Unlock()
	// The penalty sleep runs after mu is released so a concurrent sweep never
	// stalls behind a millisecond-scale delay.
	if pen > 0 {
		sp.m.sleepPenalty(p, pen)
	}
}

// emptied closes every flush once the batch's rows are delivered: the three
// counters on the pBox's stripe (each spooled event is one crossing, added
// here, not per event), the hint withdrawn, the header reset. Caller holds mu.
func (sp *eventSpool) emptied() {
	n := int64(sp.n)
	s := sp.m.stripe(sp.pbox.id)
	s.flushes.Add(1)
	s.flushedEvents.Add(n)
	s.crossings.Add(n)
	sp.pbox.spool.Store(nil)
	sp.n, sp.pbox = 0, nil
}

// contentionSlot returns the slot owning key.
//
//pbox:hotpath
func (m *Manager) contentionSlot(key ResourceKey) *atomic.Int64 {
	return m.contention.slot(key)
}

// markContended revokes any fast-path claim on key's slot before a slow-path
// event is applied. If a claim was present, the claimant's spool is flushed
// first, so its spooled records — which logically precede the triggering event
// — reach the shard state before it: the slot names the claimant by id, and the
// claimant names its spool. A claimant already released needs nothing: Release
// flushed it, and a replay drops whatever a straggler spooled since. Caller
// holds no manager locks (the registry lock is let go before the flush).
//
//pbox:hotpath
func (m *Manager) markContended(key ResourceKey) {
	slot := m.contentionSlot(key)
	if slot.Load() == contendedSlot {
		return
	}
	if prev := slot.Swap(contendedSlot); prev > 0 {
		m.self.contentionRevokes.Add(1)
		m.reg.Lock()
		claimant := m.reg.pboxes[int(prev)]
		m.reg.Unlock()
		if claimant != nil {
			claimant.flushHinted()
		}
	}
}

// contendedSlot is the sticky "slow path only" slot value.
const contendedSlot = -1

// sweepSpools is the flush-on-read of collectStatus, and the only thing
// SelfStats.SpoolSweeps counts: it flushes the spool each registered pBox's
// hint names — every spool holding records the view will show — one lock at a
// time. The hints are read under the registry lock and flushed once it is
// released, as the lock order requires. Flushes run with serve=false: a
// diagnostics reader must never sleep a penalty on a pBox's behalf.
func (m *Manager) sweepSpools() {
	m.self.spoolSweeps.Add(1)
	var hinted []*eventSpool
	m.reg.Lock()
	for _, p := range m.reg.pboxes {
		if sp := p.spool.Load(); sp != nil {
			hinted = append(hinted, sp)
		}
	}
	m.reg.Unlock()
	for _, sp := range hinted {
		sp.flush(false)
	}
}

// flushHinted replays the spool p's hint names, if any, without serving a
// penalty: the one way anything but the spool's owner reaches a spool — the
// lifecycle calls (so a transition observes every event p's workers recorded
// before it), SetShared, a revocation, a refused append. Counts no crossing.
// Caller holds no manager locks (the flush acquires p.mu itself).
//
//pbox:hotpath
func (p *PBox) flushHinted() {
	if sp := p.spool.Load(); sp != nil {
		sp.flush(false)
	}
}

// replay applies a batch — a spool's buffer, or updateAt's one event —
// under p's mutex with the recorded timestamps as the event clock, so the
// bookkeeping (observer callbacks, Algorithm 1 arms) sees the stream the
// unspooled manager would have seen. Records of a pBox that left its active
// window (frozen or released while the batch was buffered) are dropped,
// mirroring the unspooled drop of events outside activate…freeze. Returns a
// penalty to serve (only when serve is set and the safe-point check passes);
// the caller sleeps it with no lock held.
func (m *Manager) replay(p *PBox, recs []spoolRec, serve bool) time.Duration {
	p.mu.Lock()
	if !p.stateIs(StateActive) {
		p.mu.Unlock()
		return 0
	}
	if run := m.replayBatch(p, recs); len(run) > 0 && m.obs != nil {
		m.emitStates(p, run, nil)
	}
	var pen time.Duration
	if serve {
		pen = m.safePoint(p)
	}
	p.mu.Unlock()
	return pen
}

// replayBatch applies a batch, observed or not. With p.mu held for the whole
// batch and each key's shard lock held across every record that touches it,
// no intermediate state is observable, which licenses two batch-local
// reductions the per-event path cannot make:
//
//   - one shard lock acquisition covers a run of same-shard records, and
//   - an adjacent balanced pair that provably changes nothing collapses:
//     HOLD+UNHOLD on an already-held key is a hold-count up/down; HOLD+UNHOLD
//     on an unheld key still private to p (privateTo) inserts and removes
//     the same holder entries with nothing watching; PREPARE+ENTER is exactly
//     a deferTime contribution of the recorded interval (the waiter the
//     PREPARE would register is removed by the very next record, so no UNHOLD
//     between them can blame it).
//
// None of the three looks at a stripe, so a batch of balanced pairs on
// private keys — the whole of an uninterfered activity — takes no shard lock
// at all: which stripe a private key hashes to, and which other tenant's keys
// share it, costs such a tenant nothing. A collapse is a statement about
// manager state, not about who listens: the pair's two state rows still go out.
//
// Anything else — unpaired records, pairs on a key p itself waits for or
// whose claim was revoked while the batch sat in the spool — runs the
// ordinary Algorithm 1 arm, so verdicts, blame, and penalties come out
// exactly as the unspooled manager's.
//
// State rows go out lazily, as runs (emitStates): recs[sent:i+1] immediately
// before record i's arm executes; the rest is returned for the caller to
// deliver — a Freeze, with its own two rows. Only arms emit verdict rows, so
// every sink sees the slow path's order, and a batch of collapsed pairs is one
// run: one trace-ring lock for all of it. Caller holds p.mu.
//
//pbox:hotpath
func (m *Manager) replayBatch(p *PBox, recs []spoolRec) []spoolRec {
	var s *shard
	var deferSum int64
	observed, sent := m.obs != nil, 0
	for i := 0; i < len(recs); i++ {
		r := &recs[i]
		paired := i+1 < len(recs) && recs[i+1].key == r.key
		if paired {
			// Only while p has no older PREPARE outstanding on the key: the ENTER
			// arm ends the oldest wait, not the adjacent one.
			if r.ev == Prepare && recs[i+1].ev == Enter && (len(p.preparing) == 0 || p.preparing[r.key] == 0) {
				if d := recs[i+1].at - r.at; d > 0 {
					deferSum += d
				}
				i++
				continue
			}
			if r.ev == Hold && recs[i+1].ev == Unhold {
				if _, held := p.holders[r.key]; held {
					i++ // hold-count up then down: nothing changes
					continue
				}
				if m.privateTo(p, r.key) {
					i++ // transient hold nobody can be waiting on: nothing changes
					continue
				}
			}
		}
		if observed {
			m.emitStates(p, recs[sent:i+1], nil)
			sent = i + 1
		}
		if ns := m.shardFor(r.key); ns != s {
			if s != nil {
				s.mu.Unlock()
			}
			//pboxlint:ignore lockorder the held shard is always released above before the next one is taken; the pass merges the two branches
			s = m.lockShard(r.key)
		}
		m.applyArmLocked(p, s, r.key, r.ev, r.at)
	}
	if s != nil {
		s.mu.Unlock()
	}
	if deferSum > 0 {
		p.actMu.Lock()
		p.deferTime += deferSum
		p.actMu.Unlock()
	}
	return recs[sent:]
}

// privateTo reports whether no pBox but p can have a waiter registered on
// key, read off the key's contention slot instead of its stripe. A slot only
// ever moves 0 → claimant's id → contended, and every slow-path event swaps in
// contended before it touches a stripe (updateAt → markContended), so while
// the slot still reads p's id every waiter on the slot's keys was registered
// by p itself — and p's own are counted in p.preparing. It stays true for the
// length of the replay that asks: an event that revokes the claim flushes the
// spool p's hint names before it applies — the hint names this replay's spool
// until its rows are out — and so waits on the mutex this replay runs under.
// Caller holds p.mu and, for a spooled batch, the spool's mu.
//
//pbox:hotpath
func (m *Manager) privateTo(p *PBox, key ResourceKey) bool {
	if m.contentionSlot(key).Load() != int64(p.id) {
		return false
	}
	_, waiting := p.preparing[key]
	return !waiting
}

// Update is the Worker-side update_pbox of the two-tier path: the event takes
// the fast path when the worker's bound pBox holds (or can claim) the key's
// contention slot, and the slow path otherwise. A lazily detached worker has
// tracing paused, exactly like Manager.Update on a non-active pBox, so the
// call is a no-op.
//
// Either way the event orders after everything spooled for p before it: the
// hint names the one spool that can hold such records — this worker's, or
// another's when a second Worker feeds the same pBox — and whoever is refused
// by it flushes it first, holding one spool lock at a time.
//
//pbox:hotpath
func (w *Worker) Update(key ResourceKey, ev EventType) { w.UpdateAt(key, ev, noStamp) }

// UpdateAt is Update with the event's time supplied by the caller (see
// Manager.ActivateAt) instead of read once the event is accepted onto a path.
// It spools through appendRun, as a run of one.
//
//pbox:hotpath
func (w *Worker) UpdateAt(key ResourceKey, ev EventType, at int64) {
	p := w.cur
	if p == nil || w.detached || !p.stateIs(StateActive) {
		return
	}
	m := w.mgr
	slot := m.contentionSlot(key)
	id := int64(p.id)
	if v := slot.Load(); v == id || v == 0 {
		at = m.clock(at) // the event's one stamp, whichever tier applies it
		one := [1]KeyEvent{{Key: key, Ev: ev}}
		n, claims := w.spool.appendRun(p, one[:], at)
		if claims > 0 {
			m.self.contentionClaims.Add(claims)
		}
		if n == 0 && slot.Load() == id && p.stateIs(StateActive) {
			// The spool is full, holds another pBox's records, or another
			// spool holds p's: flush both and retry once.
			m.self.spoolOverflows.Add(1)
			w.spool.flush(true)
			p.flushHinted() // another worker's spool may hold p's records; ours is unlocked
			n, _ = w.spool.appendRun(p, one[:], at)
		}
		if n == 1 {
			// Straggler self-healing: if the slot changed between the claim
			// check and the append landing, a concurrent slow-path event has
			// already flushed p's spool — flush our own again so the late
			// record cannot sit past the revocation. Replay guards (monotonic
			// re-arm, clamped overlaps) keep an out-of-order late record
			// detection-neutral.
			if slot.Load() != id {
				w.spool.flush(true)
			}
			return
		}
	}
	// Cross-pBox overlap (another claim), known contention, or a retry that
	// lost the takeover race to another feeder: hand off to the slow path,
	// flushing the spool that holds p's records first so this pBox's events
	// apply in issue order. A nil hint — the common case once a slot has gone
	// contended — costs one load.
	if sp := p.spool.Load(); sp != nil {
		sp.flush(sp == w.spool)
	}
	m.updateAt(p, key, ev, at)
}

// KeyEvent is one event of a run (Worker.UpdateRunAt).
type KeyEvent struct {
	Key ResourceKey
	Ev  EventType
}

// UpdateRunAt is UpdateAt(e.Key, e.Ev, at) for each event of run, in order,
// for a caller that holds a run of events sharing one stamp (wire.Server, a
// frame's events between two control ops). An unstamped run (noStamp) takes
// one stamp at entry, as a wire frame does. The prefix UpdateAt would spool
// goes in under one spool-lock hold (appendRun); the first event it would not
// takes UpdateAt alone — the overflow flush, the Tier B hand-off — and the
// rest of the run resumes after it. The straggler re-check runs once the lock
// is let go, over the keys appended.
//
//pbox:hotpath
func (w *Worker) UpdateRunAt(run []KeyEvent, at int64) {
	m := w.mgr
	at = m.clock(at)
	p := w.cur
	if p == nil || w.detached {
		return
	}
	id := int64(p.id)
	for len(run) > 0 {
		// A head that cannot go in (a contended or foreign slot, a pBox out of
		// its window) skips the spool lock, as it does in UpdateAt.
		if v := m.contentionSlot(run[0].Key).Load(); (v != id && v != 0) || !p.stateIs(StateActive) {
			w.UpdateAt(run[0].Key, run[0].Ev, at)
			run = run[1:]
			continue
		}
		n, claims := w.spool.appendRun(p, run, at)
		if claims > 0 {
			m.self.contentionClaims.Add(claims)
		}
		// Straggler self-healing, as in UpdateAt: a slot that left p since its
		// record went in means a slow-path event has flushed p's spool already.
		// A key repeated back to back needs one look.
		for i, e := range run[:n] {
			if i > 0 && e.Key == run[i-1].Key {
				continue
			}
			if m.contentionSlot(e.Key).Load() != id {
				w.spool.flush(true)
				break
			}
		}
		if n == len(run) {
			return
		}
		w.UpdateAt(run[n].Key, run[n].Ev, at)
		run = run[n+1:]
	}
}

// Flush replays this worker's spool into manager state on the worker's own
// goroutine (a penalty that becomes servable is slept here). Applications
// call it at natural batching boundaries — end of a request, before
// blocking — when they want spooled state visible without waiting for a
// flush trigger.
func (w *Worker) Flush() { w.spool.flush(true) }
