package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// PBox is one performance isolation domain. Applications interact with a
// PBox only through Manager methods and treat the handle as opaque.
//
// Field grouping follows the lock architecture of DESIGN.md §8: the
// lifecycle fields the event hot path checks are atomics (readable with no
// lock at all); the event-structural maps live under the pBox's own mu; the
// per-activity accounting lives under the actMu leaf lock; the penalty
// plumbing lives under the penMu leaf lock; and the binding association is
// part of the manager's registry.
type PBox struct {
	id   int
	rule IsolationRule
	mgr  *Manager
	// label is a diagnostic name (connection or task name) set via
	// Manager.SetLabel; it appears in Snapshots and telemetry. An atomic
	// pointer so SetLabel never contends with the event path.
	label atomic.Pointer[string]

	// state and activityStart are atomics so Update can reject events
	// outside an active window — the dominant disabled/idle case — with a
	// single load and zero locks. Writes happen with mu held (setState),
	// so mu holders see a stable value.
	state         atomic.Int32
	activityStart atomic.Int64 // manager-clock ns; valid while StateActive
	// spool is the hint that makes lifecycle flushes local (spool.go): the one
	// worker spool buffering this pBox's records, nil when none does. Written
	// only inside that spool's mutex — CAS(nil → sp) by the append that takes
	// sp over, nil by the flush that replayed the batch — so p.spool == sp
	// exactly when sp.pbox == p.
	spool atomic.Pointer[eventSpool]

	// mu guards the pBox's event-structural state (holders, preparing)
	// and orders its lifecycle transitions. It nests inside the manager
	// registry lock and outside shard locks; see DESIGN.md §8.
	mu sync.Mutex
	// holders tracks virtual resources currently held by this pBox
	// (the holder_map of Algorithm 1), with nesting counts and the
	// earliest hold timestamp, which line 23 of Algorithm 1 compares
	// against each waiter's arrival time.
	holders map[ResourceKey]holdInfo
	// preparing tracks outstanding PREPARE events (keys this pBox is
	// currently deferred on) so stale records can be removed at freeze
	// and so penalties are never applied mid-wait (a sleep during a wait
	// would pollute the deferring-time metric and re-trigger detection —
	// the cascaded-penalty hazard of Section 4.4.1).
	preparing map[ResourceKey]int

	// actMu is a leaf lock guarding the activity accounting: the live
	// deferring time, the cross-activity history, and the blame map.
	// It is a separate lock (not mu) because the detection path must
	// read a *victim's* accounting while holding the *releasing* pBox's
	// mu — taking a second pBox mu there would deadlock, a second leaf
	// cannot. Nothing is ever acquired while holding an actMu, and no
	// two actMus are ever held together.
	actMu     sync.Mutex
	deferTime int64 // deferring time accumulated in the current activity

	// History across frozen activities, for the pBox-level monitor.
	totalDefer int64
	totalExec  int64
	activities int
	// history is a ring of recent per-activity (defer, exec) pairs; the
	// windowed aggregate ratio sum(td)/sum(te-td) drives the adaptive
	// penalty score and the tail/max rule metrics.
	history  []activityRecord
	histPos  int
	histFull bool

	// blame attributes this pBox's deferring time to the pBoxes whose
	// holds overlapped its waits, per resource; the pBox-level monitor
	// penalizes the largest contributor when the average interference
	// level approaches the goal. Reset at activate.
	blame map[*PBox]blameInfo

	// pendingPenalty is delay (ns) scheduled by take_action but not yet
	// executed because the pBox still held resources at decision time.
	// It is an atomic so every event's safe-point check is one load in
	// the (overwhelmingly common) no-penalty case; writes happen with
	// penMu held.
	pendingPenalty atomic.Int64

	// penMu is a leaf lock guarding the penalty plumbing below. Like
	// actMu it exists so the verdict path can schedule a penalty on a
	// *different* pBox than the one whose mu it holds.
	penMu sync.Mutex
	// pendingAttrVictim/Key identify the victim and resource whose
	// detection scheduled the pending penalty — well-defined because
	// take_action never stacks a second action onto an unserved penalty.
	// servingAttr* are the copy taken when the penalty is consumed, so the
	// serve attributes correctly even if a new action lands mid-sleep.
	pendingAttrVictim int
	pendingAttrKey    ResourceKey
	servingAttrVictim int
	servingAttrKey    ResourceKey
	// penaltyUntil is the requeue deadline for shared-thread pBoxes.
	penaltyUntil int64
	sharedThread bool

	// Per-pBox statistics (Figures 13 and 14).
	penaltiesReceived int
	penaltyTotal      int64

	// boundKey is the association key set by unbind_pbox for event-driven
	// hand-off (not a virtual resource key). Guarded by the manager's
	// registry lock along with the bindings table it indexes.
	boundKey    uintptr
	hasBoundKey bool
}

// stateIs reports whether the pBox is currently in s, with a single atomic
// load. Safe with no locks held; callers needing the state to stay put
// across a sequence must hold p.mu.
//
//pbox:hotpath
func (p *PBox) stateIs(s State) bool { return State(p.state.Load()) == s }

// setState publishes a lifecycle transition. Caller holds p.mu.
func (p *PBox) setState(s State) { p.state.Store(int32(s)) }

type holdInfo struct {
	count int
	since int64
}

// blameInfo accumulates one blocker's contribution to a victim's deferring
// time.
type blameInfo struct {
	deferNs int64
	key     ResourceKey
}

// ID returns the pBox identifier (the psid of the paper's API).
func (p *PBox) ID() int { return p.id }

// Rule returns the isolation rule the pBox was created with.
func (p *PBox) Rule() IsolationRule { return p.rule }

// State returns the current lifecycle state.
func (p *PBox) State() State { return State(p.state.Load()) }

// labelString returns the diagnostic label ("" when unset).
func (p *PBox) labelString() string {
	if l := p.label.Load(); l != nil {
		return *l
	}
	return ""
}

// Snapshot is a read-only view of a pBox's accounting: one entry of a
// StatusView's Snapshots.
type Snapshot struct {
	ID                int
	Label             string
	State             State
	Goal              float64 // the rule's isolation level
	Metric            Metric
	Activities        int
	TotalDefer        time.Duration
	TotalExec         time.Duration
	InterferenceLevel float64 // aggregate defer ratio per the rule's metric
	PenaltiesReceived int
	PenaltyTotal      time.Duration // served penalty time
}

// snapshot builds the snapshot under the pBox's leaf locks (taken one at a
// time); it needs no manager-wide lock.
func (p *PBox) snapshot() Snapshot {
	s := Snapshot{
		ID:     p.id,
		Label:  p.labelString(),
		State:  State(p.state.Load()),
		Goal:   p.rule.Level,
		Metric: p.rule.Metric,
	}
	p.actMu.Lock()
	s.Activities = p.activities
	s.TotalDefer = time.Duration(p.totalDefer)
	s.TotalExec = time.Duration(p.totalExec)
	s.InterferenceLevel = interferenceLevel(p.rule.Metric, p.totalDefer, p.totalExec, p.history)
	p.actMu.Unlock()
	p.penMu.Lock()
	s.PenaltiesReceived = p.penaltiesReceived
	s.PenaltyTotal = time.Duration(p.penaltyTotal)
	p.penMu.Unlock()
	return s
}

// recordActivityLocked folds a finished activity into the history rings.
// Caller holds p.actMu.
func (p *PBox) recordActivityLocked(td, te int64) {
	p.totalDefer += td
	p.totalExec += te
	p.activities++
	rec := activityRecord{td: td, te: te}
	if len(p.history) < scoreWindow {
		p.history = append(p.history, rec)
	} else {
		p.history[p.histPos] = rec
		p.histPos = (p.histPos + 1) % scoreWindow
		p.histFull = true
	}
}

// waiter is one entry in the competitor map: a pBox that issued PREPARE on a
// resource and has not yet issued ENTER.
type waiter struct {
	pbox  *PBox
	since int64
}

// competitorList is one resource's shard-side record: the pBoxes waiting for
// it and how many pBoxes hold it. The paper keeps a list per resource in a
// hashtable; appends are O(1) and removals are linear in the number of waiters
// (Section 6.6 discusses why that is acceptable).
type competitorList struct {
	waiters []waiter
	holders int // pBoxes with the key in their holder map (ResourceView.Holders)
}

func (c *competitorList) add(w waiter) {
	c.waiters = append(c.waiters, w)
}

// removeFor removes the first record belonging to p and returns it.
func (c *competitorList) removeFor(p *PBox) (waiter, bool) {
	for i, w := range c.waiters {
		if w.pbox == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return w, true
		}
	}
	return waiter{}, false
}

// removeAllFor removes every record belonging to p.
func (c *competitorList) removeAllFor(p *PBox) {
	out := c.waiters[:0]
	for _, w := range c.waiters {
		if w.pbox != p {
			out = append(out, w)
		}
	}
	c.waiters = out
}
