package isolation

import (
	"time"

	"pbox/internal/core"
	"pbox/internal/exec"
)

// PBoxController adapts the pBox manager to the Controller interface: each
// activity domain gets one pBox (the paper's per-connection granularity,
// Section 3 "Usage"), Begin/End map to activate/freeze, and Event maps to
// update_pbox. Penalty delays are executed inside Event/End on the noisy
// domain's own goroutine, and Gate surfaces shared-thread requeue deadlines
// for event-driven applications.
type PBoxController struct {
	mgr  *core.Manager
	rule core.IsolationRule
	// bgRule is the rule used for background-task domains. Background
	// threads (purge, vacuum, dump) have no latency SLO of their own —
	// developers give them a very relaxed goal so that, per Algorithm 1,
	// their own (intentional, low-priority) waiting never reads as a
	// violation and accuses the foreground clients they serve.
	bgRule core.IsolationRule
	// SharedThreads marks domains as running on shared worker threads
	// (event-driven apps), so penalties become requeue deadlines instead
	// of direct delays.
	sharedThreads bool

	// EventFilter, when set, is consulted on every Event; returning false
	// removes the update_pbox call before it reaches the manager. The
	// mistake-tolerance experiment (Section 6.8) uses it to remove a
	// fraction of the application's update_pbox call sites. Set it before
	// the first ConnStart: an activity keeps the filter it started with.
	EventFilter func(key core.ResourceKey, ev core.EventType) bool
}

// BackgroundLevelFactor scales the foreground isolation level for
// background-task pBoxes.
const BackgroundLevelFactor = 40

// NewPBox returns a controller backed by mgr, creating pBoxes with rule for
// foreground connections and a relaxed variant for background tasks.
func NewPBox(mgr *core.Manager, rule core.IsolationRule) *PBoxController {
	bg := rule
	bg.Level = rule.Level * BackgroundLevelFactor
	return &PBoxController{mgr: mgr, rule: rule, bgRule: bg}
}

// NewPBoxShared returns a controller for event-driven applications whose
// activities run on shared worker threads.
func NewPBoxShared(mgr *core.Manager, rule core.IsolationRule) *PBoxController {
	c := NewPBox(mgr, rule)
	c.sharedThreads = true
	return c
}

// Manager exposes the underlying pBox manager (for experiment reporting).
func (c *PBoxController) Manager() *core.Manager { return c.mgr }

// Name implements Controller.
func (c *PBoxController) Name() string { return "pbox" }

// Shutdown implements Controller.
func (c *PBoxController) Shutdown() {}

// ConnStart implements Controller: create_pbox at the activity boundary.
func (c *PBoxController) ConnStart(name string, kind Kind) Activity {
	rule := c.rule
	if kind == KindBackground {
		rule = c.bgRule
	}
	p, err := c.mgr.Create(rule)
	if err != nil {
		// An invalid rule is a programming error in the harness.
		panic(err)
	}
	c.mgr.SetLabel(p, name)
	if c.sharedThreads {
		c.mgr.MarkShared(p)
	}
	return &pboxActivity{mgr: c.mgr, p: p, filter: c.EventFilter}
}

type pboxActivity struct {
	mgr    *core.Manager
	p      *core.PBox
	filter func(core.ResourceKey, core.EventType) bool
}

// PBox returns the underlying pBox (used by event-driven apps that bind and
// unbind workers explicitly).
func (a *pboxActivity) PBox() *core.PBox { return a.p }

func (a *pboxActivity) Begin(string)         { a.mgr.Activate(a.p) }
func (a *pboxActivity) End(time.Duration)    { a.mgr.Freeze(a.p) }
func (a *pboxActivity) Work(d time.Duration) { exec.Work(d) }
func (a *pboxActivity) IO(d time.Duration)   { exec.IOWait(d) }
func (a *pboxActivity) Close()               { _ = a.mgr.Release(a.p) }

func (a *pboxActivity) Event(key core.ResourceKey, ev core.EventType) {
	if a.filter != nil && !a.filter(key, ev) {
		return
	}
	a.mgr.Update(a.p, key, ev)
}

func (a *pboxActivity) Gate() time.Duration {
	return a.mgr.PenaltyWait(a.p)
}

// PBoxOf extracts the pBox handle from an Activity if it is pBox-backed.
// Event-driven applications use it to drive the bind/unbind worker shim.
func PBoxOf(a Activity) (*core.PBox, bool) {
	pa, ok := a.(*pboxActivity)
	if !ok {
		return nil, false
	}
	return pa.p, true
}
