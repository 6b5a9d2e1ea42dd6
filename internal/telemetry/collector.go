package telemetry

import (
	"sync/atomic"
	"time"

	"pbox/internal/core"
)

// Collector implements core.Observer by folding manager hook callbacks into
// registry metrics. Every callback touches only pre-registered atomic
// handles, so it is safe to run under the manager lock (where most hooks
// fire) and adds no allocations to the event hot path.
type Collector struct {
	reg *Registry

	created    *Counter
	released   *Counter
	live       *Gauge
	events     [4]*Counter // indexed by core.EventType
	activities *Counter
	detections *Counter
	penalties  *Counter

	activityLatency *Histogram
	activityDefer   *Histogram
	penaltyServed   *Histogram

	deferNsTotal     *Counter
	execNsTotal      *Counter
	penaltyNsTotal   *Counter
	penaltyScheduled *Counter
}

// NewCollector registers the pBox metric families in reg and returns the
// observer to pass as core.Options.Observer.
func NewCollector(reg *Registry) *Collector {
	hot := make([]atomic.Int64, stripes*stripes) // the striped counters' cells
	c := &Collector{
		reg:      reg,
		created:  reg.Counter("pbox_created_total", "pBoxes created (create_pbox calls)"),
		released: reg.Counter("pbox_released_total", "pBoxes released (release_pbox calls)"),
		live:     reg.Gauge("pbox_live", "pBoxes currently alive"),
		activities: reg.stripedCounter(hot[0:], "pbox_activities_total",
			"activities completed (freeze_pbox calls)"),
		detections: reg.Counter("pbox_detections_total",
			"detection verdicts reached by Algorithm 1 or the pBox-level monitor"),
		penalties: reg.Counter("pbox_penalties_total",
			"penalty actions scheduled on noisy pBoxes"),
		activityLatency: reg.stripedHistogram("pbox_activity_seconds",
			"end-to-end activity execution time"),
		activityDefer: reg.stripedHistogram("pbox_activity_defer_seconds",
			"per-activity deferring time"),
		penaltyServed: reg.Histogram("pbox_penalty_served_seconds",
			"penalty delays served on noisy goroutines", nil),
		deferNsTotal: reg.stripedCounter(hot[1:], "pbox_defer_nanoseconds_total",
			"cumulative deferring time across all activities"),
		execNsTotal: reg.stripedCounter(hot[2:], "pbox_exec_nanoseconds_total",
			"cumulative execution time across all activities"),
		penaltyNsTotal: reg.Counter("pbox_penalty_served_nanoseconds_total",
			"cumulative served penalty time"),
		penaltyScheduled: reg.Counter("pbox_penalty_scheduled_nanoseconds_total",
			"cumulative scheduled penalty time"),
	}
	for _, ev := range []core.EventType{core.Prepare, core.Enter, core.Hold, core.Unhold} {
		c.events[ev] = reg.stripedCounter(hot[3+ev:], "pbox_events_total",
			"state events received by the manager (update_pbox calls)",
			Label{Name: "event", Value: ev.String()})
	}
	return c
}

// Registry returns the registry the collector reports into.
func (c *Collector) Registry() *Registry { return c.reg }

// PBoxCreated implements core.Observer.
func (c *Collector) PBoxCreated(id int, rule core.IsolationRule) {
	c.created.Inc()
	c.live.Inc()
}

// PBoxReleased implements core.Observer.
func (c *Collector) PBoxReleased(id int) {
	c.released.Inc()
	c.live.Dec()
}

// PBoxActivated, PBoxFrozen and PBoxSharedChanged implement core.Observer;
// no metric is derived from them (ActivityEnd counts activities).
func (c *Collector) PBoxActivated(pboxID int, atNs int64)      {}
func (c *Collector) PBoxFrozen(pboxID int, atNs int64)         {}
func (c *Collector) PBoxSharedChanged(pboxID int, shared bool) {}

// StateEventAt implements core.Observer.
func (c *Collector) StateEventAt(pboxID int, key core.ResourceKey, ev core.EventType, atNs int64) {
	if ev >= 0 && int(ev) < len(c.events) {
		c.events[ev].AddStriped(pboxID, 1)
	}
}

// ActivityEnd implements core.Observer.
func (c *Collector) ActivityEnd(pboxID int, deferNs, execNs int64) {
	c.activities.AddStriped(pboxID, 1)
	c.deferNsTotal.AddStriped(pboxID, deferNs)
	c.execNsTotal.AddStriped(pboxID, execNs)
	c.activityLatency.ObserveStriped(pboxID, time.Duration(execNs))
	if deferNs > 0 {
		c.activityDefer.ObserveStriped(pboxID, time.Duration(deferNs))
	}
}

// Detection implements core.Observer.
func (c *Collector) Detection(noisyID, victimID int, key core.ResourceKey, projected float64) {
	c.detections.Inc()
}

// PenaltyAction implements core.Observer.
func (c *Collector) PenaltyAction(noisyID, victimID int, key core.ResourceKey, policy core.PolicyKind, length time.Duration) {
	c.penalties.Inc()
	c.penaltyScheduled.Add(int64(length))
}

// PenaltyServed implements core.Observer.
func (c *Collector) PenaltyServed(pboxID int, d time.Duration) {
	c.penaltyServed.Observe(d)
	c.penaltyNsTotal.Add(int64(d))
}

// compile-time interface check
var _ core.Observer = (*Collector)(nil)
