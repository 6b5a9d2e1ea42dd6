package telemetry

import (
	"time"

	"pbox/internal/core"
)

// Collector is a core.Observer that does nothing: the manager counts what it
// used to count, and /metrics renders those counts at scrape time.
//
// Deprecated: kept for benchmark/ until ROADMAP item 7.
type Collector struct{}

// NewCollector returns a Collector; reg is ignored.
//
// Deprecated: kept for benchmark/ until ROADMAP item 7.
func NewCollector(*Registry) *Collector { return &Collector{} }

// ResourceNamer resolves a virtual resource key to the name registered with
// Manager.NameResource.
//
// Deprecated: kept for benchmark/ until ROADMAP item 7.
type ResourceNamer interface {
	ResourceName(key core.ResourceKey) string
}

// AttachNamer does nothing.
//
// Deprecated: kept for benchmark/ until ROADMAP item 7.
func (c *Collector) AttachNamer(ResourceNamer) {}

// The core.Observer callbacks, all empty.
func (c *Collector) PBoxCreated(int, core.IsolationRule)                                      {}
func (c *Collector) PBoxReleased(int)                                                         {}
func (c *Collector) PBoxActivated(int, int64)                                                 {}
func (c *Collector) PBoxFrozen(int, int64)                                                    {}
func (c *Collector) PBoxSharedChanged(int, bool)                                              {}
func (c *Collector) StateEventAt(int, core.ResourceKey, core.EventType, int64)                {}
func (c *Collector) ActivityEnd(int, int64, int64)                                            {}
func (c *Collector) Detection(int, int, core.ResourceKey, float64)                            {}
func (c *Collector) PenaltyAction(int, int, core.ResourceKey, core.PolicyKind, time.Duration) {}
func (c *Collector) PenaltyServed(int, time.Duration)                                         {}

var _ core.Observer = (*Collector)(nil)
