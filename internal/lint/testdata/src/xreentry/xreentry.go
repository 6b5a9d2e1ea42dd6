// Fixture for cross-package reentry findings: observer callbacks here call
// xreentrydeps helpers whose call closures re-enter the Manager. A
// per-package walk sees an opaque call; the §14 reach summary names the
// transitively reached lock-taking methods, and the finding anchors at the
// crossing call site.
package xreentry

import "xreentrydeps"

type Observer interface {
	StateEventAt(id int, at int64)
	PenaltyServed(id int)
}

// badCollector re-enters the manager through a cross-package helper.
type badCollector struct {
	mgr *xreentrydeps.Manager
}

func (c *badCollector) StateEventAt(id int, at int64) {
	_ = xreentrydeps.Collect(c.mgr) // want `observer callback badCollector\.StateEventAt calls Collect, which reaches Manager\.Status`
}

func (c *badCollector) PenaltyServed(id int) {
	_ = xreentrydeps.Collect(c.mgr) // PenaltyServed runs outside manager locks: allowed
}

// deepCollector is two hops from the manager; the summaries compose.
type deepCollector struct {
	mgr *xreentrydeps.Manager
}

func (c *deepCollector) StateEventAt(id int, at int64) {
	_ = xreentrydeps.CollectAll(c.mgr) // want `observer callback deepCollector\.StateEventAt calls CollectAll, which reaches Manager\.Status`
}

func (c *deepCollector) PenaltyServed(id int) {}

// goodCollector calls a helper whose closure stays on the lock-free
// accessors: empty summary, no finding.
type goodCollector struct {
	mgr *xreentrydeps.Manager
}

func (c *goodCollector) StateEventAt(id int, at int64) {
	_ = xreentrydeps.SafeName(c.mgr)
}

func (c *goodCollector) PenaltyServed(id int) {}
