// Package telemetry is the live observability subsystem of the pBox
// reproduction: an HTTP exporter serving Prometheus-text /metrics, JSON
// /status, /self, /pboxes and /attribution, and a long-polling /trace stream.
// Every series on /metrics is rendered at scrape time from what the manager
// itself keeps — core.SelfStats (its counters, counter stripes and
// fixed-bucket histograms) and the published StatusView's attribution ledger —
// so no observer callback counts anything and there is one copy of each
// number. The paper argues (Section 8) that the pBox event stream doubles as a
// diagnosis aid; this package makes that stream observable while a workload
// runs instead of via post-hoc trace dumps.
package telemetry

import (
	"fmt"
	"time"
)

// Registry holds nothing: every metric /metrics renders comes from the
// manager.
//
// Deprecated: kept for benchmark/ until ROADMAP item 7.
type Registry struct{}

// NewRegistry returns an empty registry.
//
// Deprecated: kept for benchmark/ until ROADMAP item 7.
func NewRegistry() *Registry { return &Registry{} }

// formatSeconds renders a duration as a seconds value without trailing
// zeros, the customary Prometheus form.
func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}
