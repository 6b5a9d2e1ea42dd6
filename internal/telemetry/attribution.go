package telemetry

import (
	"fmt"
	"io"

	"pbox/internal/core"
)

// ResourceNamer resolves a virtual resource key to the name registered with
// Manager.NameResource.
//
// Deprecated: the attributed series take their resource labels from the
// manager's ledger; nothing consumes a namer.
type ResourceNamer interface {
	ResourceName(key core.ResourceKey) string
}

// AttachNamer does nothing.
//
// Deprecated: the attributed series take their resource labels from the
// manager's ledger at scrape time.
func (c *Collector) AttachNamer(ResourceNamer) {}

// maxAttrSeries caps how many ledger records /metrics exports: a churny
// workload must not mint unbounded label sets into every scrape.
const maxAttrSeries = 512

// writeAttributedMetrics renders a view's attribution ledger as the
// pbox_attributed_* series: the culprit↔victim matrix, one set of counters
// per (culprit, victim, resource) record — the records /attribution serves,
// so the two surfaces give one answer. The first maxAttrSeries records in
// the view's most-blocking-first order are exported; the rest, and the
// triples the ledger itself dropped, are counted in
// pbox_attributed_series_dropped_total. A manager without
// Options.Attribution has no ledger and exports none. An unnamed resource
// is labelled in the stable key-0x… form: raw pointer values never become
// label text.
func writeAttributedMetrics(w io.Writer, v *core.StatusView) {
	if v.Attribution == nil {
		return
	}
	recs := v.Attribution[:min(len(v.Attribution), maxAttrSeries)]
	labels := make([]string, len(recs))
	for i, r := range recs {
		resource := r.Resource
		if resource == "" {
			resource = fmt.Sprintf("key-0x%x", uintptr(r.Key))
		}
		labels[i] = fmt.Sprintf("{culprit=\"%d\",victim=\"%d\",resource=%q}", r.CulpritID, r.VictimID, resource)
	}
	family := func(name, help string, value func(r *core.AttributionRecord) int64) {
		writeSelfHeader(w, name, help, "counter")
		for i := range recs {
			fmt.Fprintf(w, "%s%s %d\n", name, labels[i], value(&recs[i]))
		}
	}
	family("pbox_attributed_blocked_nanoseconds_total", "wait time the culprit's holds inflicted on the victim, per resource",
		func(r *core.AttributionRecord) int64 { return int64(r.Blocked) })
	family("pbox_attributed_detections_total", "detection verdicts against the (culprit, victim, resource) triple",
		func(r *core.AttributionRecord) int64 { return r.Detections })
	family("pbox_attributed_actions_total", "penalty actions scheduled against the triple",
		func(r *core.AttributionRecord) int64 { return r.Actions })
	family("pbox_attributed_penalty_scheduled_nanoseconds_total", "penalty time scheduled against the triple",
		func(r *core.AttributionRecord) int64 { return int64(r.PenaltyScheduled) })
	family("pbox_attributed_penalty_served_nanoseconds_total", "penalty time actually served for the triple",
		func(r *core.AttributionRecord) int64 { return int64(r.PenaltyServed) })
	writeSelfCounter(w, "pbox_attributed_series_dropped_total",
		"attribution triples not exported because the series cap was reached",
		v.AttributionDropped+int64(len(v.Attribution)-len(recs)))
}
