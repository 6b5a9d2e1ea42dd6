package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"pbox/internal/core"
	"pbox/internal/wire"
)

// This file serves the snapshot read path and the manager's self-telemetry:
//
//	/status  the epoch-published StatusView — pBoxes, attribution matrix,
//	         per-resource waiter/holder counts, trace cursor — plus the
//	         view's epoch, age, and build cost (pboxctl top's data source)
//	/self    the manager-observes-itself report (core.SelfStats): snapshot
//	         build/caching counters, spool flush/overflow traffic,
//	         contention-table claim/revoke rates, shard-lock totals, and
//	         the verdict-latency histogram (pboxctl self's data source)
//
// /metrics additionally exposes the same self-telemetry as the pbox_self_*
// Prometheus series (rendered from atomics — scraping them costs the event
// path nothing).

// StatusResponse is the /status payload: the published snapshot's contents
// plus its epoch metadata. Age is the view's manager-clock age at serve
// time — by the bounded-staleness contract it never exceeds Interval unless
// the manager clock is frozen (tests).
type StatusResponse struct {
	Epoch         uint64             `json:"epoch"`
	Age           string             `json:"age"`
	AgeNs         int64              `json:"age_ns"`
	BuildDuration string             `json:"build_duration"`
	Interval      string             `json:"interval"`
	TraceSeq      uint64             `json:"trace_seq"`
	PBoxes        []PBoxStatus       `json:"pboxes"`
	Resources     []ResourceStatus   `json:"resources,omitempty"`
	Matrix        []AttributionEntry `json:"matrix"`
	Dropped       int64              `json:"dropped"`
}

// statusResponse converts a view (plus its age under mgr's clock) to wire
// form.
func statusResponse(mgr *core.Manager, v *core.StatusView) StatusResponse {
	age := mgr.ViewAge(v)
	return StatusResponse{
		Epoch:         v.Epoch,
		Age:           age.String(),
		AgeNs:         int64(age),
		BuildDuration: v.BuildDuration.String(),
		Interval:      core.SnapshotInterval.String(),
		TraceSeq:      v.TraceSeq,
		PBoxes:        PBoxStatuses(v.Snapshots),
		Resources:     ResourceStatuses(v.Resources),
		Matrix:        AttributionEntries(v.Attribution),
		Dropped:       v.AttributionDropped,
	}
}

func (e *Exporter) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statusResponse(e.mgr, e.mgr.StatusView()))
}

// LatencyBucket is one verdict-latency histogram bucket in the /self
// response (LE is the inclusive upper bound; "+Inf" for the last bucket).
type LatencyBucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// VerdictLatencyStatus is the wire form of the verdict-latency histogram.
type VerdictLatencyStatus struct {
	Count   int64           `json:"count"`
	Sum     string          `json:"sum"`
	Buckets []LatencyBucket `json:"buckets"`
}

// SelfResponse is the /self payload: core.SelfStats in wire form.
type SelfResponse struct {
	SnapshotEpoch      uint64 `json:"snapshot_epoch"`
	SnapshotAge        string `json:"snapshot_age"`
	SnapshotAgeNs      int64  `json:"snapshot_age_ns"`
	SnapshotInterval   string `json:"snapshot_interval"`
	SnapshotBuilds     int64  `json:"snapshot_builds"`
	SnapshotCacheHits  int64  `json:"snapshot_cache_hits"`
	SnapshotLastBuild  string `json:"snapshot_last_build"`
	SnapshotBuildTotal string `json:"snapshot_build_total"`

	SpoolFlushes       int64 `json:"spool_flushes"`
	SpoolFlushedEvents int64 `json:"spool_flushed_events"`
	SpoolSweeps        int64 `json:"spool_sweeps"`
	SpoolOverflows     int64 `json:"spool_overflows"`

	ContentionClaims      int64 `json:"contention_claims"`
	ContentionRevocations int64 `json:"contention_revocations"`
	ContentionStickySlots int   `json:"contention_sticky_slots"`

	ShardLockAcquisitions int64 `json:"shard_lock_acquisitions"`
	ShardLockMax          int64 `json:"shard_lock_max"`
	Shards                int   `json:"shards"`
	SpoolCapacity         int   `json:"spool_capacity"`

	Crossings int64 `json:"crossings"`

	VerdictLatency VerdictLatencyStatus `json:"verdict_latency"`

	// Wire is the attached wire-ingestion server's counters (absent when no
	// wire server is attached).
	Wire *wire.Stats `json:"wire,omitempty"`
}

// selfResponse converts SelfStats to wire form.
func selfResponse(st core.SelfStats) SelfResponse {
	resp := SelfResponse{
		SnapshotEpoch:      st.SnapshotEpoch,
		SnapshotAge:        st.SnapshotAge.String(),
		SnapshotAgeNs:      int64(st.SnapshotAge),
		SnapshotInterval:   core.SnapshotInterval.String(),
		SnapshotBuilds:     st.SnapshotBuilds,
		SnapshotCacheHits:  st.SnapshotCacheHits,
		SnapshotLastBuild:  st.SnapshotLastBuild.String(),
		SnapshotBuildTotal: st.SnapshotBuildTotal.String(),

		SpoolFlushes:       st.SpoolFlushes,
		SpoolFlushedEvents: st.SpoolFlushedEvents,
		SpoolSweeps:        st.SpoolSweeps,
		SpoolOverflows:     st.SpoolOverflows,

		ContentionClaims:      st.ContentionClaims,
		ContentionRevocations: st.ContentionRevocations,
		ContentionStickySlots: st.ContentionStickySlots,

		ShardLockAcquisitions: st.ShardLockAcquisitions,
		ShardLockMax:          st.ShardLockMax,
		Shards:                st.Shards,
		SpoolCapacity:         st.SpoolCapacity,

		Crossings: st.Crossings,

		VerdictLatency: VerdictLatencyStatus{
			Count: st.VerdictLatency.Count,
			Sum:   st.VerdictLatency.Sum.String(),
		},
	}
	h := st.VerdictLatency
	for i, c := range h.Counts {
		le := "+Inf"
		if i < len(h.Bounds) {
			le = formatSeconds(h.Bounds[i])
		}
		resp.VerdictLatency.Buckets = append(resp.VerdictLatency.Buckets, LatencyBucket{LE: le, Count: c})
	}
	return resp
}

func (e *Exporter) handleSelf(w http.ResponseWriter, r *http.Request) {
	resp := selfResponse(e.mgr.SelfStats())
	if e.wireSrv != nil {
		st := e.wireSrv.Stats()
		resp.Wire = &st
	}
	writeJSON(w, resp)
}

// writePBoxMetrics renders the pbox_* families from the manager's own counts
// (SelfStats) at scrape time, as the pbox_attributed_* series are rendered
// from the ledger: no observer callback counts anything.
func writePBoxMetrics(w io.Writer, st core.SelfStats) {
	writeSelfCounter(w, "pbox_created_total", "pBoxes created (create_pbox calls)", st.Created)
	writeSelfCounter(w, "pbox_released_total", "pBoxes released (release_pbox calls)", st.Released)
	writeSelfGauge(w, "pbox_live", "pBoxes currently alive", st.Created-st.Released)
	writeSelfCounter(w, "pbox_activities_total", "activities completed (freeze_pbox calls)", st.Activities.Count)
	writeSelfCounter(w, "pbox_detections_total", "detection verdicts reached by Algorithm 1 or the pBox-level monitor", st.Detections)
	writeSelfCounter(w, "pbox_penalties_total", "penalty actions scheduled on noisy pBoxes", st.Penalties)
	writeSelfHistogram(w, "pbox_activity_seconds", "end-to-end activity execution time", st.Activities)
	writeSelfHistogram(w, "pbox_activity_defer_seconds", "per-activity deferring time", st.ActivityDefer)
	writeSelfHistogram(w, "pbox_penalty_served_seconds", "penalty delays served on noisy goroutines", st.PenaltyServed)
	writeSelfCounter(w, "pbox_defer_nanoseconds_total", "cumulative deferring time across all activities", int64(st.ActivityDefer.Sum))
	writeSelfCounter(w, "pbox_exec_nanoseconds_total", "cumulative execution time across all activities", int64(st.Activities.Sum))
	writeSelfCounter(w, "pbox_penalty_served_nanoseconds_total", "cumulative served penalty time", int64(st.PenaltyServed.Sum))
	writeSelfCounter(w, "pbox_penalty_scheduled_nanoseconds_total", "cumulative scheduled penalty time", int64(st.PenaltyScheduled))
	writeSelfHeader(w, "pbox_events_total", "state events received by the manager (update_pbox calls)", "counter")
	for k, n := range st.StateEvents {
		fmt.Fprintf(w, "pbox_events_total{event=%q} %d\n", core.EventType(k).String(), n)
	}
}

// writeSelfMetrics renders SelfStats as the pbox_self_* Prometheus series,
// assembled from the manager's atomics on each scrape.
func writeSelfMetrics(w io.Writer, st core.SelfStats) {
	writeSelfGauge(w, "pbox_self_snapshot_epoch", "Epoch of the published status snapshot (0 = none yet).", int64(st.SnapshotEpoch))
	writeSelfGaugeSeconds(w, "pbox_self_snapshot_age_seconds", "Manager-clock age of the published status snapshot.", st.SnapshotAge)
	writeSelfGaugeSeconds(w, "pbox_self_snapshot_interval_seconds", "Configured bounded-staleness budget of the snapshot read path.", core.SnapshotInterval)
	writeSelfCounter(w, "pbox_self_snapshot_builds_total", "Stop-the-world snapshot view rebuilds.", st.SnapshotBuilds)
	writeSelfCounter(w, "pbox_self_snapshot_cache_hits_total", "Snapshot reads served by the published view without a rebuild.", st.SnapshotCacheHits)
	writeSelfGaugeSeconds(w, "pbox_self_snapshot_build_seconds", "Wall-clock cost of the latest snapshot rebuild.", st.SnapshotLastBuild)
	writeSelfCounterSeconds(w, "pbox_self_snapshot_build_seconds_total", "Cumulative wall-clock cost of snapshot rebuilds.", st.SnapshotBuildTotal)

	writeSelfCounter(w, "pbox_self_spool_flushes_total", "Non-empty event-spool flushes.", st.SpoolFlushes)
	writeSelfCounter(w, "pbox_self_spool_flushed_events_total", "Events replayed out of worker spools.", st.SpoolFlushedEvents)
	writeSelfCounter(w, "pbox_self_spool_sweeps_total", "View rebuilds' flush-on-read walks over the pBoxes' hinted spools.", st.SpoolSweeps)
	writeSelfCounter(w, "pbox_self_spool_overflows_total", "Spool appends refused (buffer full, or the pBox spooled on another worker), forcing a flush.", st.SpoolOverflows)

	writeSelfCounter(w, "pbox_self_contention_claims_total", "Successful fast-path contention-slot claims.", st.ContentionClaims)
	writeSelfCounter(w, "pbox_self_contention_revocations_total", "Slow-path revocations of a live contention-slot claim.", st.ContentionRevocations)
	writeSelfGauge(w, "pbox_self_contention_sticky_slots", "Contention slots currently stuck at the contended value.", int64(st.ContentionStickySlots))

	writeSelfCounter(w, "pbox_self_shard_lock_acquisitions_total", "Shard-lock acquisitions across all stripes.", st.ShardLockAcquisitions)
	writeSelfCounter(w, "pbox_self_shard_lock_max_total", "Shard-lock acquisitions on the hottest single stripe.", st.ShardLockMax)
	writeSelfGauge(w, "pbox_self_shards", "Configured resource-state lock stripes.", int64(st.Shards))

	writeSelfCounter(w, "pbox_self_crossings_total", "Conceptual user/kernel boundary crossings.", st.Crossings)

	writeSelfHistogram(w, "pbox_self_verdict_latency_seconds", "Wall-clock length of detection-verdict critical sections.", st.VerdictLatency)
}

func writeSelfCounter(w io.Writer, name, help string, v int64) {
	writeSelfHeader(w, name, help, "counter")
	writeSelfValue(w, name, v)
}

func writeSelfGauge(w io.Writer, name, help string, v int64) {
	writeSelfHeader(w, name, help, "gauge")
	writeSelfValue(w, name, v)
}

func writeSelfGaugeSeconds(w io.Writer, name, help string, d time.Duration) {
	writeSelfHeader(w, name, help, "gauge")
	fmt.Fprintf(w, "%s %s\n", name, formatSeconds(d))
}

func writeSelfCounterSeconds(w io.Writer, name, help string, d time.Duration) {
	writeSelfHeader(w, name, help, "counter")
	fmt.Fprintf(w, "%s %s\n", name, formatSeconds(d))
}

func writeSelfHistogram(w io.Writer, name, help string, h core.LatencyHistogram) {
	writeSelfHeader(w, name, help, "histogram")
	var cum int64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = formatSeconds(h.Bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_sum %s\n", name, formatSeconds(h.Sum))
	fmt.Fprintf(w, "%s_count %d\n", name, cum) // the +Inf bucket itself
}

func writeSelfHeader(w io.Writer, name, help, kind string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

func writeSelfValue(w io.Writer, name string, v int64) {
	fmt.Fprintf(w, "%s %d\n", name, v)
}
