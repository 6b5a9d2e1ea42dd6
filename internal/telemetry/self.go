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
	Spools             int   `json:"spools"`

	ContentionClaims      int64 `json:"contention_claims"`
	ContentionRevocations int64 `json:"contention_revocations"`
	ContentionStickySlots int   `json:"contention_sticky_slots"`

	ShardLockAcquisitions int64 `json:"shard_lock_acquisitions"`
	ShardLockMax          int64 `json:"shard_lock_max"`
	Shards                int   `json:"shards"`
	SpoolCapacity         int   `json:"spool_capacity"`

	Hibernations int64 `json:"hibernations"`
	Wakes        int64 `json:"wakes"`
	Hibernated   int64 `json:"hibernated"`

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
		Spools:             st.Spools,

		ContentionClaims:      st.ContentionClaims,
		ContentionRevocations: st.ContentionRevocations,
		ContentionStickySlots: st.ContentionStickySlots,

		ShardLockAcquisitions: st.ShardLockAcquisitions,
		ShardLockMax:          st.ShardLockMax,
		Shards:                st.Shards,
		SpoolCapacity:         st.SpoolCapacity,

		Hibernations: st.Hibernations,
		Wakes:        st.Wakes,
		Hibernated:   st.Hibernated,

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

// writeSelfMetrics renders SelfStats as the pbox_self_* Prometheus series.
// The series are assembled from the manager's atomics on each scrape rather
// than registered in the Registry: the values live in internal/core, which
// cannot depend on this package, and double-counting them into Registry
// metrics from an observer would put extra work on the hook path.
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
	writeSelfCounter(w, "pbox_self_spool_sweeps_total", "All-spool sweeps (contended hand-offs and precise reads).", st.SpoolSweeps)
	writeSelfCounter(w, "pbox_self_spool_overflows_total", "Spool appends refused (buffer full, or the pBox spooled on another worker), forcing a flush.", st.SpoolOverflows)
	writeSelfGauge(w, "pbox_self_spools", "Worker spools currently registered (one per live worker; a number that only grows is a Worker.Close leak).", int64(st.Spools))

	writeSelfCounter(w, "pbox_self_contention_claims_total", "Successful fast-path contention-slot claims.", st.ContentionClaims)
	writeSelfCounter(w, "pbox_self_contention_revocations_total", "Slow-path revocations of a live contention-slot claim.", st.ContentionRevocations)
	writeSelfGauge(w, "pbox_self_contention_sticky_slots", "Contention slots currently stuck at the contended value.", int64(st.ContentionStickySlots))

	writeSelfCounter(w, "pbox_self_shard_lock_acquisitions_total", "Shard-lock acquisitions across all stripes.", st.ShardLockAcquisitions)
	writeSelfCounter(w, "pbox_self_shard_lock_max_total", "Shard-lock acquisitions on the hottest single stripe.", st.ShardLockMax)
	writeSelfGauge(w, "pbox_self_shards", "Configured resource-state lock stripes.", int64(st.Shards))

	writeSelfCounter(w, "pbox_self_hibernations_total", "pBoxes compacted by Manager.Hibernate.", st.Hibernations)
	writeSelfCounter(w, "pbox_self_wakes_total", "Hibernated pBoxes transparently woken by Activate.", st.Wakes)
	writeSelfGauge(w, "pbox_self_hibernated", "pBoxes currently hibernated.", st.Hibernated)

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
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

func writeSelfHeader(w io.Writer, name, help, kind string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

func writeSelfValue(w io.Writer, name string, v int64) {
	fmt.Fprintf(w, "%s %d\n", name, v)
}
