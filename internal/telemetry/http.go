package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pbox/internal/core"
	"pbox/internal/wire"
)

// maxTraceWait bounds how long a /trace long-poll may block.
const maxTraceWait = 30 * time.Second

// PBoxStatus is the JSON form of one pBox wherever one is printed — /pboxes,
// /status, /attribution and flight-recorder incident bundles: the live defer
// ratio, isolation goal, and penalty totals of core.Snapshot, with durations
// as Go duration strings so the JSON stays readable in curl output and
// round-trips exactly.
type PBoxStatus struct {
	ID                int     `json:"id"`
	Label             string  `json:"label,omitempty"`
	State             string  `json:"state"`
	Goal              float64 `json:"goal"`
	Metric            string  `json:"metric"`
	Activities        int     `json:"activities"`
	TotalDefer        string  `json:"total_defer"`
	TotalExec         string  `json:"total_exec"`
	DeferRatio        float64 `json:"defer_ratio"`
	PenaltiesReceived int     `json:"penalties_received"`
	PenaltyServed     string  `json:"penalty_served"`
}

// PBoxStatuses converts a view's snapshots to their JSON form (never nil, so
// an empty list prints as []).
func PBoxStatuses(snaps []core.Snapshot) []PBoxStatus {
	out := make([]PBoxStatus, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, PBoxStatus{
			ID:                s.ID,
			Label:             s.Label,
			State:             s.State.String(),
			Goal:              s.Goal,
			Metric:            s.Metric.String(),
			Activities:        s.Activities,
			TotalDefer:        s.TotalDefer.String(),
			TotalExec:         s.TotalExec.String(),
			DeferRatio:        s.InterferenceLevel,
			PenaltiesReceived: s.PenaltiesReceived,
			PenaltyServed:     s.PenaltyTotal.String(),
		})
	}
	return out
}

// AttributionEntry is the JSON form of one culprit↔victim ledger record, in
// /attribution, /status and incident bundles alike.
type AttributionEntry struct {
	CulpritID        int    `json:"culprit_id"`
	CulpritLabel     string `json:"culprit_label,omitempty"`
	VictimID         int    `json:"victim_id"`
	VictimLabel      string `json:"victim_label,omitempty"`
	Key              uint64 `json:"key"`
	Resource         string `json:"resource,omitempty"`
	Blocked          string `json:"blocked"`
	BlockedNs        int64  `json:"blocked_ns"`
	Detections       int64  `json:"detections"`
	Actions          int64  `json:"actions"`
	PenaltyScheduled string `json:"penalty_scheduled"`
	PenaltyServed    string `json:"penalty_served"`
}

// AttributionEntries converts a view's ledger to its JSON form (never nil).
func AttributionEntries(recs []core.AttributionRecord) []AttributionEntry {
	out := make([]AttributionEntry, 0, len(recs))
	for _, r := range recs {
		out = append(out, AttributionEntry{
			CulpritID:        r.CulpritID,
			CulpritLabel:     r.CulpritLabel,
			VictimID:         r.VictimID,
			VictimLabel:      r.VictimLabel,
			Key:              uint64(r.Key),
			Resource:         r.Resource,
			Blocked:          r.Blocked.String(),
			BlockedNs:        int64(r.Blocked),
			Detections:       r.Detections,
			Actions:          r.Actions,
			PenaltyScheduled: r.PenaltyScheduled.String(),
			PenaltyServed:    r.PenaltyServed.String(),
		})
	}
	return out
}

// ResourceStatus is the JSON form of one per-resource contention summary, in
// /status and incident bundles.
type ResourceStatus struct {
	Key     uint64 `json:"key"`
	Name    string `json:"name,omitempty"`
	Waiters int    `json:"waiters"`
	Holders int    `json:"holders"`
}

// ResourceStatuses converts a view's resource summaries to their JSON form
// (nil when there are none: every field holding one is omitempty).
func ResourceStatuses(views []core.ResourceView) []ResourceStatus {
	var out []ResourceStatus
	for _, res := range views {
		out = append(out, ResourceStatus{
			Key:     uint64(res.Key),
			Name:    res.Name,
			Waiters: res.Waiters,
			Holders: res.Holders,
		})
	}
	return out
}

// AttributionResponse is the /attribution payload: the combined consistent
// view — pBoxes and the culprit↔victim matrix from one published snapshot —
// plus the ledger's overflow count and the snapshot's epoch metadata.
type AttributionResponse struct {
	PBoxes  []PBoxStatus       `json:"pboxes"`
	Matrix  []AttributionEntry `json:"matrix"`
	Dropped int64              `json:"dropped"`
	// SnapshotEpoch and SnapshotAge identify the published view the
	// response was built from (bounded staleness, DESIGN.md §12).
	SnapshotEpoch uint64 `json:"snapshot_epoch,omitempty"`
	SnapshotAge   string `json:"snapshot_age,omitempty"`
}

// TraceEvent is the JSON form of one trace-ring row, in /trace entries[] and
// incident-bundle events[] alike. Text is the record rendered by
// core.Record.String — the line `pboxreplay cat` prints for the same record
// in a capture log — and the fields before it are copies for filtering.
type TraceEvent struct {
	Seq uint64 `json:"seq"`
	// At is the row's manager-clock stamp (core.TraceEntry.At).
	At     string `json:"at"`
	Kind   string `json:"kind"`
	PBox   int    `json:"pbox"`
	Victim int    `json:"victim,omitempty"`
	Key    uint64 `json:"key"`
	Name   string `json:"resource,omitempty"`
	Text   string `json:"text"`
}

// TraceEvents converts ring rows to their JSON form (never nil), resolving
// resource names here, on the reader's side.
func TraceEvents(mgr *core.Manager, rows []core.TraceEntry) []TraceEvent {
	out := make([]TraceEvent, 0, len(rows))
	for _, t := range rows {
		ev := TraceEvent{
			Seq:    t.Seq,
			At:     t.At.String(),
			Kind:   t.Kind.String(),
			PBox:   t.PBox,
			Victim: t.Victim,
			Key:    uint64(t.Key),
			Text:   t.String(),
		}
		if t.Key != 0 {
			ev.Name = mgr.ResourceName(t.Key)
		}
		out = append(out, ev)
	}
	return out
}

// TraceResponse is the /trace payload: the entries after the requested
// sequence number and the cursor to pass as ?since= on the next poll.
type TraceResponse struct {
	Next    uint64       `json:"next"`
	Entries []TraceEvent `json:"entries"`
}

// Exporter serves the telemetry HTTP API for one manager:
//
//	/metrics   Prometheus text exposition, rendered at scrape time: the
//	           manager's counts (pbox_*, core.SelfStats), the published
//	           view's attribution ledger (pbox_attributed_*) + pbox_self_*
//	/status    JSON: the epoch-published snapshot (pBoxes, matrix,
//	           resources, trace cursor) with epoch/age metadata
//	/self      JSON: manager self-telemetry (core.SelfStats)
//	/pboxes    JSON: live per-pBox defer ratio, isolation goal, penalties
//	/trace     JSON: trace-ring snapshot; ?since=N&wait=5s long-polls for
//	           entries newer than sequence N
//
// Every manager-state endpoint reads the epoch snapshot (DESIGN.md §12):
// serving a request costs one atomic pointer load, never a shard lock or a
// spool flush, so any polling frequency is interference-free.
type Exporter struct {
	mgr *core.Manager
	mux *http.ServeMux
	// wireSrv is the attached wire-ingestion server (AttachWire); its
	// counters render as the pbox_self_wire_* series and the /self "wire"
	// section.
	wireSrv *wire.Server
}

// NewExporter builds the exporter for mgr; without one, only the index
// serves. reg is ignored (Deprecated: kept for benchmark/ until ROADMAP item
// 7).
func NewExporter(reg *Registry, mgr *core.Manager) *Exporter {
	e := &Exporter{mgr: mgr, mux: http.NewServeMux()}
	e.mux.HandleFunc("/", e.handleIndex)
	e.mux.HandleFunc("/metrics", e.withManager(e.handleMetrics))
	e.mux.HandleFunc("/status", e.withManager(e.handleStatus))
	e.mux.HandleFunc("/self", e.withManager(e.handleSelf))
	e.mux.HandleFunc("/pboxes", e.withManager(e.handlePBoxes))
	e.mux.HandleFunc("/attribution", e.withManager(e.handleAttribution))
	e.mux.HandleFunc("/trace", e.withManager(e.handleTrace))
	return e
}

// withManager guards a handler that reads the manager: 404 when the exporter
// was built without one.
func (e *Exporter) withManager(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if e.mgr == nil {
			http.Error(w, "manager not attached", http.StatusNotFound)
			return
		}
		h(w, r)
	}
}

// Handler returns the HTTP handler serving the telemetry API.
func (e *Exporter) Handler() http.Handler { return e.mux }

// ServeHTTP implements http.Handler directly so an Exporter can be mounted
// as-is.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.mux.ServeHTTP(w, r)
}

func (e *Exporter) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "pbox telemetry")
	fmt.Fprintln(w, "  /metrics           Prometheus text metrics (incl. pbox_self_* self-telemetry)")
	fmt.Fprintln(w, "  /status            epoch snapshot: pboxes, matrix, resources + age (JSON)")
	fmt.Fprintln(w, "  /self              manager self-telemetry (JSON)")
	fmt.Fprintln(w, "  /pboxes            live per-pBox accounting (JSON)")
	fmt.Fprintln(w, "  /attribution       culprit↔victim interference matrix (JSON)")
	fmt.Fprintln(w, "  /trace             trace ring snapshot (JSON)")
	fmt.Fprintln(w, "  /trace?since=N&wait=5s  long-poll for entries newer than seq N")
}

func (e *Exporter) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := e.mgr.SelfStats()
	writePBoxMetrics(w, st)
	writeAttributedMetrics(w, e.mgr.StatusView())
	writeSelfMetrics(w, st)
	if e.wireSrv != nil {
		writeWireMetrics(w, e.wireSrv.Stats())
	}
}

func (e *Exporter) handlePBoxes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, PBoxStatuses(e.mgr.StatusView().Snapshots))
}

func (e *Exporter) handleAttribution(w http.ResponseWriter, r *http.Request) {
	st := e.mgr.StatusView()
	writeJSON(w, AttributionResponse{
		PBoxes:        PBoxStatuses(st.Snapshots),
		Matrix:        AttributionEntries(st.Attribution),
		Dropped:       st.AttributionDropped,
		SnapshotEpoch: st.Epoch,
		SnapshotAge:   e.mgr.ViewAge(st).String(),
	})
}

func (e *Exporter) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = n
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			http.Error(w, "bad wait parameter", http.StatusBadRequest)
			return
		}
		if d > maxTraceWait {
			d = maxTraceWait
		}
		wait = d
	}

	// TraceView reads the ring without a flush-on-read spool sweep: a
	// tailing client must not flush other workers' spools on every poll.
	// Spooled events appear once a write-side flush trigger lands them in
	// the ring (bounded by the spool capacity).
	entries, next := e.mgr.TraceView(since)
	if len(entries) == 0 && wait > 0 {
		// Long poll: block until a newer entry lands, the client leaves,
		// or the wait expires, then re-read. A cursor ahead of the ring
		// (the daemon restarted under a follower) waits from the tail.
		since = min(since, next)
		notify := e.mgr.TraceNotify(since)
		if notify != nil {
			timer := time.NewTimer(wait)
			select {
			case <-notify:
			case <-timer.C:
			case <-r.Context().Done():
				timer.Stop()
				return
			}
			timer.Stop()
			entries, next = e.mgr.TraceView(since)
		}
	}

	writeJSON(w, TraceResponse{Next: next, Entries: TraceEvents(e.mgr, entries)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
