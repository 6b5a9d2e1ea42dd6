package flightrec

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pbox/internal/core"
	"pbox/internal/telemetry"
)

var (
	errClosed = errors.New("flightrec: recorder closed")
	errBusy   = errors.New("flightrec: writer busy")
	errWrite  = errors.New("flightrec: bundle write failed")
)

// Incident is one frozen bundle: the verdict (or manual dump) that triggered
// it, the culprit/victim pair with the Algorithm 1 inputs behind the verdict,
// the newest rows of the manager's trace ring, and the manager state at
// capture time — pBoxes (the Algorithm 1 inputs: defer ratio against the
// rule's goal), per-resource
// who-waits/who-holds counts and the attribution matrix, in the same JSON
// forms the telemetry endpoints print.
type Incident struct {
	ID         string `json:"id"`
	CapturedAt string `json:"captured_at"`
	Trigger    string `json:"trigger"`
	Reason     string `json:"reason,omitempty"`

	CulpritID    int    `json:"culprit_id,omitempty"`
	CulpritLabel string `json:"culprit_label,omitempty"`
	VictimID     int    `json:"victim_id,omitempty"`
	VictimLabel  string `json:"victim_label,omitempty"`
	Key          uint64 `json:"key,omitempty"`
	Resource     string `json:"resource,omitempty"`

	// ProjectedLevel is the interference level tf = td/(te−td) the detector
	// projected for the victim; Goal is the victim rule's isolation level λ.
	// ProjectedSpeedup = (1+ProjectedLevel)/(1+Goal) estimates how much
	// faster the victim's activity would finish if the goal held — the
	// quantity Algorithm 1's verdict asserts is being lost.
	ProjectedLevel   float64 `json:"projected_level,omitempty"`
	Goal             float64 `json:"goal,omitempty"`
	ProjectedSpeedup float64 `json:"projected_speedup,omitempty"`

	// PenaltyPolicy and PenaltyLength describe the action scheduled for the
	// verdict, when one is visible in the event window (a verdict under
	// cooldown or with a pending penalty schedules none).
	PenaltyPolicy string `json:"penalty_policy,omitempty"`
	PenaltyLength string `json:"penalty_length,omitempty"`

	// CaptureSegment/CaptureOffset reference the capture event log
	// (pboxd -record) at bundle-build time: the verdict's records land in
	// the named segment within CaptureQueued records of the offset. Only
	// set when a capture recorder is attached (AttachCapture).
	CaptureSegment string `json:"capture_segment,omitempty"`
	CaptureOffset  int64  `json:"capture_offset,omitempty"`
	CaptureQueued  int    `json:"capture_queued,omitempty"`

	// Snapshot provenance: the epoch and age of the refreshed manager view
	// the bundle's state sections were built from.
	SnapshotEpoch uint64 `json:"snapshot_epoch,omitempty"`
	SnapshotAge   string `json:"snapshot_age,omitempty"`

	Events             []telemetry.TraceEvent       `json:"events"`
	PBoxes             []telemetry.PBoxStatus       `json:"pboxes,omitempty"`
	Resources          []telemetry.ResourceStatus   `json:"resources,omitempty"`
	Attribution        []telemetry.AttributionEntry `json:"attribution,omitempty"`
	AttributionDropped int64                        `json:"attribution_dropped,omitempty"`
}

// writer is the background goroutine draining capture jobs into bundles.
func (r *Recorder) writer() {
	defer close(r.done)
	for job := range r.jobs {
		id, err := r.buildAndWrite(job)
		if job.reply != nil {
			if err != nil {
				id = ""
			}
			job.reply <- id
		}
	}
}

// nextID mints a sortable incident id: UTC second timestamp plus a process
// sequence number, so lexical order is chronological order.
func (r *Recorder) nextID(atUnix int64) string {
	r.idMu.Lock()
	r.idSeq++
	seq := r.idSeq
	r.idMu.Unlock()
	return fmt.Sprintf("%s-%04d", time.Unix(0, atUnix).UTC().Format("20060102T150405"), seq)
}

// buildAndWrite assembles the bundle for one capture and persists it. Runs
// on the writer goroutine, outside every manager hook; reading the manager
// state here (not at verdict time) means the bundle also sees the penalty
// action that the verdict scheduled, since that happens under the same
// manager lock hold that queued the job. Every bundle forces a snapshot
// refresh: the verdict, and any event still spooled, must be visible.
func (r *Recorder) buildAndWrite(job capture) (string, error) {
	inc := Incident{
		ID:         r.nextID(job.atUnix),
		CapturedAt: time.Unix(0, job.atUnix).UTC().Format(time.RFC3339Nano),
		Trigger:    job.trigger,
		Reason:     job.reason,
	}
	if p, ok := r.capPos.Load().(CapturePosition); ok {
		inc.CaptureSegment, inc.CaptureOffset, inc.CaptureQueued = p.Position()
	}
	mgr := r.mgr.Load()
	if job.trigger == "detection" {
		inc.CulpritID = job.culprit
		inc.VictimID = job.victim
		inc.Key = uint64(job.key)
		inc.ProjectedLevel = job.projected
		if mgr != nil {
			inc.Resource = mgr.ResourceName(job.key)
		}
	}
	var events []core.TraceEntry
	if mgr != nil {
		v := mgr.RefreshStatusView()
		// The event window is the ring's rows (TraceSeq-window, TraceSeq],
		// read after the refresh so the spooled events it swept are in it;
		// rows that landed since (up to next) are cut off the end.
		rows, next := mgr.TraceView(v.TraceSeq - min(v.TraceSeq, window))
		events = rows[:max(0, len(rows)-int(next-v.TraceSeq))]
		inc.SnapshotEpoch = v.Epoch
		inc.SnapshotAge = mgr.ViewAge(v).String()
		inc.PBoxes = telemetry.PBoxStatuses(v.Snapshots)
		inc.Resources = telemetry.ResourceStatuses(v.Resources)
		inc.Attribution = telemetry.AttributionEntries(v.Attribution)
		inc.AttributionDropped = v.AttributionDropped
		for _, p := range inc.PBoxes {
			if p.ID == inc.VictimID {
				inc.VictimLabel = p.Label
				inc.Goal = p.Goal
			}
			if p.ID == inc.CulpritID {
				inc.CulpritLabel = p.Label
			}
		}
		// Labels for a culprit/victim already released at capture time
		// survive in the ledger.
		for _, a := range inc.Attribution {
			if inc.CulpritLabel == "" && a.CulpritID == inc.CulpritID {
				inc.CulpritLabel = a.CulpritLabel
			}
			if inc.VictimLabel == "" && a.VictimID == inc.VictimID {
				inc.VictimLabel = a.VictimLabel
			}
		}
	}
	if inc.Goal > 0 || inc.ProjectedLevel > 0 {
		inc.ProjectedSpeedup = (1 + inc.ProjectedLevel) / (1 + inc.Goal)
	}

	for _, e := range events {
		// The action the verdict scheduled, if any, lands in the ring right
		// after the triggering detection (same culprit and victim).
		if job.trigger == "detection" && e.Kind == core.KindAction &&
			e.PBox == job.culprit && e.Victim == job.victim && e.Key == job.key {
			inc.PenaltyPolicy = e.Policy.String()
			inc.PenaltyLength = time.Duration(e.Dur).String()
		}
	}
	inc.Events = telemetry.TraceEvents(mgr, events)

	if err := r.writeBundle(inc); err != nil {
		return "", err
	}
	r.prune()
	return inc.ID, nil
}

// bundlePath returns the on-disk path for an incident id.
func (r *Recorder) bundlePath(id string) string {
	return filepath.Join(r.cfg.Dir, "incident-"+id+".json")
}

func (r *Recorder) writeBundle(inc Incident) error {
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(inc, "", "  ")
	if err != nil {
		return err
	}
	// Write-then-rename so a reader never sees a torn bundle.
	tmp := r.bundlePath(inc.ID) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, r.bundlePath(inc.ID))
}

// prune enforces the retention cap, deleting the oldest bundles (ids sort
// chronologically).
func (r *Recorder) prune() {
	ids, err := listIDs(r.cfg.Dir)
	if err != nil || len(ids) <= r.cfg.Retention {
		return
	}
	for _, id := range ids[:len(ids)-r.cfg.Retention] {
		_ = os.Remove(r.bundlePath(id))
	}
}

// listIDs returns the incident ids present in dir, oldest first.
func listIDs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "incident-") && strings.HasSuffix(name, ".json") {
			ids = append(ids, strings.TrimSuffix(strings.TrimPrefix(name, "incident-"), ".json"))
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Incidents lists the bundle ids in the recorder's directory, oldest first.
func (r *Recorder) Incidents() ([]string, error) {
	return listIDs(r.cfg.Dir)
}

// IncidentJSON returns one bundle's bytes as written (what the
// /flightrec/incident endpoint serves). It rejects ids that try to escape
// the incidents directory.
func (r *Recorder) IncidentJSON(id string) ([]byte, error) {
	if strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return nil, fmt.Errorf("flightrec: invalid incident id %q", id)
	}
	return os.ReadFile(r.bundlePath(id))
}
