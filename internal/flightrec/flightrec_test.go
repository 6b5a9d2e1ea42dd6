package flightrec

import (
	"encoding/json"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pbox/internal/core"
	"pbox/internal/telemetry"
)

// newWorld builds a fake-clock manager observed by a fresh Recorder and
// returns both plus the clock-advance function. The clock is atomic: the
// recorder's writer goroutine reads it (detection captures stamp snapshot
// provenance) while the test goroutine advances it.
func newWorld(t *testing.T, cfg Config) (*core.Manager, *Recorder, func(time.Duration)) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	rec := New(cfg)
	t.Cleanup(rec.Close)
	var now atomic.Int64
	opts := core.Options{
		Observer:    rec,
		Attribution: true,
		TraceSize:   2 * window, // the one store a bundle's events are cut from
		Now:         now.Load,
		Sleep:       func(d time.Duration) { now.Add(int64(d)) },
		MinPenalty:  10 * time.Microsecond,
		MaxPenalty:  100 * time.Millisecond,
	}
	m := core.NewManager(opts)
	rec.AttachManager(m)
	return m, rec, func(d time.Duration) { now.Add(int64(d)) }
}

// loadIncident decodes one bundle as the /flightrec/incident endpoint serves
// it.
func loadIncident(rec *Recorder, id string) (*Incident, error) {
	data, err := rec.IncidentJSON(id)
	if err != nil {
		return nil, err
	}
	inc := new(Incident)
	return inc, json.Unmarshal(data, inc)
}

// newPair creates a labeled noisy/victim pBox pair with a 0.5 goal.
func newPair(m *core.Manager, noisyLabel, victimLabel string) (noisy, victim *core.PBox) {
	rule := core.DefaultRule()
	rule.Level = 0.5
	noisy, _ = m.Create(rule)
	m.SetLabel(noisy, noisyLabel)
	victim, _ = m.Create(rule)
	m.SetLabel(victim, victimLabel)
	return noisy, victim
}

// driveRound runs one noisy-blocks-victim round that ends in a verdict.
func driveRound(m *core.Manager, advance func(time.Duration), key core.ResourceKey, noisy, victim *core.PBox) {
	m.Activate(noisy)
	m.Activate(victim)
	m.Update(noisy, key, core.Hold)
	m.Update(victim, key, core.Prepare)
	advance(5 * time.Millisecond)
	m.Update(noisy, key, core.Unhold)
	m.Update(victim, key, core.Enter)
	m.Freeze(victim)
}

// driveIncident runs one verdict round on a freshly created pair.
func driveIncident(m *core.Manager, advance func(time.Duration), key core.ResourceKey) {
	noisy, victim := newPair(m, "noisy", "victim")
	driveRound(m, advance, key, noisy, victim)
}

func TestDetectionCaptureWritesBundle(t *testing.T) {
	m, rec, advance := newWorld(t, Config{Cooldown: time.Millisecond})
	key := core.ResourceKey(0x7)
	m.NameResource(key, "row_lock")
	driveIncident(m, advance, key)
	rec.Close() // drain the writer

	ids, err := rec.Incidents()
	if err != nil || len(ids) == 0 {
		t.Fatalf("no incident bundles written (ids=%v, err=%v)", ids, err)
	}
	inc, err := loadIncident(rec, ids[0])
	if err != nil {
		t.Fatalf("load incident %s: %v", ids[0], err)
	}
	if inc.Trigger != "detection" {
		t.Fatalf("trigger = %q, want detection", inc.Trigger)
	}
	if inc.CulpritLabel != "noisy" || inc.VictimLabel != "victim" {
		t.Fatalf("bundle blames %q → %q, want noisy → victim", inc.CulpritLabel, inc.VictimLabel)
	}
	if inc.Resource != "row_lock" {
		t.Fatalf("resource = %q, want row_lock", inc.Resource)
	}
	if inc.ProjectedLevel <= inc.Goal || inc.Goal != 0.5 {
		t.Fatalf("projected %v vs goal %v: verdict inputs missing", inc.ProjectedLevel, inc.Goal)
	}
	if inc.ProjectedSpeedup <= 1 {
		t.Fatalf("projected speedup = %v, want > 1", inc.ProjectedSpeedup)
	}
	if inc.PenaltyPolicy == "" || inc.PenaltyLength == "" {
		t.Fatalf("bundle missing penalty decision: %+v", inc)
	}
	if len(inc.Events) == 0 || len(inc.PBoxes) == 0 || len(inc.Attribution) == 0 {
		t.Fatalf("bundle missing sections: events=%d pboxes=%d attribution=%d",
			len(inc.Events), len(inc.PBoxes), len(inc.Attribution))
	}
	var sawDetection, sawNamed, sawActivate bool
	for _, e := range inc.Events {
		if e.Kind == "detection" && strings.HasPrefix(e.Text, "detection") && strings.Contains(e.Text, "projected=") {
			sawDetection = true
		}
		if e.Name == "row_lock" {
			sawNamed = true
		}
		if e.Kind == "activate" {
			sawActivate = true
		}
	}
	if !sawDetection || !sawNamed || !sawActivate {
		t.Fatalf("events missing detection (%v), resource name (%v) or lifecycle rows (%v)", sawDetection, sawNamed, sawActivate)
	}
	top := inc.Attribution[0]
	if top.CulpritLabel != "noisy" {
		t.Fatalf("attribution top culprit = %q, want noisy", top.CulpritLabel)
	}
	if d, err := time.ParseDuration(top.Blocked); err != nil || d <= 0 {
		t.Fatalf("attribution blocked %q not a positive duration (%v)", top.Blocked, err)
	}
}

// stubCapturePosition stands in for a capture.Recorder.
type stubCapturePosition struct{}

func (stubCapturePosition) Position() (string, int64, int) {
	return "seg-000003.pblog", 4096, 2
}

// TestBundleReferencesCapturePosition checks AttachCapture stamps the
// capture-log position into verdict bundles.
func TestBundleReferencesCapturePosition(t *testing.T) {
	m, rec, advance := newWorld(t, Config{Cooldown: time.Millisecond})
	rec.AttachCapture(stubCapturePosition{})
	driveIncident(m, advance, core.ResourceKey(0x7))
	rec.Close()

	ids, err := rec.Incidents()
	if err != nil || len(ids) == 0 {
		t.Fatalf("no incident bundles written (ids=%v, err=%v)", ids, err)
	}
	inc, err := loadIncident(rec, ids[0])
	if err != nil {
		t.Fatalf("load incident: %v", err)
	}
	if inc.CaptureSegment != "seg-000003.pblog" || inc.CaptureOffset != 4096 || inc.CaptureQueued != 2 {
		t.Fatalf("bundle capture reference = %q @%d (queued %d), want seg-000003.pblog @4096 (queued 2)",
			inc.CaptureSegment, inc.CaptureOffset, inc.CaptureQueued)
	}
}

func TestCooldownLimitsCaptures(t *testing.T) {
	m, rec, advance := newWorld(t, Config{Cooldown: time.Hour})
	key := core.ResourceKey(0x8)
	noisy, victim := newPair(m, "noisy", "victim")
	for i := 0; i < 5; i++ {
		driveRound(m, advance, key, noisy, victim)
	}
	rec.Close()
	ids, _ := rec.Incidents()
	if len(ids) != 1 {
		t.Fatalf("%d bundles written under a 1h cooldown, want 1", len(ids))
	}
}

// TestCooldownIsPerCulprit: a chatty culprit inside its cooldown window must
// not suppress the first capture of a different culprit.
func TestCooldownIsPerCulprit(t *testing.T) {
	m, rec, advance := newWorld(t, Config{Cooldown: time.Hour})
	key := core.ResourceKey(0x8)
	chatty, victimA := newPair(m, "chatty", "victim-a")
	for i := 0; i < 3; i++ {
		driveRound(m, advance, key, chatty, victimA)
	}
	rare, victimB := newPair(m, "rare", "victim-b")
	driveRound(m, advance, key, rare, victimB)
	rec.Close()

	ids, _ := rec.Incidents()
	if len(ids) != 2 {
		t.Fatalf("%d bundles written, want 2 (one per culprit)", len(ids))
	}
	var culprits []string
	for _, id := range ids {
		inc, err := loadIncident(rec, id)
		if err != nil {
			t.Fatalf("load %s: %v", id, err)
		}
		culprits = append(culprits, inc.CulpritLabel)
	}
	if culprits[0] != "chatty" || culprits[1] != "rare" {
		t.Fatalf("bundle culprits = %v, want [chatty rare]", culprits)
	}
}

func TestManualDump(t *testing.T) {
	m, rec, advance := newWorld(t, Config{})
	key := core.ResourceKey(0x9)
	m.NameResource(key, "queue")
	driveIncident(m, advance, key)

	id, err := rec.Dump("operator paged on p95 burn", 5*time.Second)
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	inc, err := loadIncident(rec, id)
	if err != nil {
		t.Fatalf("load manual dump %s: %v", id, err)
	}
	if inc.Trigger != "manual" || !strings.Contains(inc.Reason, "paged") {
		t.Fatalf("manual dump trigger=%q reason=%q", inc.Trigger, inc.Reason)
	}
	if len(inc.Events) == 0 || len(inc.PBoxes) == 0 {
		t.Fatalf("manual dump missing sections: events=%d pboxes=%d", len(inc.Events), len(inc.PBoxes))
	}
}

func TestRetentionPrunesOldest(t *testing.T) {
	_, rec, _ := newWorld(t, Config{Retention: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := rec.Dump("fill", 5*time.Second)
		if err != nil {
			t.Fatalf("dump %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	kept, err := rec.Incidents()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(kept) != 2 {
		t.Fatalf("retention kept %d bundles, want 2 (%v)", len(kept), kept)
	}
	if kept[0] != ids[3] || kept[1] != ids[4] {
		t.Fatalf("retention kept %v, want the newest two of %v", kept, ids)
	}
}

func TestReadIncidentRejectsPathEscape(t *testing.T) {
	_, rec, _ := newWorld(t, Config{})
	for _, id := range []string{"../etc/passwd", "a/b", `a\b`} {
		if _, err := rec.IncidentJSON(id); err == nil || !strings.Contains(err.Error(), "invalid incident id") {
			t.Fatalf("IncidentJSON(%q) = %v, want an invalid-id rejection", id, err)
		}
	}
}

func TestDumpAfterCloseFails(t *testing.T) {
	_, rec, _ := newWorld(t, Config{})
	rec.Close()
	if _, err := rec.Dump("late", time.Second); err == nil {
		t.Fatal("Dump after Close should fail")
	}
	rec.Close() // double Close must not panic
}

// TestRecordPathAllocFree is the flight-recorder half of the hook-path
// discipline: passing an event through the recorder, and a verdict arriving
// while the capture cooldown is active, allocate nothing.
func TestRecordPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	rec := New(Config{Dir: t.TempDir(), Cooldown: time.Hour})
	defer rec.Close()
	key := core.ResourceKey(0x42)
	// Prime: consume the one capture the cooldown allows.
	rec.Detection(1, 2, key, 0.9)

	if allocs := testing.AllocsPerRun(1000, func() {
		rec.StateEventAt(1, key, core.Prepare, 100)
	}); allocs != 0 {
		t.Fatalf("StateEventAt record allocates %.2f objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		rec.Detection(1, 2, key, 0.9)
	}); allocs != 0 {
		t.Fatalf("cooled-down Detection allocates %.2f objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		rec.Blocked(1, 2, key, 1000)
	}); allocs != 0 {
		t.Fatalf("Blocked record allocates %.2f objects per op, want 0", allocs)
	}
}

// kindCount is a sink (and, through the adapter it embeds, an observer) that
// counts the records it is handed by kind.
type kindCount struct {
	core.RecordObserver
	n map[core.Kind]int
}

func newKindCount() *kindCount {
	k := &kindCount{n: map[core.Kind]int{}}
	k.Sink = k
	return k
}

func (k *kindCount) Record(rec core.Record) { k.n[rec.Kind]++ }

// TestStateEventsBuildNoRecord: the recorder keeps no state rows, so a state
// callback is forwarded to Next — once — and nothing is built for the
// recorder's own sink; every other callback still reaches both.
func TestStateEventsBuildNoRecord(t *testing.T) {
	next, own := newKindCount(), newKindCount()
	rec := New(Config{Dir: t.TempDir(), Next: next})
	defer rec.Close()
	rec.Sink = own // in place of the recorder itself: what Record would be handed
	var obs core.Observer = rec
	obs.PBoxActivated(1, 10)
	for i := 0; i < 5; i++ {
		obs.StateEventAt(1, 0x42, core.Hold, int64(20+i))
	}
	obs.PBoxFrozen(1, 30)
	if next.n[core.KindState] != 5 || next.n[core.KindActivate] != 1 || next.n[core.KindFreeze] != 1 {
		t.Fatalf("downstream observer saw %v", next.n)
	}
	if own.n[core.KindState] != 0 || own.n[core.KindActivate] != 1 || own.n[core.KindFreeze] != 1 {
		t.Fatalf("the recorder's sink was handed %v", own.n)
	}
}

// TestEveryDumpSeesSpooledEventsAndRecordsEpoch: every bundle is built from
// a refreshed view, so a manual Dump reflects an event that was still
// sitting in a worker spool — one no published view had seen — and records
// the epoch of the view it forced. Its events are cut from the manager's
// ring after that refresh: exactly the rows (TraceSeq-window, TraceSeq].
func TestEveryDumpSeesSpooledEventsAndRecordsEpoch(t *testing.T) {
	m, rec, _ := newWorld(t, Config{})
	p, err := m.Create(core.DefaultRule())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	m.Activate(p)
	for i := 0; i < window; i++ { // more rows than one bundle carries
		m.Update(p, core.ResourceKey(0x501), core.Hold)
		m.Update(p, core.ResourceKey(0x501), core.Unhold)
	}
	w := m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		t.Fatalf("BindDirect: %v", err)
	}
	key := core.ResourceKey(0x500)
	m.NameResource(key, "spooled_lock")

	v := m.RefreshStatusView() // publish a view BEFORE the spooled event
	w.Update(key, core.Hold)   // Tier A: sits in the worker spool

	id, err := rec.Dump("operator dump", 5*time.Second)
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	inc, err := loadIncident(rec, id)
	if err != nil {
		t.Fatalf("load %s: %v", id, err)
	}
	if inc.SnapshotEpoch != v.Epoch+1 || inc.SnapshotAge == "" {
		t.Fatalf("dump provenance: epoch %d age %q, want the refreshed epoch %d", inc.SnapshotEpoch, inc.SnapshotAge, v.Epoch+1)
	}
	var found bool
	for _, res := range inc.Resources {
		if res.Key == uint64(key) && res.Holders == 1 && res.Name == "spooled_lock" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump missed the spooled hold: %+v", inc.Resources)
	}
	seq := m.StatusView().TraceSeq // nothing has happened since the dump's refresh
	rows, _ := m.TraceView(seq - window)
	if want := telemetry.TraceEvents(m, rows); seq <= window || !slices.Equal(inc.Events, want) {
		t.Fatalf("bundle events: %d rows ending at seq %d, want the ring's %d rows ending at %d",
			len(inc.Events), inc.Events[len(inc.Events)-1].Seq, len(want), seq)
	}
	if last := inc.Events[len(inc.Events)-1]; last.Kind != "state" || last.Name != "spooled_lock" || !strings.Contains(last.Text, "ev=HOLD") {
		t.Fatalf("bundle's newest event is %+v, want the spooled hold", last)
	}
}

// TestBundleWithoutRingHasEmptyEvents: the recorder keeps no copy of the
// stream, so on a manager built without a trace ring a bundle carries the
// state sections and an empty (never null) events list.
func TestBundleWithoutRingHasEmptyEvents(t *testing.T) {
	rec := New(Config{Dir: t.TempDir()})
	defer rec.Close()
	m := core.NewManager(core.Options{Observer: rec})
	rec.AttachManager(m)
	if _, err := m.Create(core.DefaultRule()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	id, err := rec.Dump("no ring", 5*time.Second)
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	data, _ := rec.IncidentJSON(id)
	if !strings.Contains(string(data), `"events": []`) || !strings.Contains(string(data), `"pboxes": [`) {
		t.Fatalf("ringless bundle should carry pboxes and an empty events list:\n%s", data)
	}
}
