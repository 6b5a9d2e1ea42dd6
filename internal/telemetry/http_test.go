package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pbox/internal/core"
)

// newTestWorld builds a manager with tracing, attribution, and a collector,
// drives one small noisy/victim scenario through it (fake clock, recorded
// sleeps), and returns the exporter serving it plus a function advancing the
// fake clock.
func newTestWorld(t *testing.T) (*core.Manager, *Exporter, func(time.Duration)) {
	t.Helper()
	var now int64
	reg := NewRegistry()
	col := NewCollector(reg)
	opts := core.Options{
		Observer:    col,
		Attribution: true,
		TraceSize:   128,
		Now:         func() int64 { return now },
		Sleep:       func(d time.Duration) { now += int64(d) },
	}
	opts.MinPenalty = 10 * time.Microsecond
	opts.MaxPenalty = 100 * time.Millisecond
	m := core.NewManager(opts)
	m.NameResource(core.ResourceKey(1), "bufpool")

	rule := core.DefaultRule()
	rule.Level = 0.5
	noisy, _ := m.Create(rule)
	m.SetLabel(noisy, "noisy")
	victim, _ := m.Create(rule)
	m.SetLabel(victim, "victim")
	m.Activate(noisy)
	m.Activate(victim)
	m.Update(noisy, core.ResourceKey(1), core.Hold)
	m.Update(victim, core.ResourceKey(1), core.Prepare)
	now += int64(5 * time.Millisecond)
	m.Update(noisy, core.ResourceKey(1), core.Unhold)
	m.Update(victim, core.ResourceKey(1), core.Enter)
	m.Freeze(victim)

	return m, NewExporter(reg, m), func(d time.Duration) { now += int64(d) }
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	_, exp, _ := newTestWorld(t)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"pbox_created_total 2",
		"pbox_live 2",
		`pbox_events_total{event="HOLD"} 1`,
		"pbox_activities_total 1",
		"# TYPE pbox_activity_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Detection and penalty counts depend on whether the pBox-level monitor
	// also fires at Freeze; they must be nonzero but the exact count is a
	// scenario detail.
	for _, name := range []string{"pbox_detections_total", "pbox_penalties_total"} {
		if strings.Contains(body, name+" 0\n") || !strings.Contains(body, name+" ") {
			t.Fatalf("/metrics %s should be nonzero:\n%s", name, body)
		}
	}
}

func TestPBoxesEndpointJSONRoundTrips(t *testing.T) {
	_, exp, _ := newTestWorld(t)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	code, body := get(t, srv, "/pboxes")
	if code != http.StatusOK {
		t.Fatalf("/pboxes status = %d", code)
	}
	var statuses []PBoxStatus
	if err := json.Unmarshal([]byte(body), &statuses); err != nil {
		t.Fatalf("/pboxes JSON: %v\n%s", err, body)
	}
	if len(statuses) != 2 {
		t.Fatalf("/pboxes returned %d pboxes, want 2", len(statuses))
	}
	byLabel := map[string]PBoxStatus{}
	for _, s := range statuses {
		byLabel[s.Label] = s
	}
	noisy, ok := byLabel["noisy"]
	if !ok {
		t.Fatalf("no pbox labeled noisy in %s", body)
	}
	if noisy.Goal != 0.5 {
		t.Fatalf("noisy goal = %v, want 0.5", noisy.Goal)
	}
	if noisy.PenaltiesReceived == 0 {
		t.Fatal("noisy pbox shows zero penalties received")
	}
	served, err := time.ParseDuration(noisy.PenaltyServed)
	if err != nil || served <= 0 {
		t.Fatalf("penalty_served %q did not round-trip to a positive duration (%v)", noisy.PenaltyServed, err)
	}
	victim := byLabel["victim"]
	if victim.Activities != 1 {
		t.Fatalf("victim activities = %d, want 1", victim.Activities)
	}
	if d, err := time.ParseDuration(victim.TotalDefer); err != nil || d <= 0 {
		t.Fatalf("victim total_defer %q did not round-trip to a positive duration (%v)", victim.TotalDefer, err)
	}
}

func TestTraceEndpointSnapshotAndCursor(t *testing.T) {
	m, exp, _ := newTestWorld(t)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	code, body := get(t, srv, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status = %d", code)
	}
	var tr TraceResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/trace JSON: %v\n%s", err, body)
	}
	if len(tr.Entries) == 0 || tr.Next == 0 {
		t.Fatalf("/trace returned %d entries, next=%d", len(tr.Entries), tr.Next)
	}
	var sawName, sawAction bool
	for _, e := range tr.Entries {
		if e.Name == "bufpool" {
			sawName = true
		}
		if e.Kind == "action" && e.Victim != 0 && strings.HasPrefix(e.Text, "action ") {
			sawAction = true
		}
	}
	if !sawName || !sawAction {
		t.Fatalf("trace entries missing named resource (%v) or action (%v):\n%s", sawName, sawAction, body)
	}

	// Polling from the cursor returns nothing new.
	code, body = get(t, srv, "/trace?since="+uintStr(tr.Next))
	if code != http.StatusOK {
		t.Fatalf("/trace?since status = %d", code)
	}
	var tr2 TraceResponse
	if err := json.Unmarshal([]byte(body), &tr2); err != nil {
		t.Fatalf("/trace?since JSON: %v", err)
	}
	if len(tr2.Entries) != 0 || tr2.Next != tr.Next {
		t.Fatalf("caught-up poll returned %d entries, next=%d (want 0, %d)", len(tr2.Entries), tr2.Next, tr.Next)
	}

	// A cursor ahead of the ring (the daemon restarted under a follower)
	// long-polls from the ring's tail, not for a sequence number that is a
	// whole ring's history away.
	go func() {
		time.Sleep(50 * time.Millisecond)
		p, _ := m.Create(core.DefaultRule())
		m.Activate(p)
	}()
	start := time.Now()
	_, body = get(t, srv, "/trace?since="+uintStr(tr.Next+1000)+"&wait=5s")
	var tr3 TraceResponse
	if err := json.Unmarshal([]byte(body), &tr3); err != nil {
		t.Fatalf("ahead-of-ring poll JSON: %v", err)
	}
	if len(tr3.Entries) == 0 || tr3.Entries[0].Seq != tr.Next+1 || time.Since(start) >= 5*time.Second {
		t.Fatalf("ahead-of-ring poll returned %d entries after %v; want the first new entry (seq %d) at once:\n%s",
			len(tr3.Entries), time.Since(start), tr.Next+1, body)
	}
}

func TestTraceEndpointLongPollDelivers(t *testing.T) {
	m, exp, _ := newTestWorld(t)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	_, body := get(t, srv, "/trace")
	var tr TraceResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/trace JSON: %v", err)
	}

	// Fire an event shortly after the long poll parks.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(50 * time.Millisecond)
		p, _ := m.Create(core.DefaultRule())
		m.Activate(p)
		m.Update(p, core.ResourceKey(1), core.Prepare)
	}()

	start := time.Now()
	code, body := get(t, srv, "/trace?since="+uintStr(tr.Next)+"&wait=5s")
	elapsed := time.Since(start)
	<-done
	if code != http.StatusOK {
		t.Fatalf("long poll status = %d", code)
	}
	var tr3 TraceResponse
	if err := json.Unmarshal([]byte(body), &tr3); err != nil {
		t.Fatalf("long poll JSON: %v", err)
	}
	if len(tr3.Entries) == 0 {
		t.Fatalf("long poll returned no entries:\n%s", body)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("long poll waited the full timeout (%v) instead of waking on the event", elapsed)
	}
	for _, e := range tr3.Entries {
		if e.Seq <= tr.Next {
			t.Fatalf("long poll returned stale entry seq=%d <= %d", e.Seq, tr.Next)
		}
	}
}

func TestTraceEndpointBadParams(t *testing.T) {
	_, exp, _ := newTestWorld(t)
	srv := httptest.NewServer(exp)
	defer srv.Close()
	if code, _ := get(t, srv, "/trace?since=banana"); code != http.StatusBadRequest {
		t.Fatalf("bad since: status = %d, want 400", code)
	}
	if code, _ := get(t, srv, "/trace?wait=banana"); code != http.StatusBadRequest {
		t.Fatalf("bad wait: status = %d, want 400", code)
	}
}

func TestExporterNilPieces(t *testing.T) {
	srv := httptest.NewServer(NewExporter(nil, nil))
	defer srv.Close()
	if code, _ := get(t, srv, "/metrics"); code != http.StatusNotFound {
		t.Fatalf("nil registry /metrics status = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/pboxes"); code != http.StatusNotFound {
		t.Fatalf("nil manager /pboxes status = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/"); code != http.StatusOK {
		t.Fatal("index should still serve")
	}
}

func uintStr(v uint64) string { return strconv.FormatUint(v, 10) }
