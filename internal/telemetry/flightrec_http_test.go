// An external test package: flightrec imports telemetry (for the shared
// JSON forms), so a test wiring a real Recorder cannot live inside it.
package telemetry_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pbox/internal/core"
	"pbox/internal/flightrec"
	"pbox/internal/telemetry"
)

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

// TestFlightRecorderEndpoints wires the recorder in as the manager's observer
// and exercises dump/list/fetch over HTTP.
func TestFlightRecorderEndpoints(t *testing.T) {
	// Atomic: the recorder's capture goroutine reads the manager clock while
	// this goroutine advances it.
	var now atomic.Int64
	rec := flightrec.New(flightrec.Config{
		Dir: t.TempDir(),
		// The first verdict captures (the cooldown window starts empty);
		// the long cooldown keeps later verdicts from adding more.
		Cooldown: time.Hour,
	})
	defer rec.Close()
	opts := core.Options{
		Observer:    rec,
		Attribution: true,
		TraceSize:   256,
		Now:         now.Load,
		Sleep:       func(d time.Duration) { now.Add(int64(d)) },
		MinPenalty:  10 * time.Microsecond,
		MaxPenalty:  100 * time.Millisecond,
	}
	m := core.NewManager(opts)
	rec.AttachManager(m)
	key := core.ResourceKey(0x5)
	m.NameResource(key, "wal_lock")

	rule := core.DefaultRule()
	rule.Level = 0.5
	noisy, _ := m.Create(rule)
	m.SetLabel(noisy, "noisy")
	victim, _ := m.Create(rule)
	m.Activate(noisy)
	m.Activate(victim)
	m.Update(noisy, key, core.Hold)
	m.Update(victim, key, core.Prepare)
	now.Add(int64(5 * time.Millisecond))
	m.Update(noisy, key, core.Unhold)
	m.Update(victim, key, core.Enter)

	exp := telemetry.NewExporter(nil, m)
	exp.AttachFlightRecorder(rec)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	// GET on dump is rejected.
	if resp, err := http.Get(srv.URL + "/flightrec/dump"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /flightrec/dump status = %d, want 405", resp.StatusCode)
	}

	resp, err := http.Post(srv.URL+"/flightrec/dump?reason=test", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dumped map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&dumped); err != nil {
		t.Fatalf("dump response JSON: %v", err)
	}
	resp.Body.Close()
	if dumped["id"] == "" {
		t.Fatal("dump returned no incident id")
	}

	code, body := get(t, srv, "/flightrec/incidents")
	if code != http.StatusOK {
		t.Fatalf("/flightrec/incidents status = %d", code)
	}
	var ids []string
	if err := json.Unmarshal([]byte(body), &ids); err != nil {
		t.Fatalf("incidents JSON: %v\n%s", err, body)
	}
	// One verdict-triggered bundle from the scenario plus the manual dump,
	// oldest first.
	if len(ids) != 2 || ids[1] != dumped["id"] {
		t.Fatalf("incidents = %v, want the manual dump %s last of two", ids, dumped["id"])
	}

	code, body = get(t, srv, "/flightrec/incident?id="+dumped["id"])
	if code != http.StatusOK {
		t.Fatalf("/flightrec/incident status = %d", code)
	}
	var inc flightrec.Incident
	if err := json.Unmarshal([]byte(body), &inc); err != nil {
		t.Fatalf("incident JSON: %v", err)
	}
	if inc.Trigger != "manual" || inc.Reason != "test" {
		t.Fatalf("incident trigger=%q reason=%q", inc.Trigger, inc.Reason)
	}
	if len(inc.Events) == 0 || len(inc.Attribution) == 0 {
		t.Fatalf("incident missing sections: events=%d attribution=%d", len(inc.Events), len(inc.Attribution))
	}

	if code, _ := get(t, srv, "/flightrec/incident"); code != http.StatusBadRequest {
		t.Fatalf("missing id: status = %d, want 400", code)
	}
	if code, _ := get(t, srv, "/flightrec/incident?id=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown id: status = %d, want 404", code)
	}
}
