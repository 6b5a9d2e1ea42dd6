package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pbox/internal/core"
)

func TestAttributionEndpoint(t *testing.T) {
	_, exp, _ := newTestWorld(t)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	code, body := get(t, srv, "/attribution")
	if code != http.StatusOK {
		t.Fatalf("/attribution status = %d", code)
	}
	var resp AttributionResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/attribution JSON: %v\n%s", err, body)
	}
	if len(resp.PBoxes) != 2 {
		t.Fatalf("/attribution returned %d pboxes, want 2", len(resp.PBoxes))
	}
	if len(resp.Matrix) == 0 {
		t.Fatalf("/attribution matrix is empty:\n%s", body)
	}
	top := resp.Matrix[0]
	if top.CulpritLabel != "noisy" || top.VictimLabel != "victim" {
		t.Fatalf("top matrix entry blames %q → %q, want noisy → victim:\n%s",
			top.CulpritLabel, top.VictimLabel, body)
	}
	if top.Resource != "bufpool" {
		t.Fatalf("top matrix entry resource = %q, want bufpool", top.Resource)
	}
	if top.BlockedNs <= 0 || top.Detections == 0 {
		t.Fatalf("top matrix entry has no blocked time or detections: %+v", top)
	}
	if d, err := time.ParseDuration(top.Blocked); err != nil || d <= 0 {
		t.Fatalf("blocked %q did not round-trip to a positive duration (%v)", top.Blocked, err)
	}
}

// TestAttributedSeriesLabels is the label-cardinality contract: resource
// labels on the pbox_attributed_* families carry the names registered via
// Manager.NameResource, and keys without a name are rendered in the stable
// key-0x… form — raw pointer values never appear as bare label text.
func TestAttributedSeriesLabels(t *testing.T) {
	m, exp, advance := newTestWorld(t)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	// Drive one interference round on an unnamed resource too.
	rule := core.DefaultRule()
	rule.Level = 0.5
	noisy, _ := m.Create(rule)
	victim, _ := m.Create(rule)
	m.Activate(noisy)
	m.Activate(victim)
	unnamed := core.ResourceKey(0xbeef)
	m.Update(noisy, unnamed, core.Hold)
	m.Update(victim, unnamed, core.Prepare)
	advance(5 * time.Millisecond)
	m.Update(noisy, unnamed, core.Unhold)
	m.Update(victim, unnamed, core.Enter)

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, `pbox_attributed_blocked_nanoseconds_total{culprit="1",victim="2",resource="bufpool"}`) {
		t.Fatalf("/metrics missing named attributed series:\n%s", body)
	}
	if !strings.Contains(body, `resource="key-0xbeef"`) {
		t.Fatalf("/metrics missing key-0x fallback label for unnamed resource:\n%s", body)
	}
	// No attributed series may carry a bare numeric resource label.
	bare := regexp.MustCompile(`resource="\d`)
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "pbox_attributed_") && bare.MatchString(line) {
			t.Fatalf("attributed series leaks a raw key as resource label: %s", line)
		}
	}
	if !strings.Contains(body, "pbox_attributed_detections_total{") {
		t.Fatalf("/metrics missing attributed detections family:\n%s", body)
	}
}

// blockOn drives one blocked wait on key: victim waits while noisy holds it
// for d of the fake clock.
func blockOn(m *core.Manager, advance func(time.Duration), noisy, victim *core.PBox, key core.ResourceKey, d time.Duration) {
	m.Update(noisy, key, core.Hold)
	m.Update(victim, key, core.Prepare)
	advance(d)
	m.Update(noisy, key, core.Unhold)
	m.Update(victim, key, core.Enter)
}

// attributedSeries parses the pbox_attributed_* samples of an exposition:
// series name with labels → value.
func attributedSeries(t *testing.T, body string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "pbox_attributed_") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestAttributedSeriesMatchLedger: /metrics and /attribution are one answer.
// A resource named after its first block carries its name on both; every
// record of the view has its five values in the series; and a manager
// without a ledger exports no attributed series at all.
func TestAttributedSeriesMatchLedger(t *testing.T) {
	m, exp, advance := newTestWorld(t)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	rule := core.DefaultRule()
	rule.Level = 0.5
	noisy, _ := m.Create(rule)
	victim, _ := m.Create(rule)
	m.Activate(noisy)
	m.Activate(victim)
	key := core.ResourceKey(0xbeef)
	blockOn(m, advance, noisy, victim, key, 5*time.Millisecond)
	m.RefreshStatusView()
	if _, body := get(t, srv, "/metrics"); !strings.Contains(body, `resource="key-0xbeef"`) {
		t.Fatalf("/metrics before naming lacks the key-0x label:\n%s", body)
	}
	m.NameResource(key, "late")
	m.RefreshStatusView()

	_, body := get(t, srv, "/attribution")
	var resp AttributionResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/attribution JSON: %v\n%s", err, body)
	}
	var named *AttributionEntry
	for i := range resp.Matrix {
		if resp.Matrix[i].Key == uint64(key) {
			named = &resp.Matrix[i]
		}
	}
	if named == nil || named.Resource != "late" {
		t.Fatalf("/attribution has no record for the late-named key:\n%s", body)
	}

	_, metrics := get(t, srv, "/metrics")
	series := attributedSeries(t, metrics)
	triple := fmt.Sprintf(`{culprit="%d",victim="%d",resource="late"}`, named.CulpritID, named.VictimID)
	if _, ok := series["pbox_attributed_blocked_nanoseconds_total"+triple]; !ok {
		t.Fatalf("/metrics has no series %s for /attribution's resource:\n%s", triple, metrics)
	}

	v := m.StatusView()
	if len(v.Attribution) == 0 {
		t.Fatal("view has no attribution records")
	}
	for _, r := range v.Attribution {
		resource := r.Resource
		if resource == "" {
			resource = fmt.Sprintf("key-0x%x", uintptr(r.Key))
		}
		labels := fmt.Sprintf(`{culprit="%d",victim="%d",resource="%s"}`, r.CulpritID, r.VictimID, resource)
		for name, want := range map[string]int64{
			"pbox_attributed_blocked_nanoseconds_total":           int64(r.Blocked),
			"pbox_attributed_detections_total":                    r.Detections,
			"pbox_attributed_actions_total":                       r.Actions,
			"pbox_attributed_penalty_scheduled_nanoseconds_total": int64(r.PenaltyScheduled),
			"pbox_attributed_penalty_served_nanoseconds_total":    int64(r.PenaltyServed),
		} {
			if got, ok := series[name+labels]; !ok || got != want {
				t.Errorf("%s%s = %d (present %v), ledger says %d", name, labels, got, ok, want)
			}
		}
	}

	// Without Options.Attribution there is no ledger, so no matrix.
	var now int64
	off := core.NewManager(core.Options{
		Now:        func() int64 { return now },
		Sleep:      func(d time.Duration) { now += int64(d) },
		MinPenalty: 10 * time.Microsecond,
		MaxPenalty: 100 * time.Millisecond,
	})
	a, _ := off.Create(rule)
	b, _ := off.Create(rule)
	off.Activate(a)
	off.Activate(b)
	blockOn(off, func(d time.Duration) { now += int64(d) }, a, b, key, 5*time.Millisecond)
	off.RefreshStatusView()
	offSrv := httptest.NewServer(NewExporter(nil, off))
	defer offSrv.Close()
	_, body = get(t, offSrv, "/metrics")
	if !strings.Contains(body, "pbox_events_total") {
		t.Fatalf("/metrics without attribution lacks the plain families:\n%s", body)
	}
	if strings.Contains(body, "pbox_attributed_") {
		t.Fatalf("/metrics exports attributed series without a ledger:\n%s", body)
	}
}

// TestAttributedSeriesCardinalityCap drives more triples than the series cap
// through a manager and checks /metrics exports the cap's worth, most
// blocking first, and counts the overflow instead.
func TestAttributedSeriesCardinalityCap(t *testing.T) {
	var now int64
	advance := func(d time.Duration) { now += int64(d) }
	m := core.NewManager(core.Options{
		Attribution: true,
		Now:         func() int64 { return now },
		Sleep:       advance,
		MinPenalty:  10 * time.Microsecond,
		MaxPenalty:  100 * time.Millisecond,
	})
	rule := core.DefaultRule()
	rule.Level = 0.5
	noisy, _ := m.Create(rule)
	victim, _ := m.Create(rule)
	m.Activate(noisy)
	m.Activate(victim)
	const triples = maxAttrSeries + 37
	for i := 0; i < triples; i++ {
		// Key i+1 is blocked for i+1 µs: the 37 shortest are the overflow.
		blockOn(m, advance, noisy, victim, core.ResourceKey(uintptr(i+1)), time.Duration(i+1)*time.Microsecond)
	}
	if n := len(m.RefreshStatusView().Attribution); n != triples {
		t.Fatalf("ledger holds %d triples, want %d", n, triples)
	}
	srv := httptest.NewServer(NewExporter(nil, m))
	defer srv.Close()
	_, body := get(t, srv, "/metrics")
	if got := strings.Count(body, "pbox_attributed_blocked_nanoseconds_total{"); got != maxAttrSeries {
		t.Fatalf("exported %d blocked series, want %d", got, maxAttrSeries)
	}
	if !strings.Contains(body, "pbox_attributed_series_dropped_total 37\n") {
		t.Fatalf("missing dropped-series counter in exposition:\n%s", body)
	}
	if strings.Contains(body, fmt.Sprintf(`resource="key-0x%x"`, 37)) ||
		!strings.Contains(body, fmt.Sprintf(`resource="key-0x%x"`, 38)) {
		t.Fatal("the cap did not keep the most-blocking triples")
	}
}

// TestStatusEndpointsDuringChurn hammers /pboxes and /attribution while
// pBoxes are created, driven, and released concurrently. Run under -race in
// CI, it is the consistency check for the combined Status accessor: the
// endpoints must never observe a half-updated manager.
func TestStatusEndpointsDuringChurn(t *testing.T) {
	opts := core.Options{
		Attribution: true,
		TraceSize:   64,
		MinPenalty:  10 * time.Microsecond,
		MaxPenalty:  time.Millisecond,
		Sleep:       func(time.Duration) {},
	}
	m := core.NewManager(opts)
	key := core.ResourceKey(0x11)
	m.NameResource(key, "churn_lock")
	exp := NewExporter(nil, m)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churner: short-lived noisy/victim pairs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rule := core.DefaultRule()
		rule.Level = 0.1
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			noisy, _ := m.Create(rule)
			victim, _ := m.Create(rule)
			m.SetLabel(noisy, fmt.Sprintf("noisy-%d", i))
			m.Activate(noisy)
			m.Activate(victim)
			m.Update(noisy, key, core.Hold)
			m.Update(victim, key, core.Prepare)
			m.Update(noisy, key, core.Unhold)
			m.Update(victim, key, core.Enter)
			m.Freeze(victim)
			m.Release(noisy)
			m.Release(victim)
		}
	}()
	// Readers: both JSON status endpoints plus the metrics scrape.
	for _, path := range []string{"/pboxes", "/attribution", "/metrics"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				if path == "/attribution" {
					var ar AttributionResponse
					if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
						t.Errorf("decode %s: %v", path, err)
					}
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}
