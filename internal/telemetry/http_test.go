package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbox/internal/core"
)

// newTestWorld builds a manager with tracing and attribution, drives one small
// noisy/victim scenario through it (fake clock, recorded sleeps), and returns
// the exporter serving it plus a function advancing the fake clock.
func newTestWorld(t *testing.T) (*core.Manager, *Exporter, func(time.Duration)) {
	t.Helper()
	var now int64
	opts := core.Options{
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

	return m, NewExporter(nil, m), func(d time.Duration) { now += int64(d) }
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
		t.Fatalf("nil manager /metrics status = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/pboxes"); code != http.StatusNotFound {
		t.Fatalf("nil manager /pboxes status = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/"); code != http.StatusOK {
		t.Fatal("index should still serve")
	}
}

func uintStr(v uint64) string { return strconv.FormatUint(v, 10) }

// parseMetrics reads one /metrics exposition into series → value. It fails
// on a line that is not a HELP or TYPE header or "name[{labels}] value" with
// balanced braces and quotes, on a series of a family with no TYPE line, on
// histogram buckets that are not cumulative, and on a histogram whose _count
// is not its +Inf bucket.
func parseMetrics(body string) (map[string]string, error) {
	series, types := map[string]string{}, map[string]string{}
	prev := map[string]int64{} // histogram → its last bucket
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || line[0] == '#' {
			return nil, fmt.Errorf("malformed line %q", line)
		}
		id, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return nil, fmt.Errorf("line %q: bad value: %v", line, err)
		}
		name, labels, _ := strings.Cut(id, "{")
		if labels != "" && (!strings.HasSuffix(labels, "}") || strings.Count(labels, `"`)%2 != 0) {
			return nil, fmt.Errorf("line %q: unbalanced labels", line)
		}
		if types[name] == "" {
			hist := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if types[hist] != "histogram" {
				return nil, fmt.Errorf("line %q: no TYPE line for its family", line)
			}
			if hist+"_bucket" == name {
				n, _ := strconv.ParseInt(val, 10, 64)
				if n < prev[hist] {
					return nil, fmt.Errorf("%s: bucket counts not cumulative: %d after %d", hist, n, prev[hist])
				}
				prev[hist] = n
			}
		}
		series[id] = val
	}
	for hist := range prev {
		if inf, n := series[hist+`_bucket{le="+Inf"}`], series[hist+"_count"]; inf != n {
			return nil, fmt.Errorf("%s: _count %s, +Inf bucket %s", hist, n, inf)
		}
	}
	return series, nil
}

// TestPrometheusTextWellFormed line-scans a manager's whole /metrics: every
// line parses (parseMetrics), and every family has exactly one HELP and one
// TYPE line.
func TestPrometheusTextWellFormed(t *testing.T) {
	_, exp, _ := newTestWorld(t)
	srv := httptest.NewServer(exp)
	defer srv.Close()
	_, body := get(t, srv, "/metrics")
	if _, err := parseMetrics(body); err != nil {
		t.Fatalf("%v\n%s", err, body)
	}
	help, typ := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			map[string]map[string]int{"HELP": help, "TYPE": typ}[f[1]][f[2]]++
		}
	}
	for name, n := range typ {
		if n != 1 || help[name] != 1 {
			t.Errorf("family %s has %d HELP and %d TYPE lines, want 1 each", name, help[name], n)
		}
	}
	if len(help) != len(typ) {
		t.Errorf("%d families with HELP, %d with TYPE", len(help), len(typ))
	}
}

// TestHistogramBucketsAndExposition: activities of known lengths land in the
// pbox_activity_seconds buckets whose bounds they do not exceed (le is
// inclusive), one past the last bound lands only in +Inf, and _sum, _count,
// pbox_activities_total and pbox_exec_nanoseconds_total agree with them.
func TestHistogramBucketsAndExposition(t *testing.T) {
	m := core.NewManager(core.Options{})
	p, _ := m.Create(core.DefaultRule())
	var at int64
	for _, d := range []time.Duration{500 * time.Microsecond, time.Millisecond, 5 * time.Millisecond, time.Second, 2 * time.Second} {
		m.ActivateAt(p, at)
		at += int64(d)
		m.FreezeAt(p, at)
	}
	srv := httptest.NewServer(NewExporter(nil, m))
	defer srv.Close()
	_, body := get(t, srv, "/metrics")
	for _, want := range []string{
		"# TYPE pbox_activity_seconds histogram",
		`pbox_activity_seconds_bucket{le="0.00025"} 0`,
		`pbox_activity_seconds_bucket{le="0.0005"} 1`,
		`pbox_activity_seconds_bucket{le="0.001"} 2`,
		`pbox_activity_seconds_bucket{le="0.005"} 3`,
		`pbox_activity_seconds_bucket{le="0.5"} 3`,
		`pbox_activity_seconds_bucket{le="1"} 4`,
		`pbox_activity_seconds_bucket{le="+Inf"} 5`,
		"pbox_activity_seconds_sum 3.0065\n",
		"pbox_activity_seconds_count 5\n",
		"pbox_activities_total 5\n",
		"pbox_exec_nanoseconds_total 3006500000\n",
		"pbox_activity_defer_seconds_count 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Log(body)
	}
}

// recordTally is a RecordSink counting, by kind, the records a manager
// delivers and the sums of their Dur and Exec, safe for concurrent writers.
type recordTally struct {
	core.RecordObserver
	mu        sync.Mutex
	n, dur    [16]int64 // indexed by core.Kind
	exec      int64     // activity_end rows' Exec
	deferring int64     // activity_end rows with Dur > 0
	states    [4]int64  // state rows by core.EventType
}

func (s *recordTally) Record(rec core.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n[rec.Kind]++
	s.dur[rec.Kind] += rec.Dur
	switch rec.Kind {
	case core.KindState:
		s.states[rec.Ev]++
	case core.KindActivityEnd:
		s.exec += rec.Exec
		if rec.Dur > 0 {
			s.deferring++
		}
	}
}

// TestEventsTotalMatchesStateRows: every pbox_* family on /metrics is the
// manager's own count, rendered at scrape time, so once the traffic stops a
// scrape must show exactly what a sink in the observer chain received —
// created and released from the lifecycle rows; activities, exec and defer
// time and both activity histograms from the activity_end rows; detections,
// actions, scheduled and served penalty time from those rows; and, per kind,
// the state rows, over every way a row is delivered: direct Updates, spooled
// Worker events and runs, flushes at a Freeze, and slow-path hand-offs on a
// key the tenants share. Scrapes taken while the traffic runs must each show
// every histogram's _count equal to its +Inf bucket.
func TestEventsTotalMatchesStateRows(t *testing.T) {
	tally := &recordTally{}
	tally.Sink = tally
	var clock atomic.Int64
	m := core.NewManager(core.Options{Observer: tally, TraceSize: 256, Now: clock.Load, Sleep: func(time.Duration) {}})
	srv := httptest.NewServer(NewExporter(nil, m))
	defer srv.Close()
	scrape := func() (map[string]string, error) {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		return parseMetrics(string(body))
	}
	// The traffic runs until the scraper has read /metrics minScrapes times.
	const minScrapes = 20
	var scrapes, rounds, episodes atomic.Int64
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := scrape(); err != nil {
				t.Errorf("scrape %d: %v", scrapes.Load(), err)
				scrapes.Store(minScrapes) // let the traffic end
				return
			}
			scrapes.Add(1)
		}
	}()

	const shared = core.ResourceKey(0x5000)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := m.Create(core.DefaultRule())
			if err != nil {
				t.Error(err)
				return
			}
			w := m.NewWorker()
			if err := w.BindDirect(p); err != nil {
				t.Error(err)
				return
			}
			own := core.ResourceKey(0x100 * (g + 1))
			run := []core.KeyEvent{
				{Key: own, Ev: core.Prepare}, {Key: own, Ev: core.Enter}, {Key: own, Ev: core.Hold},
				{Key: own + 1, Ev: core.Hold}, {Key: own + 1, Ev: core.Unhold}, {Key: own, Ev: core.Unhold},
			}
			for i := 0; i < 200 || scrapes.Load() < minScrapes; i++ {
				rounds.Add(1)
				m.ActivateAt(p, int64(i))
				w.UpdateRunAt(run, int64(i))
				w.UpdateAt(own+2, core.Hold, int64(i))
				w.UpdateAt(own+2, core.Unhold, int64(i))
				w.Update(shared, core.Hold)
				w.Update(shared, core.Unhold)
				m.Update(p, own+3, core.Prepare)
				m.Update(p, own+3, core.Enter)
				m.FreezeAt(p, int64(i)+int64(g)*int64(time.Millisecond))
			}
			w.Flush()
			if g%2 == 0 {
				m.Release(p)
			}
		}()
	}
	// A noisy holder and its victim, so verdicts, actions and served
	// penalties are counted too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rule := core.DefaultRule()
		rule.Level = 0.5
		noisy, _ := m.Create(rule)
		victim, _ := m.Create(rule)
		const key = core.ResourceKey(0x7000)
		for i := 0; i < 50 || scrapes.Load() < minScrapes; i++ {
			episodes.Add(1)
			m.Activate(noisy)
			m.Activate(victim)
			m.Update(noisy, key, core.Hold)
			m.Update(victim, key, core.Prepare)
			clock.Add(int64(5 * time.Millisecond))
			m.Update(noisy, key, core.Unhold)
			m.Update(victim, key, core.Enter)
			m.Freeze(victim)
			m.Freeze(noisy)
		}
		m.Release(noisy)
	}()
	wg.Wait()
	close(stop)
	<-scraped

	got, err := scrape()
	if err != nil {
		t.Fatal(err)
	}
	n, dur := tally.n, tally.dur
	secs := func(ns int64) string { return formatSeconds(time.Duration(ns)) }
	want := map[string]string{
		"pbox_created_total":                       fmt.Sprint(n[core.KindCreate]),
		"pbox_released_total":                      fmt.Sprint(n[core.KindRelease]),
		"pbox_live":                                fmt.Sprint(n[core.KindCreate] - n[core.KindRelease]),
		"pbox_activities_total":                    fmt.Sprint(n[core.KindActivityEnd]),
		"pbox_activity_seconds_count":              fmt.Sprint(n[core.KindActivityEnd]),
		"pbox_activity_seconds_sum":                secs(tally.exec),
		"pbox_exec_nanoseconds_total":              fmt.Sprint(tally.exec),
		"pbox_activity_defer_seconds_count":        fmt.Sprint(tally.deferring),
		"pbox_activity_defer_seconds_sum":          secs(dur[core.KindActivityEnd]),
		"pbox_defer_nanoseconds_total":             fmt.Sprint(dur[core.KindActivityEnd]),
		"pbox_detections_total":                    fmt.Sprint(n[core.KindDetection]),
		"pbox_penalties_total":                     fmt.Sprint(n[core.KindAction]),
		"pbox_penalty_scheduled_nanoseconds_total": fmt.Sprint(dur[core.KindAction]),
		"pbox_penalty_served_seconds_count":        fmt.Sprint(n[core.KindServed]),
		"pbox_penalty_served_seconds_sum":          secs(dur[core.KindServed]),
		"pbox_penalty_served_nanoseconds_total":    fmt.Sprint(dur[core.KindServed]),
	}
	for ev := core.Prepare; ev <= core.Unhold; ev++ {
		want[fmt.Sprintf("pbox_events_total{event=%q}", ev.String())] = fmt.Sprint(tally.states[ev])
	}
	for series, v := range want {
		if got[series] != v {
			t.Errorf("%s = %q, the sink's records say %s", series, got[series], v)
		}
	}
	if want := 12*rounds.Load() + 4*episodes.Load(); n[core.KindState] != want {
		t.Errorf("%d state rows delivered, want %d", n[core.KindState], want)
	}
	if n[core.KindCreate] != 6 || n[core.KindRelease] != 3 || n[core.KindDetection] == 0 || n[core.KindAction] == 0 || n[core.KindServed] == 0 || tally.deferring == 0 {
		t.Errorf("the script left created %d, released %d, detections %d, actions %d, served %d, deferring activities %d; want 6, 3 and the rest nonzero",
			n[core.KindCreate], n[core.KindRelease], n[core.KindDetection], n[core.KindAction], n[core.KindServed], tally.deferring)
	}
}
