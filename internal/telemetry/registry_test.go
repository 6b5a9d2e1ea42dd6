package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pbox/internal/core"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) returns the same handle.
	if reg.Counter("reqs_total", "requests") != c {
		t.Fatal("Counter lookup did not return the existing series")
	}
	g := reg.Gauge("live", "live things")
	g.Set(10)
	g.Dec()
	g.Add(-2)
	g.Inc()
	if got := g.Value(); got != 8 {
		t.Fatalf("gauge = %d, want 8", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("ev_total", "events", Label{"event", "ENTER"})
	b := reg.Counter("ev_total", "events", Label{"event", "HOLD"})
	if a == b {
		t.Fatal("different label values must give different series")
	}
	a.Add(3)
	b.Add(7)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`ev_total{event="ENTER"} 3`,
		`ev_total{event="HOLD"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE ev_total counter") != 1 {
		t.Fatalf("family header should appear exactly once:\n%s", out)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency",
		[]time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket le=0.001
	h.Observe(time.Millisecond)       // le is inclusive: still le=0.001
	h.Observe(5 * time.Millisecond)   // le=0.01
	h.Observe(time.Second)            // +Inf overflow
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if want := 1006500 * time.Microsecond; h.Sum() != want {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.001"} 2`,
		`lat_seconds_bucket{le="0.01"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramLabelsMergeWithLe(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("op_seconds", "op latency", nil, Label{"op", "get"})
	h.Observe(time.Microsecond)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, `op_seconds_bucket{op="get",le="1e-05"} 1`) {
		t.Fatalf("labeled bucket line wrong:\n%s", out)
	}
	if !strings.Contains(out, `op_seconds_count{op="get"} 1`) {
		t.Fatalf("labeled count line wrong:\n%s", out)
	}
}

// TestPrometheusTextWellFormed line-scans the full output: every non-comment
// line must be "name{labels} value" with balanced quotes, every family must
// have HELP and TYPE headers, and histogram buckets must be cumulative.
func TestPrometheusTextWellFormed(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "a").Add(2)
	reg.Gauge("b", "b gauge", Label{"x", "1"}).Set(-3)
	h := reg.Histogram("c_seconds", "c latency", nil)
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * 37 * time.Microsecond)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)

	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	var prevBucket int64 = -1
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		// name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %q has no value", line)
		}
		id, val := line[:sp], line[sp+1:]
		if _, err := parseNumber(val); err != nil {
			t.Fatalf("line %q: bad value %q: %v", line, val, err)
		}
		if i := strings.IndexByte(id, '{'); i >= 0 {
			if !strings.HasSuffix(id, "}") {
				t.Fatalf("line %q: unbalanced label braces", line)
			}
			if strings.Count(id, `"`)%2 != 0 {
				t.Fatalf("line %q: unbalanced quotes", line)
			}
		}
		if strings.HasPrefix(id, "c_seconds_bucket") {
			n, _ := parseNumber(val)
			if int64(n) < prevBucket {
				t.Fatalf("bucket counts not cumulative: %d after %d", int64(n), prevBucket)
			}
			prevBucket = int64(n)
		}
	}
	if prevBucket != 100 {
		t.Fatalf("+Inf bucket = %d, want 100", prevBucket)
	}
}

func parseNumber(s string) (float64, error) {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	return f, err
}

func TestRegistryConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n_total", "n")
	h := reg.Histogram("d_seconds", "d", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
				// Concurrent renders must not race with updates.
				if i%250 == 0 {
					reg.WritePrometheus(&bytes.Buffer{})
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

// TestCollectorStripesSumExactly drives the collector's striped handles from
// goroutines × pBoxes at once while renders run beside them: every render
// shows each histogram's _count equal to its +Inf bucket, and once the
// callbacks stop, the totals are exactly what was added across the stripes.
func TestCollectorStripesSumExactly(t *testing.T) {
	const goroutines, pboxes, rounds = 4, 12, 300
	reg := NewRegistry()
	c := NewCollector(reg)
	hists := []string{"pbox_activity_seconds", "pbox_activity_defer_seconds"}
	scrape := func() map[string]string {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		out := map[string]string{}
		for _, line := range strings.Split(buf.String(), "\n") {
			if sp := strings.LastIndexByte(line, ' '); sp > 0 && line[0] != '#' {
				out[line[:sp]] = line[sp+1:]
			}
		}
		return out
	}
	stop, rendered := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rendered)
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := scrape()
			for _, h := range hists {
				if inf, n := got[h+`_bucket{le="+Inf"}`], got[h+"_count"]; inf != n {
					t.Errorf("%s: _count %s, +Inf bucket %s", h, n, inf)
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				for p := range pboxes {
					id := g*pboxes + p + 1
					for _, ev := range []core.EventType{core.Prepare, core.Enter, core.Hold, core.Unhold} {
						c.StateEventAt(id, core.ResourceKey(id), ev, 0)
					}
					c.ActivityEnd(id, int64(id), int64(id)*1000)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-rendered
	const activities = goroutines * pboxes * rounds
	ids := goroutines * pboxes
	deferNs := int64(rounds * ids * (ids + 1) / 2)
	want := map[string]string{
		"pbox_activities_total":                         fmt.Sprint(activities),
		"pbox_defer_nanoseconds_total":                  fmt.Sprint(deferNs),
		"pbox_exec_nanoseconds_total":                   fmt.Sprint(deferNs * 1000),
		"pbox_activity_seconds_count":                   fmt.Sprint(activities),
		"pbox_activity_seconds_sum":                     formatSeconds(time.Duration(deferNs * 1000)),
		"pbox_activity_defer_seconds_count":             fmt.Sprint(activities),
		"pbox_activity_defer_seconds_sum":               formatSeconds(time.Duration(deferNs)),
		`pbox_activity_defer_seconds_bucket{le="+Inf"}`: fmt.Sprint(activities),
	}
	for _, ev := range []core.EventType{core.Prepare, core.Enter, core.Hold, core.Unhold} {
		want[`pbox_events_total{event="`+ev.String()+`"}`] = fmt.Sprint(activities)
	}
	got := scrape()
	for series, v := range want {
		if got[series] != v {
			t.Errorf("%s = %q, want %s", series, got[series], v)
		}
	}
}
