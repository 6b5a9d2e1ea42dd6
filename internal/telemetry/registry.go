// Package telemetry is the live observability subsystem of the pBox
// reproduction: a lightweight metrics registry (counters, gauges, and
// fixed-bucket latency histograms with atomic hot paths), a Collector that
// implements core.Observer to turn manager hook callbacks into metrics, and
// an HTTP exporter serving Prometheus-text /metrics, JSON /pboxes, and a
// long-polling /trace stream. The paper argues (Section 8) that the pBox
// event stream doubles as a diagnosis aid; this package makes that stream
// observable while a workload runs instead of via post-hoc trace dumps.
package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbox/internal/stats"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// labelString renders labels in Prometheus text form: {a="x",b="y"}.
// Labels are rendered in the order given; callers use a consistent order.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// metricKind is the Prometheus metric type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one exported time series within a family.
type series interface {
	write(w io.Writer, name, labels string)
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // label strings in registration order
	series map[string]series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Metric lookups take the registry lock once at
// registration; the returned handles update via atomics only.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the series for (name, labels), enforcing one kind
// per family. make constructs the series on first use.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, mk func() series) series {
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v and %v", name, f.kind, kind))
	}
	s := f.series[ls]
	if s == nil {
		s = mk()
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	return s
}

// Counter returns the monotonically increasing counter for (name, labels),
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, labels, func() series { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, labels, func() series { return &Gauge{} }).(*Gauge)
}

// Histogram returns the fixed-bucket duration histogram for (name, labels),
// creating it with the given bucket upper bounds on first use (nil selects
// DefaultBuckets). Bounds must be ascending.
func (r *Registry) Histogram(name, help string, buckets []time.Duration, labels ...Label) *Histogram {
	return r.lookup(name, help, kindHistogram, labels, func() series { return newHistogram(buckets, 1) }).(*Histogram)
}

// stripes is the number of cache lines a striped handle spreads its writes
// over by pBox id, like the manager's crossings, so tenants meet on no line;
// at a line or more per stripe a handle, only the collector's hottest are.
const stripes = 8

// stripedCounter is Counter for a handle written through AddStriped, counting
// stripe s in cells[s*stripes]: up to eight counters share a 64-word block,
// and so one line per stripe.
func (r *Registry) stripedCounter(cells []atomic.Int64, name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, labels, func() series { return &Counter{cells: cells} }).(*Counter)
}

// stripedHistogram is Histogram, with DefaultBuckets, for a handle written
// through ObserveStriped.
func (r *Registry) stripedHistogram(name, help string) *Histogram {
	return r.lookup(name, help, kindHistogram, nil, func() series { return newHistogram(nil, stripes) }).(*Histogram)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (families in registration order, series in registration
// order within a family).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, ls := range f.order {
			f.series[ls].write(w, f.name, ls)
		}
	}
}

// Counter is a monotonically increasing counter with an atomic hot path. A
// striped one (cells non-nil) takes AddStriped's writes on a line per stripe.
type Counter struct {
	v     atomic.Int64
	cells []atomic.Int64
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// AddStriped is Add on the stripe of id (a pBox id): writers on different
// stripes share no line. On a counter registered unstriped it is Add.
func (c *Counter) AddStriped(id int, d int64) {
	if c.cells == nil {
		c.v.Add(d)
		return
	}
	c.cells[(id&(stripes-1))*stripes].Add(d)
}

// Value returns the current count: the sum over the stripes.
func (c *Counter) Value() int64 {
	v := c.v.Load()
	for i := 0; i < len(c.cells); i += stripes {
		v += c.cells[i].Load()
	}
	return v
}

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.Value())
}

// Gauge is a value that can go up and down, with an atomic hot path.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc and Dec move the gauge by ±1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, g.v.Load())
}

// Histogram is a fixed-bucket latency histogram. Observe is lock-free: it
// finds the bucket with a short linear scan (bucket counts are small and
// fixed) and updates two atomics. Exposition follows the Prometheus
// convention: cumulative _bucket{le="..."} series in seconds, plus _sum and
// _count.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds; +Inf is implicit
	// cells holds a row per stripe, padded to whole cache lines: the sum in ns
	// (beside the low buckets, where most samples land), a count per bound,
	// the +Inf overflow.
	cells  []atomic.Int64
	stride int // cells per row
	mask   int // stripes - 1
}

func newHistogram(bounds []time.Duration, rows int) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be ascending")
		}
	}
	stride := (len(bounds) + 2 + 7) &^ 7
	return &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		cells:  make([]atomic.Int64, rows*stride),
		stride: stride,
		mask:   rows - 1,
	}
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) { h.ObserveStriped(0, d) }

// ObserveStriped is Observe on the stripe of id (a pBox id): writers on
// different stripes share no line. On an unstriped histogram it is Observe.
func (h *Histogram) ObserveStriped(id int, d time.Duration) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	row := h.cells[(id&h.mask)*h.stride:]
	row[0].Add(int64(d))
	row[1+i].Add(1)
}

// sum totals the k cells from cell i of a row over the stripes.
func (h *Histogram) sum(i, k int) (n int64) {
	for r := i; r < len(h.cells); r += h.stride {
		for c := r; c < r+k; c++ {
			n += h.cells[c].Load()
		}
	}
	return n
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.sum(1, len(h.bounds)+1) }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum(0, 1)) }

func (h *Histogram) write(w io.Writer, name, labels string) {
	// Merge the le label into any existing label set.
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.sum(1+i, 1)
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, open, formatSeconds(b), cum)
	}
	cum += h.sum(1+len(h.bounds), 1)
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatSeconds(h.Sum()))
	// _count is the +Inf bucket itself: loaded apart, an Observe between the
	// two loads would leave it below the bucket, an inconsistent histogram.
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}

// formatSeconds renders a duration as a seconds value without trailing
// zeros, the customary Prometheus form.
func formatSeconds(d time.Duration) string {
	s := fmt.Sprintf("%g", d.Seconds())
	return s
}

// DefaultBuckets returns the latency bucket bounds shared with the stats
// package, spanning the reproduction's µs-to-second operating range.
func DefaultBuckets() []time.Duration {
	return stats.DefaultLatencyBuckets()
}
