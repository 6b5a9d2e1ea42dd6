package main

import (
	"math"
	"testing"

	"pbox/internal/core"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the routine the driver applies to repeated runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, m2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m2, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(m2, tc.m2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m2, q3, tc.q1, tc.m2, tc.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles of nothing = %v, want NaN", q1)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{50: 50, 95: 95, 99: 99, 99.9: 100, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%g = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

// TestTailPercentileTenBeyond: a tail percentile is only reported with at
// least ten samples beyond it.
func TestTailPercentileTenBeyond(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 39: 50, 40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 1 << 20: 95} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {1, math.Inf(1)}, {math.NaN()}} {
		if got := geomean(bad); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %v, want NaN", bad, got)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1000, 10000}
	// 10 samples in (0,1000], 10 in (1000,10000], none beyond.
	counts := []int64{10, 10, 0}
	if got := histQuantile(bounds, counts, 0.25); !near(got, 500) {
		t.Errorf("p25 = %v, want 500", got)
	}
	if got := histQuantile(bounds, counts, 0.75); !near(got, 5500) {
		t.Errorf("p75 = %v, want 5500", got)
	}
	if got := histQuantile(bounds, []int64{0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
}

// TestWindowFolding drives two synthetic generators through a window clock:
// per-window medians and quartiles, warm-up discarded, and a window in which
// a generator stalled dropped and counted.
func TestWindowFolding(t *testing.T) {
	clk := &windowClock{start: 1000, winLen: 100, n: 4}
	mk := func() *genWindows { return newGenWindows(clk, 8) }
	a, b := mk(), mk()
	// Generator a ticks every 10 ns with latency 10·(window+1); b likewise
	// but stalls from t=1250 to t=1400, so its windows 2 and 3 are late.
	for tns := int64(900); tns <= 1400; tns += 10 {
		k := clk.index(tns)
		lat := int64(10 * (k + 1))
		a.tick(tns, 2, lat)
		if tns <= 1250 || tns >= 1400 {
			b.tick(tns, 2, lat)
		}
	}
	if a.cross[0] != 1000 || a.cross[4] != 1400 {
		t.Fatalf("boundary crossings %v", a.cross)
	}
	w := foldWindows(clk, []*genWindows{a, b}, []*genWindows{a})
	if w.dropped != 2 || len(w.rate) != 2 {
		t.Fatalf("dropped %d kept %d, want 2 and 2", w.dropped, len(w.rate))
	}
	// 10 ticks × 2 units per generator per 100 ns window.
	for _, r := range w.rate {
		if !near(r, 2*20/100e-9) {
			t.Errorf("window rate %v", r)
		}
	}
	if w.p50[0] != 10 || w.p50[1] != 20 {
		t.Errorf("window medians %v, want 10 and 20", w.p50)
	}
	if w.samples != 20 || !near(w.meanAll, 15) {
		t.Errorf("samples %d mean %v", w.samples, w.meanAll)
	}
	e := estimateOf(w.p50)
	if e.Value != 15 || e.Windows != 2 || !near(e.Q3-e.Q1, 1.5*10) {
		t.Errorf("estimate %+v", e)
	}
	// Warm-up ticks are discarded and the tick past the end stops the run.
	if got := mk().tick(950, 1, 1); !got {
		t.Error("warm-up tick ended the run")
	}
	if got := mk().tick(1400, 1, 1); got {
		t.Error("tick past the last window did not end the run")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping counted once", []interval{{110, 150}, {130, 170}}, 40},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out of the parent", []interval{{50, 120}, {180, 300}}, 60},
		{"outside entirely", []interval{{10, 20}, {300, 400}}, 100},
		{"covering everything", []interval{{0, 1000}}, 0},
		{"unsorted input", []interval{{150, 170}, {110, 120}, {115, 155}}, 40},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := selfTime(interval{5, 5}, nil); got != 0 {
		t.Errorf("empty parent self time %d", got)
	}
}

func TestSelfTimesByName(t *testing.T) {
	tr := &tracer{}
	b := tr.buffer(16)
	// One request: root 0..100 with children 10..40 and 30..60 (overlapping).
	root := b.begin(3)
	b.child(spEncode, root, 10, 40)
	b.child(spFlush, root, 30, 60)
	b.end(spBatch, 0, 100)
	// A second request that does not fit is dropped whole.
	small := tr.buffer(2)
	if got := small.begin(3); got != 0 || small.dropped != 3 {
		t.Fatalf("oversized request: id %d dropped %d", got, small.dropped)
	}
	spans, dropped := tr.all()
	if len(spans) != 3 || dropped != 3 {
		t.Fatalf("%d spans, %d dropped", len(spans), dropped)
	}
	if spans[2].ID != root || spans[0].Parent != root {
		t.Fatalf("root id %d, spans %+v", root, spans)
	}
	lt := selfTimes(spans)
	if got := lt[spBatch]; got.Count != 1 || got.SelfNs != 50 || got.SpanNs != 100 {
		t.Errorf("root totals %+v, want self 50 of 100", got)
	}
	if got := lt[spEncode]; got.SelfNs != 30 || got.meanSelf() != 30 {
		t.Errorf("child totals %+v", got)
	}
}

// TestCaseSpansFromCallbacks rebuilds spans and episode stages from a
// hand-written callback stream.
func TestCaseSpansFromCallbacks(t *testing.T) {
	const victim, noisy = 1, 2
	evs := []rawEvent{
		{kind: evActivated, pbox: noisy, at: 0},
		{kind: evState, ev: core.Hold, pbox: noisy, key: 9, at: 10},
		{kind: evActivated, pbox: victim, at: 20},
		{kind: evState, ev: core.Prepare, pbox: victim, key: 9, at: 30},
		{kind: evState, ev: core.Unhold, pbox: noisy, key: 9, at: 100},
		{kind: evDetection, pbox: noisy, other: victim, key: 9, at: 101},
		{kind: evAction, pbox: noisy, other: victim, key: 9, at: 102, d: 50},
		{kind: evState, ev: core.Enter, pbox: victim, key: 9, at: 110},
		{kind: evSleep, at: 120, d: 50, spent: 53},
		{kind: evServed, pbox: noisy, at: 175, d: 50},
		{kind: evFrozen, pbox: noisy, at: 180},
		{kind: evFrozen, pbox: victim, at: 200},
	}
	var ep episodes
	spans := buildCaseSpans(evs, 0, &ep)
	lt := selfTimes(spans)
	if lt[spCaseActivity].Count != 2 || lt[spWait].SpanNs != 80 || lt[spHold].SpanNs != 90 || lt[spPenalty].SpanNs != 53 {
		t.Fatalf("span totals %+v", lt)
	}
	// The noisy activity 0..180 holds for 90 and sleeps 53: 37 of its own.
	// The victim activity 20..200 waits for 80: 100 of its own.
	if got := lt[spCaseActivity].SelfNs; got != 37+100 {
		t.Errorf("activity self time %d, want 137", got)
	}
	if len(ep.detectDelay) != 1 || ep.detectDelay[0] != 71 {
		t.Errorf("detect delay %v, want [71]", ep.detectDelay)
	}
	if len(ep.penaltyDelay) != 1 || ep.penaltyDelay[0] != 18 {
		t.Errorf("penalty delay %v, want [18]", ep.penaltyDelay)
	}
	if len(ep.overshoot) != 1 || ep.overshoot[0] != 3 || ep.servedNs != 50 {
		t.Errorf("overshoot %v served %d", ep.overshoot, ep.servedNs)
	}
}
