package main

import (
	"math"
	"sort"
)

// Estimators. Every end-to-end value of an event workload is the median over
// the run's windows of the per-window value, so one stalled window (a GC
// cycle, a descheduled generator) cannot move it; the windows' quartiles
// travel with the value as its own noise estimate.

// quartiles returns the first quartile, median and third quartile of vals
// the way Python's statistics.quantiles(vals, n=4) does (exclusive method),
// which is what the driver applies to the values of repeated runs. One value
// is its own quartiles; no values yield NaN.
func quartiles(vals []float64) (q1, med, q3 float64) {
	n := len(vals)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// 1-based position k·(n+1)/4 between s[j-1] and s[j]; j is clamped
		// into 1..n-1 before the offset is taken, so the ends extrapolate
		// exactly as the Python routine does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// iqrShare is the inter-quartile range as a share of the median.
func iqrShare(vals []float64) float64 {
	q1, med, q3 := quartiles(vals)
	if med == 0 || math.IsNaN(med) {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// ascending sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder are the tail percentiles a timing may be reported at: p95 at
// full length, lower rungs only when a smoke run's windows hold too few
// samples. (Not p99: on the contended workloads the last hundredth is lock
// parking, which moves twice as far as everything else when the host slows,
// and no bound within the contract's 0.25 holds it.)
var tailLadder = []float64{95, 90, 75}

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile (choosing-metrics, section 1).
const minBeyond = 10

// tailPercentile returns the highest percentile of the ladder that still has
// at least minBeyond samples beyond it in a sample of n; with too few samples
// for any rung it returns 50 (the median is all that can be said).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// Nearest rank: the percentile is the rank-th smallest sample.
		if rank := int(math.Ceil(p / 100 * float64(n))); n-rank >= minBeyond {
			return p
		}
	}
	return 50
}

// geomean is the geometric mean; any non-positive or non-finite input makes
// it NaN, so a case that recorded nothing cannot hide in an average.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vals {
		if !(v > 0) || math.IsInf(v, 0) {
			return math.NaN()
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

func meanInt(vals []int64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	return sum / float64(len(vals))
}

// estimate is one metric's value with its noise: the quartiles of the
// windows (or case runs) it is the median of.
type estimate struct {
	Value   float64 `json:"value"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Windows int     `json:"windows"`
}

func estimateOf(perWindow []float64) estimate {
	q1, med, q3 := quartiles(perWindow)
	return estimate{Value: med, Q1: q1, Q3: q3, Windows: len(perWindow)}
}

// windowClock cuts a run into a discarded warm-up followed by n equal
// measured windows on the exec.Now clock.
type windowClock struct {
	start  int64 // first measured nanosecond (after the warm-up)
	winLen int64
	n      int
}

// index returns -1 during the warm-up, the window index while measuring and
// n once the run is over.
func (c *windowClock) index(t int64) int {
	if t < c.start {
		return -1
	}
	k := int((t - c.start) / c.winLen)
	if k > c.n {
		k = c.n
	}
	return k
}

// latenessTolerance is the share by which a generator's window may be
// shorter or longer than nominal before the window is dropped and counted.
const latenessTolerance = 0.05

// genWindows is one closed-loop generator's per-window record. Only the
// owning generator touches it while the run is on.
type genWindows struct {
	clk   *windowClock
	cur   int
	cross []int64   // cross[k] = first timestamp the generator saw in window k (k = n: past the end)
	units []int64   // work units completed per window
	lat   [][]int64 // latency samples (ns) per window
}

func newGenWindows(clk *windowClock, sampleHint int) *genWindows {
	g := &genWindows{
		clk:   clk,
		cur:   -1,
		cross: make([]int64, clk.n+1),
		units: make([]int64, clk.n),
		lat:   make([][]int64, clk.n),
	}
	for k := range g.lat {
		g.lat[k] = make([]int64, 0, sampleHint)
	}
	return g
}

// tick records that units of work and (when sample >= 0) one latency sample
// completed at time t. It returns false once the measured span is over.
func (g *genWindows) tick(t, units, sample int64) bool {
	k := g.clk.index(t)
	if k != g.cur {
		for j := g.cur + 1; j <= k; j++ {
			g.cross[j] = t
		}
		g.cur = k
	}
	if k < 0 {
		return true
	}
	if k >= g.clk.n {
		return false
	}
	g.units[k] += units
	if sample >= 0 {
		g.lat[k] = append(g.lat[k], sample)
	}
	return true
}

// late reports whether the generator's window k ran shorter or longer than
// nominal by more than the tolerance (the generator stalled across a
// boundary), and the window's actual length.
func (g *genWindows) late(k int) (bool, int64) {
	actual := g.cross[k+1] - g.cross[k]
	dev := math.Abs(float64(actual-g.clk.winLen)) / float64(g.clk.winLen)
	return dev > latenessTolerance, actual
}

// windowed folds the generators' windows into per-window rates and latency
// figures. rateGens contribute work units, latGens contribute latency
// samples (the two differ on contended_events, where only the bystander's
// activities are timed). Windows in which any generator ran late are dropped.
type windowed struct {
	rate, mean, tail []float64 // one entry per kept window (latencies in ns)
	p50, p99         []float64 // likewise; reported for information, not gated
	tailPct          float64   // the percentile tail holds
	samples          int       // latency samples over the kept windows
	fewest           int       // latency samples in the kept window that has fewest
	meanAll          float64   // mean of all those samples (ns)
	dropped          int
}

func foldWindows(clk *windowClock, rateGens, latGens []*genWindows) windowed {
	var w windowed
	keep := make([]bool, clk.n)
	minSamples := math.MaxInt
	for k := 0; k < clk.n; k++ {
		keep[k] = true
		for _, g := range rateGens {
			if isLate, _ := g.late(k); isLate {
				keep[k] = false
			}
		}
		if !keep[k] {
			w.dropped++
			continue
		}
		n := 0
		for _, g := range latGens {
			n += len(g.lat[k])
		}
		if n < minSamples {
			minSamples = n
		}
	}
	if minSamples == math.MaxInt {
		return w
	}
	w.fewest, w.tailPct = minSamples, tailPercentile(minSamples)
	var merged []int64
	var sumAll float64
	for k := 0; k < clk.n; k++ {
		if !keep[k] {
			continue
		}
		var rate float64
		for _, g := range rateGens {
			_, actual := g.late(k)
			rate += float64(g.units[k]) / (float64(actual) / 1e9)
		}
		merged = merged[:0]
		for _, g := range latGens {
			merged = append(merged, g.lat[k]...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		w.samples += len(merged)
		for _, v := range merged {
			sumAll += float64(v)
		}
		w.rate = append(w.rate, rate)
		w.mean = append(w.mean, meanInt(merged))
		w.tail = append(w.tail, float64(percentile(merged, w.tailPct)))
		w.p50 = append(w.p50, float64(percentile(merged, 50)))
		w.p99 = append(w.p99, float64(percentile(merged, 99)))
	}
	w.meanAll = sumAll / float64(w.samples)
	return w
}

// histQuantile reads the q-quantile (0..1) from a fixed-bucket histogram
// with the given finite upper bounds (counts has one more entry, the
// overflow bucket), interpolating linearly inside the bucket.
func histQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := lo * 10
			if i < len(bounds) {
				hi = bounds[i]
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}
