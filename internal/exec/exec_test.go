package exec

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestNowMonotonic(t *testing.T) {
	a := Now()
	time.Sleep(time.Millisecond)
	b := Now()
	if b <= a {
		t.Fatalf("clock not monotonic: %d -> %d", a, b)
	}
}

// timed runs f and returns how long it took. A run shorter than lo fails the
// test: no primitive here may return early, ever. A run longer than hi is
// repeated, up to twenty times, and the shortest is returned: on a shared host a
// neighbour's time slice can land inside any one call, so an upper bound is
// held by the best of a few attempts, not by each.
func timed(t *testing.T, lo, hi time.Duration, f func()) time.Duration {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 20 && best > hi; i++ {
		t0 := time.Now()
		f()
		got := time.Since(t0)
		if got < lo {
			t.Fatalf("returned after %v, before the %v asked for", got, lo)
		}
		best = min(best, got)
	}
	return best
}

func TestWorkDuration(t *testing.T) {
	for _, d := range []time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		if got := timed(t, d, d*3+time.Millisecond, func() { Work(d) }); got > d*3+time.Millisecond {
			t.Fatalf("Work(%v) took %v", d, got)
		}
	}
	Work(0)  // must not hang
	Work(-1) // must not hang
}

func TestSleepPreciseAccuracy(t *testing.T) {
	// The whole point: sub-millisecond sleeps despite a ~1ms timer.
	for _, d := range []time.Duration{100 * time.Microsecond, 700 * time.Microsecond, 3 * time.Millisecond} {
		if got := timed(t, d, d+800*time.Microsecond, func() { SleepPrecise(d) }); got > d+800*time.Microsecond {
			t.Fatalf("SleepPrecise(%v) overslept: %v", d, got)
		}
	}
	SleepPrecise(0)
}

func TestConcurrentWorkOverlaps(t *testing.T) {
	// N concurrent Work(d) calls complete in ≈d wall time, not N×d — the
	// many-core testbed semantics documented in the package comment.
	const n = 4
	const d = 2 * time.Millisecond
	got := timed(t, d, n*d, func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				Work(d)
			}()
		}
		wg.Wait()
	})
	if got > n*d {
		t.Fatalf("concurrent work serialized: %v for %d×%v", got, n, d)
	}
}

func TestWorkChunkedYields(t *testing.T) {
	var offsets []time.Duration
	WorkChunked(500*time.Microsecond, 100*time.Microsecond, func(done time.Duration) {
		offsets = append(offsets, done)
	})
	if len(offsets) != 5 {
		t.Fatalf("yields = %d, want 5", len(offsets))
	}
	if offsets[len(offsets)-1] != 500*time.Microsecond {
		t.Fatalf("final offset = %v, want 500µs", offsets[len(offsets)-1])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] <= offsets[i-1] {
			t.Fatalf("offsets not increasing: %v", offsets)
		}
	}
	// Partial last chunk.
	offsets = nil
	WorkChunked(250*time.Microsecond, 100*time.Microsecond, func(done time.Duration) {
		offsets = append(offsets, done)
	})
	if len(offsets) != 3 || offsets[2] != 250*time.Microsecond {
		t.Fatalf("partial chunking offsets = %v", offsets)
	}
	WorkChunked(0, 100, nil) // no-ops must not hang
}

func TestSpinCondition(t *testing.T) {
	n := 0
	ok := Spin(func() bool { n++; return n >= 3 }, 10*time.Microsecond, time.Second)
	if !ok || n < 3 {
		t.Fatalf("spin ok=%v n=%d", ok, n)
	}
	ok = Spin(func() bool { return false }, 10*time.Microsecond, 2*time.Millisecond)
	if ok {
		t.Fatal("spin reported success on timeout")
	}
}

// nowBracketed reads Now between two runtime-clock reads.
func nowBracketed() (lo, now, hi int64) {
	lo = runtimeNow()
	now = Now()
	return lo, now, runtimeNow()
}

// TestNowTracksRuntimeClock: whichever source the host selects, Now continues
// the runtime clock and runs at its rate to within 1 000 ppm over 100 ms.
func TestNowTracksRuntimeClock(t *testing.T) {
	t.Logf("time-stamp counter selected: %v", tsc.mult != 0)
	const ppm = 1e-3
	lo1, n1, hi1 := nowBracketed()
	time.Sleep(100 * time.Millisecond)
	lo2, n2, hi2 := nowBracketed()
	if d := float64(n2 - n1); d < float64(lo2-hi1)*(1-ppm) || d > float64(hi2-lo1)*(1+ppm) {
		t.Fatalf("Now moved %v while the runtime clock moved %v to %v", time.Duration(d), time.Duration(lo2-hi1), time.Duration(hi2-lo1))
	}
	if float64(n2) < float64(lo2)*(1-ppm) || float64(n2) > float64(hi2)*(1+ppm) {
		t.Fatalf("Now = %d, the runtime clock read %d and %d around it", n2, lo2, hi2)
	}
}

// TestNowNeverDecreases: back-to-back reads on one goroutine.
func TestNowNeverDecreases(t *testing.T) {
	prev := Now()
	for i := 0; i < 200_000; i++ {
		now := Now()
		if now < prev {
			t.Fatalf("read %d went back: %d -> %d", i, prev, now)
		}
		prev = now
	}
}

// TestNowFallback: with no counter clock, Now is the runtime clock itself.
func TestNowFallback(t *testing.T) {
	defer func(c tscClock) { tsc = c }(tsc)
	tsc = tscClock{}
	for i := 0; i < 1000; i++ {
		if lo, now, hi := nowBracketed(); now < lo || now > hi {
			t.Fatalf("Now = %d outside the runtime clock's %d..%d", now, lo, hi)
		}
	}
}

// TestTSCScaleExact holds the tick-to-nanosecond math to exact answers on
// synthetic ticks, so it is tested on hosts that read the runtime clock too.
func TestTSCScaleExact(t *testing.T) {
	// A 2 GHz counter: half a nanosecond per tick is 2³¹ in units of 2⁻³².
	c := newTSCClock(1000, 7, 1000+2_000_000_000, 7+1_000_000_000)
	if c.mult != 1<<31 || c.tick0 != 1000+2_000_000_000 || c.ns0 != 7+1_000_000_000 {
		t.Fatalf("2 GHz clock = %+v", c)
	}
	for _, tc := range []struct {
		ticks uint64
		want  int64
	}{
		{c.tick0, c.ns0},                 // the anchor continues the runtime clock
		{c.tick0 + 3, c.ns0 + 1},         // truncated, not rounded
		{c.tick0 + 1<<40, c.ns0 + 1<<39}, // ticks·mult is 2⁷¹: 128 bits needed
		{c.tick0 - 50, c.ns0},            // behind the anchor: the anchor
	} {
		if got := c.ns(tc.ticks); got != tc.want {
			t.Errorf("ns(tick0%+d) = %d, want %d", int64(tc.ticks-c.tick0), got, tc.want)
		}
	}
	// Any rate: ns0 + ⌊d·mult / 2³²⌋, exactly.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		c := tscClock{tick0: rng.Uint64(), ns0: rng.Int63n(1 << 40), mult: rng.Uint64() >> 28}
		d := rng.Uint64() >> (7 + rng.Intn(40)) // up to 2⁵⁷ ticks of up to 16 ns
		want := new(big.Int).Mul(new(big.Int).SetUint64(d), new(big.Int).SetUint64(c.mult))
		want.Rsh(want, 32).Add(want, big.NewInt(c.ns0))
		if got := c.ns(c.tick0 + d); !want.IsInt64() || got != want.Int64() {
			t.Fatalf("clock %+v: ns(tick0+%d) = %d, want %v", c, d, got, want)
		}
	}
	// Samples that cannot give a rate give no clock.
	for _, s := range [][4]int64{{5, 0, 5, 10}, {5, 0, 4, 10}, {0, 10, 100, 10}, {0, 0, 1, 1 << 32}} {
		if c := newTSCClock(uint64(s[0]), s[1], uint64(s[2]), s[3]); c.mult != 0 {
			t.Errorf("newTSCClock%v = %+v, want the zero clock", s, c)
		}
	}
}
