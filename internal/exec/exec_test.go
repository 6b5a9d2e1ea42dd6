package exec

import (
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
