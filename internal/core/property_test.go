package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// TestPropAverageRatioBounds: for any td ≤ te the ratio is non-negative and
// finite, and increases with td.
func TestPropAverageRatioBounds(t *testing.T) {
	f := func(a, b uint32) bool {
		td, te := int64(a), int64(b)
		if td > te {
			td, te = te, td
		}
		r := averageRatio(td, te)
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return false
		}
		// Monotonic in td (with te fixed), as long as we stay below te.
		if td > 0 && td < te {
			if averageRatio(td-1, te) > r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropClampPenalty: clamping always lands in [Min, Max].
func TestPropClampPenalty(t *testing.T) {
	h := newHarness(t)
	f := func(raw int64) bool {
		got := h.m.clampPenalty(float64(raw))
		return got >= float64(h.m.opts.MinPenalty) && got <= float64(h.m.opts.MaxPenalty)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropDeferNeverNegative: random interleavings of PREPARE/ENTER with a
// monotonic clock never yield negative defer time, and the competitor map
// never underflows.
func TestPropDeferNeverNegative(t *testing.T) {
	f := func(ops []uint8) bool {
		h := newHarness(t)
		p := h.pbox(0.5)
		h.m.Activate(p)
		keys := []ResourceKey{1, 2, 3}
		for _, op := range ops {
			key := keys[int(op)%len(keys)]
			switch (op / 4) % 4 {
			case 0:
				h.m.Update(p, key, Prepare)
			case 1:
				h.m.Update(p, key, Enter)
			case 2:
				h.m.Update(p, key, Hold)
			case 3:
				h.m.Update(p, key, Unhold)
			}
			h.advance(time.Duration(op%7) * time.Microsecond)
		}
		h.m.Freeze(p)
		snap := p.snapshot()
		if snap.TotalDefer < 0 || snap.TotalDefer > snap.TotalExec {
			return false
		}
		for _, key := range keys {
			if contention(h.m, key).Waiters != 0 {
				return false // freeze must clear stale waiters
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropConvergenceStepsWithinRange: convergence index is always within
// [0, len].
func TestPropConvergenceStepsWithinRange(t *testing.T) {
	f := func(raw []uint16) bool {
		lengths := make([]float64, len(raw))
		for i, v := range raw {
			lengths[i] = float64(v) + 1
		}
		got := convergenceSteps(lengths)
		if len(lengths) < 2 {
			return got == 0
		}
		return got >= 1 && got <= len(lengths)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
