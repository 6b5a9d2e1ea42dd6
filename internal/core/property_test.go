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

// TestPropManagerSurvivesRandomMultiPBoxTraffic: random event sequences
// across several pBoxes leave the manager consistent (no panics, bookkeeping
// empty after release).
func TestPropManagerSurvivesRandomMultiPBoxTraffic(t *testing.T) {
	f := func(ops []uint16) bool {
		h := newHarness(t)
		pboxes := make([]*PBox, 4)
		for i := range pboxes {
			pboxes[i] = h.pbox(0.5)
			h.m.Activate(pboxes[i])
		}
		keys := []ResourceKey{10, 20}
		for _, op := range ops {
			p := pboxes[int(op)%len(pboxes)]
			key := keys[int(op/4)%len(keys)]
			switch (op / 8) % 6 {
			case 0:
				h.m.Update(p, key, Prepare)
			case 1:
				h.m.Update(p, key, Enter)
			case 2:
				h.m.Update(p, key, Hold)
			case 3:
				h.m.Update(p, key, Unhold)
			case 4:
				h.m.Freeze(p)
			case 5:
				h.m.Activate(p)
			}
			h.advance(time.Duration(op%11) * time.Microsecond)
		}
		for _, p := range pboxes {
			if err := h.m.Release(p); err != nil {
				return false
			}
		}
		for _, key := range keys {
			if c := contention(h.m, key); c.Waiters != 0 || c.Holders != 0 {
				return false
			}
		}
		return len(h.m.Status().Snapshots) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
