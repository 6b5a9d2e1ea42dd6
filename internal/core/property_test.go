package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

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

// TestPropArbitraryStampsAreSafe: the At forms take the caller's word for the
// time. Whatever two Workers claim — stamps that jump, repeat and run backwards,
// on shared and private keys, across activity boundaries — the manager never
// panics, never records a negative duration, and never acts against a pBox
// that held nothing.
func TestPropArbitraryStampsAreSafe(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops, stamps := make([]uint16, 400), make([]int64, 1+rng.Intn(16))
		for i := range ops {
			ops[i] = uint16(rng.Uint32())
		}
		for i := range stamps {
			stamps[i] = rng.Int63n(int64(time.Millisecond)) - int64(100*time.Microsecond)
		}
		h := newHarness(t, func(o *Options) { o.TraceSize = 1 << 14 })
		ps := [2]*PBox{h.pbox(0.1), h.pbox(0.5)}
		ws := [2]*Worker{h.m.NewWorker(), h.m.NewWorker()}
		held := map[int]bool{}
		at := func(i int) int64 { return stamps[(i+int(ops[i%len(ops)]>>9))%len(stamps)] }
		for i, p := range ps {
			ws[i].BindDirect(p)
			h.m.ActivateAt(p, at(i))
		}
		for i, op := range ops {
			w := int(op) & 1
			key := ResourceKey(1 + op>>1&3) // keys 1, 2 shared; 3, 4 private per worker
			if key > 2 {
				key += ResourceKey(2 * w)
			}
			switch ev := EventType(op >> 3 & 3); {
			case op>>5&15 == 0:
				h.m.FreezeAt(ps[w], at(i))
				h.m.ActivateAt(ps[w], at(i+1))
			case op>>5&15 == 1:
				ws[w].Flush()
			default:
				held[ps[w].id] = held[ps[w].id] || ev == Hold
				ws[w].UpdateAt(key, ev, at(i))
			}
		}
		for i, p := range ps {
			h.m.FreezeAt(p, at(len(ops)+i))
		}
		for _, e := range preciseTrace(h.m) {
			if e.Dur < 0 || e.Exec < 0 || e.Kind == KindAction && !held[e.PBox] {
				t.Logf("row %v", e.Record)
				return false
			}
		}
		for _, p := range ps {
			if s := p.snapshot(); s.TotalDefer < 0 || s.TotalExec < 0 || s.TotalDefer > s.TotalExec {
				t.Logf("books %+v", s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
