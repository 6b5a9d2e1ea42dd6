package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests and benchmarks of Worker.UpdateRunAt, the run form of UpdateAt that
// wire.Server feeds a frame's events through (spool.go).

// runVia feeds run to w stamped at: through UpdateRunAt, or one UpdateAt per
// event at the run's one stamp — the contract UpdateRunAt must keep.
type runVia func(w *Worker, run []KeyEvent, at int64)

func viaRun(w *Worker, run []KeyEvent, at int64) { w.UpdateRunAt(run, at) }

func viaEvents(w *Worker, run []KeyEvent, at int64) {
	at = w.mgr.clock(at)
	for _, e := range run {
		w.UpdateAt(e.Key, e.Ev, at)
	}
}

// cycles is PREPARE, ENTER, HOLD, UNHOLD on each of n keys from base: the
// shape of an uninterfered activity.
func cycles(base ResourceKey, n int) []KeyEvent {
	run := make([]KeyEvent, 0, 4*n)
	for k := base; k < base+ResourceKey(n); k++ {
		for ev := Prepare; ev <= Unhold; ev++ {
			run = append(run, KeyEvent{Key: k, Ev: ev})
		}
	}
	return run
}

// evs builds a run from key, event pairs.
func evs(pairs ...any) []KeyEvent {
	run := make([]KeyEvent, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		run = append(run, KeyEvent{Key: ResourceKey(pairs[i].(int)), Ev: pairs[i+1].(EventType)})
	}
	return run
}

// runCounts is what TestUpdateRunAtMatchesUpdateAt compares of SelfStats.
type runCounts struct {
	claims, revocations, overflows, flushes, flushed, crossings int64
	states                                                      [eventKinds]int64
}

func countsOf(st SelfStats) runCounts {
	return runCounts{st.ContentionClaims, st.ContentionRevocations, st.SpoolOverflows,
		st.SpoolFlushes, st.SpoolFlushedEvents, st.Crossings, st.StateEvents}
}

// bound returns a Worker BindDirect'ed to p.
func bound(h *harness, p *PBox) *Worker {
	h.t.Helper()
	w := h.m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		h.t.Fatal(err)
	}
	return w
}

// TestUpdateRunAtMatchesUpdateAt feeds each script's runs once through
// UpdateRunAt and once one UpdateAt per event, on fresh managers with a fake
// clock, and requires the same record stream and the same counts: slot claims,
// revocations, overflows, flushes, flushed events, crossings, state rows. Each
// script names the condition it puts in the middle of a run, and fails if the
// counts show it did not happen.
func TestUpdateRunAtMatchesUpdateAt(t *testing.T) {
	scripts := []struct {
		name      string
		opts      func(*Options)
		script    func(h *harness, feed runVia)
		exercised func(c runCounts) bool
	}{
		{
			name: "the spool fills mid-run",
			script: func(h *harness, feed runVia) {
				p, q := h.pbox(0.5), h.pbox(0.5)
				w := bound(h, p)
				h.m.Activate(p)
				feed(w, cycles(0x100, 150), h.now) // 600 events: two fills mid-run
				h.advance(time.Millisecond)
				feed(w, evs(0x300, Hold, 0x301, Hold, 0x300, Unhold), h.now)
				small := smallWorker(h.m, 5)
				if err := small.BindDirect(q); err != nil {
					h.t.Fatal(err)
				}
				h.m.Activate(q)
				feed(small, cycles(0x400, 6), h.now) // fills at 5, 10, 15, 20
				feed(small, cycles(0x500, 1), h.now) // fills as the run ends
				h.advance(time.Millisecond)
				feed(w, evs(0x301, Unhold), h.now)
				h.m.Freeze(p)
				h.m.Freeze(q)
			},
			exercised: func(c runCounts) bool { return c.overflows >= 6 },
		},
		{
			name: "a slot is made contended mid-run by a second pBox",
			script: func(h *harness, feed runVia) {
				victim, culprit := h.pbox(0.5), h.pbox(0.5)
				w, wc := bound(h, victim), bound(h, culprit)
				h.m.Activate(victim)
				h.m.Activate(culprit)
				const k, claimed = 0x700, 0x800
				feed(w, cycles(0x600, 2), h.now)
				h.m.Update(culprit, k, Hold) // k's slot goes contended
				wc.UpdateAt(claimed, Hold, h.now)
				feed(w, evs(0x600, Hold, k, Prepare, 0x601, Hold, claimed, Prepare, 0x601, Unhold), h.now)
				h.advance(5 * time.Millisecond)
				h.m.Update(culprit, k, Unhold) // the victim waited 5 ms: a verdict
				wc.UpdateAt(claimed, Unhold, h.now)
				feed(w, evs(k, Enter, claimed, Enter, 0x600, Unhold, 0x602, Hold, 0x602, Unhold), h.now)
				h.advance(time.Millisecond)
				h.m.Freeze(victim)
				h.m.Freeze(culprit)
			},
			exercised: func(c runCounts) bool { return c.revocations > 0 },
		},
		{
			name: "the hint is held by a second Worker",
			script: func(h *harness, feed runVia) {
				p := h.pbox(0.5)
				w1, w2 := bound(h, p), bound(h, p)
				h.m.Activate(p)
				feed(w2, evs(0x900, Hold), h.now)
				feed(w1, evs(0x901, Prepare, 0x901, Enter, 0x900, Unhold, 0x902, Hold), h.now)
				h.advance(time.Millisecond)
				feed(w2, cycles(0x903, 3), h.now)
				feed(w1, evs(0x902, Unhold), h.now)
				h.m.Freeze(p)
			},
			exercised: func(c runCounts) bool { return c.overflows >= 3 },
		},
		{
			name: "the pBox is frozen from another goroutine",
			script: func(h *harness, feed runVia) {
				p := h.pbox(0.5)
				w := bound(h, p)
				elsewhere := func(f func()) {
					var wg sync.WaitGroup
					wg.Add(1)
					go func() { defer wg.Done(); f() }()
					wg.Wait()
				}
				h.m.Activate(p)
				feed(w, append(cycles(0xa00, 2), evs(0xa10, Hold)...), h.now)
				h.advance(time.Millisecond)
				elsewhere(func() { h.m.Freeze(p) })
				feed(w, append(evs(0xa10, Unhold), cycles(0xa00, 3)...), h.now) // dropped
				elsewhere(func() { h.m.Activate(p) })
				feed(w, cycles(0xa02, 2), h.now)
				h.m.Freeze(p)
			},
			exercised: func(c runCounts) bool { return c.flushes >= 2 },
		},
		{
			// The clock ticks on every read, so a run stamped per event would
			// differ from one stamped at entry.
			name: "the call is unstamped",
			opts: func(o *Options) {
				now, ticks := o.Now, int64(0)
				o.Now = func() int64 { ticks += 1000; return now() + ticks }
			},
			script: func(h *harness, feed runVia) {
				p := h.pbox(0.5)
				w := bound(h, p)
				h.m.Activate(p)
				h.advance(time.Millisecond)
				feed(w, cycles(0xc00, 70), noStamp) // one fill
				h.advance(time.Millisecond)
				feed(w, evs(0xc00, Hold), noStamp)
				h.m.Freeze(p)
			},
			exercised: func(c runCounts) bool { return c.overflows == 1 },
		},
	}
	for _, s := range scripts {
		t.Run(s.name, func(t *testing.T) {
			var recs [2][]Record
			var counts [2]runCounts
			for i, feed := range []runVia{viaEvents, viaRun} {
				obs := newRecordingObserver()
				h := newHarness(t, func(o *Options) {
					o.Observer = obs
					if s.opts != nil {
						s.opts(o)
					}
				})
				h.now = 1_000_000
				s.script(h, feed)
				recs[i], counts[i] = obs.snapshot(), countsOf(h.m.SelfStats())
			}
			if i := firstDiff(recs[0], recs[1]); i < max(len(recs[0]), len(recs[1])) {
				t.Fatalf("record %d differs: per event %v, as runs %v (%d vs %d records)", i,
					append(recs[0], Record{})[i], append(recs[1], Record{})[i], len(recs[0]), len(recs[1]))
			}
			if counts[0] != counts[1] {
				t.Fatalf("counts differ: per event %+v, as runs %+v", counts[0], counts[1])
			}
			if !s.exercised(counts[1]) {
				t.Fatalf("the script did not exercise its condition: %+v", counts[1])
			}
		})
	}
}

// TestUpdateRunAtRacesFreeze: a feeder applies runs while another goroutine
// freezes its pBox. Whatever the interleaving, the rows delivered are the
// feeder's events in issue order up to some point, and none comes after the
// freeze row.
func TestUpdateRunAtRacesFreeze(t *testing.T) {
	for round := range 50 {
		obs := newRecordingObserver()
		m := NewManager(Options{Observer: obs, Sleep: func(time.Duration) {}})
		p, err := m.Create(DefaultRule())
		if err != nil {
			t.Fatal(err)
		}
		w := m.NewWorker()
		if err := w.BindDirect(p); err != nil {
			t.Fatal(err)
		}
		m.Activate(p)
		run := cycles(ResourceKey(0x100*(round+1)), 40)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				w.UpdateRunAt(run, int64(round))
			}
			w.Flush()
		}()
		m.Freeze(p)
		wg.Wait()
		i, frozen := 0, false
		for _, r := range obs.snapshot() {
			switch {
			case r.Kind == KindFreeze:
				frozen = true
			case r.Kind != KindState:
			case frozen:
				t.Fatalf("round %d: state row %v after the freeze row", round, r)
			case r.Key != run[i%len(run)].Key || r.Ev != run[i%len(run)].Ev:
				t.Fatalf("round %d: state row %d is %v, want %v", round, i, r, run[i%len(run)])
			default:
				i++
			}
		}
	}
}

// BenchmarkUpdateRunAt is the spooled hot path fed as runs: a 16-event
// activity's worth of events on four private keys per call, across spool fills
// and flush replays. It reports ns/event and fails on any allocation.
func BenchmarkUpdateRunAt(b *testing.B) {
	m := benchManager()
	p := benchPBox(b, m)
	w := m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		b.Fatal(err)
	}
	run := cycles(0xbee0, 4)
	w.UpdateRunAt(run, 1)
	w.Flush()
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(1000, func() { w.UpdateRunAt(run, 1) }); allocs != 0 {
			b.Fatalf("UpdateRunAt allocates %.1f allocs per run; want 0", allocs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.UpdateRunAt(run, int64(i))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(run)), "ns/event")
}

// BenchmarkSweepBesideRuns is the adversary of the run's one spool-lock hold:
// a feeder applies 256-event runs to its pBox on a traced manager while the
// timed loop rebuilds the status view, whose sweep flushes every hinted spool
// and so waits on the feeder's spool lock — for an append of a whole run, or
// the replay of a full spool. feeder=events feeds the same events one UpdateAt
// at a time, for comparison. ns/op is one rebuild.
func BenchmarkSweepBesideRuns(b *testing.B) {
	for _, via := range []struct {
		name string
		feed runVia
	}{{"runs", viaRun}, {"events", viaEvents}} {
		b.Run(fmt.Sprintf("feeder=%s", via.name), func(b *testing.B) {
			m := NewManager(Options{TraceSize: 4096, Attribution: true, Sleep: func(time.Duration) {}})
			p := benchPBox(b, m)
			w := m.NewWorker()
			if err := w.BindDirect(p); err != nil {
				b.Fatal(err)
			}
			run := cycles(0x4000, spoolCapacity/4)
			var stop atomic.Bool
			var fed atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := int64(1); !stop.Load(); i++ {
					via.feed(w, run, i)
					fed.Add(1)
				}
				w.Flush()
			}()
			for fed.Load() < 4 {
				time.Sleep(time.Millisecond)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RefreshStatusView()
			}
			b.StopTimer()
			stop.Store(true)
			<-done
		})
	}
}

// BenchmarkTraceRingTenants is the adversary of the trace ring's shared
// words: g writers on stripes 1 and 2 of one ring, each doing b.N ops of one
// Activate row and one 16-state Freeze run, the rows of an uninterfered
// traced activity. ns/op is per writer, so a ring whose stripes share nothing
// a write touches reads the same at g=2 as at g=1. It fails on any
// allocation once the stripes are full.
func BenchmarkTraceRingTenants(b *testing.B) {
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			r := newTraceRing(4096, func() int64 { return 0 })
			run := make([]spoolRec, 16)
			op := func(id int, at int64) {
				r.Record(Record{Kind: KindActivate, PBox: id, At: at})
				r.recordRun(id, run, &freezeRows{at: at})
			}
			for id := 1; id <= g; id++ {
				for len(r.stripe(id).slots) < r.size {
					op(id, 0)
				}
			}
			if !raceEnabled {
				if allocs := testing.AllocsPerRun(100, func() { op(1, 0) }); allocs != 0 {
					b.Fatalf("a traced activity's ring writes allocate %.1f times; want 0", allocs)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for id := 1; id <= g; id++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						op(id, int64(i))
					}
				}()
			}
			wg.Wait()
		})
	}
}
