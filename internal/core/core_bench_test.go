package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Benchmarks for the manager's event hot path. Run with -cpu=1,4,N to see
// the scaling the sharded design exists for; the fastpath_events and
// contended_events workloads of benchmark/ carry the committed numbers.

// benchManager returns a manager configured for benchmarking: penalties are
// swallowed (a real sleep would measure the clock, not the manager) and
// everything else is at production defaults — observer nil, tracing off.
func benchManager() *Manager {
	return NewManager(Options{Sleep: func(time.Duration) {}})
}

// benchPBox creates and activates one pBox for a benchmark goroutine.
func benchPBox(b *testing.B, m *Manager) *PBox {
	p, err := m.Create(DefaultRule())
	if err != nil {
		b.Fatal(err)
	}
	m.Activate(p)
	return p
}

// BenchmarkManagerParallelUpdate drives the full PREPARE/ENTER/HOLD/UNHOLD
// cycle from every goroutine, each on its own pBox and resource — the
// general shape of many connections doing uncontended work.
func BenchmarkManagerParallelUpdate(b *testing.B) {
	m := benchManager()
	var ctr atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		key := ResourceKey(0x1000 + ctr.Add(1))
		p := benchPBox(b, m)
		for pb.Next() {
			m.Update(p, key, Prepare)
			m.Update(p, key, Enter)
			m.Update(p, key, Hold)
			m.Update(p, key, Unhold)
		}
	})
}

// BenchmarkManagerDisjointResources is the scaling benchmark: hold/unhold
// cycles on per-goroutine resources. With the old global manager mutex this
// was fully serialized; sharded, the goroutines share nothing but atomic
// counters and should scale with cores.
func BenchmarkManagerDisjointResources(b *testing.B) {
	m := benchManager()
	var ctr atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		key := ResourceKey(0x9000 + ctr.Add(1))
		p := benchPBox(b, m)
		for pb.Next() {
			m.Update(p, key, Hold)
			m.Update(p, key, Unhold)
		}
	})
}

// BenchmarkManagerDisjointFastpath is the disjoint scaling benchmark driven
// through per-goroutine Workers, so uncontended events take the Tier A spool
// (spool.go) instead of the per-event shard path — the headline case of the
// two-tier ingestion split.
func BenchmarkManagerDisjointFastpath(b *testing.B) {
	m := benchManager()
	var ctr atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		key := ResourceKey(0x9000 + ctr.Add(1))
		p := benchPBox(b, m)
		w := m.NewWorker()
		if err := w.BindDirect(p); err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			w.Update(key, Hold)
			w.Update(key, Unhold)
		}
		w.Flush()
	})
}

// BenchmarkManagerContendedResource hammers one resource from every
// goroutine — the worst case for striping (all traffic lands on one shard)
// and the floor the sharded design must not regress below.
func BenchmarkManagerContendedResource(b *testing.B) {
	m := benchManager()
	const key = ResourceKey(0x42)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := benchPBox(b, m)
		for pb.Next() {
			m.Update(p, key, Hold)
			m.Update(p, key, Unhold)
		}
	})
}

// BenchmarkUpdateHotPathAllocs gates the hot path at zero allocations: with
// the observer disabled, a steady-state hold/unhold cycle must not allocate
// at all — on the direct (Tier B) path and on the spooled (Tier A) path,
// whose assertion spans spool fills and flush replays. The assertions run
// before the timed loops so `go test -bench` fails loudly if any later
// change sneaks an allocation into the event path.
func BenchmarkUpdateHotPathAllocs(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		m := benchManager()
		p := benchPBox(b, m)
		const key = ResourceKey(0xbeef)
		// Warm the per-key structures (shard map entries, holder map) so the
		// measurement sees steady state, not first-touch setup.
		m.Update(p, key, Hold)
		m.Update(p, key, Unhold)
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(1000, func() {
				m.Update(p, key, Hold)
				m.Update(p, key, Unhold)
			}); allocs != 0 {
				b.Fatalf("Update hot path allocates %.1f allocs per hold/unhold cycle; want 0", allocs)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Update(p, key, Hold)
			m.Update(p, key, Unhold)
		}
	})
	b.Run("spooled", func(b *testing.B) {
		m := benchManager()
		p := benchPBox(b, m)
		w := m.NewWorker()
		if err := w.BindDirect(p); err != nil {
			b.Fatal(err)
		}
		const key = ResourceKey(0xbee5)
		w.Update(key, Hold)
		w.Update(key, Unhold)
		w.Flush()
		if !raceEnabled {
			// 1000 runs cross several spool-fill flushes, so the assertion
			// covers append, flush copy-out, and batch replay.
			if allocs := testing.AllocsPerRun(1000, func() {
				w.Update(key, Hold)
				w.Update(key, Unhold)
			}); allocs != 0 {
				b.Fatalf("spooled hot path allocates %.1f allocs per hold/unhold cycle; want 0", allocs)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Update(key, Hold)
			w.Update(key, Unhold)
		}
	})
}

// BenchmarkActivityCycle is the benchmark that crosses the activity boundary:
// every goroutine runs whole activities — Activate, the 16 events of four
// private keys through its Worker, Freeze — on its own pBox, b.N times, so
// ns/op is what one goroutine pays per activity and a boundary that scales
// reads the same at g=1 and g=GOMAXPROCS. (The event benchmarks above never
// leave an activity, which is how a manager-wide lock on Activate/Freeze went
// unseen by them.) It fails if any key left the fast path, and gates the
// cycle at zero allocations.
func BenchmarkActivityCycle(b *testing.B) {
	for _, g := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) { benchActivityCycle(b, benchManager(), g) })
	}
}

// BenchmarkActivityCycleObserved is the same cycle on a manager built with
// pboxd's options — trace ring, attribution, an observer behind the ring — the
// configuration every daemon runs: the replay owes each event a state row, in
// the ring and to the observer, and still collapses the pairs and allocates
// nothing. It fails if the observer did not see every event.
func BenchmarkActivityCycleObserved(b *testing.B) {
	for _, g := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			obs := &countingObserver{}
			m := NewManager(Options{Sleep: func(time.Duration) {}, TraceSize: 4096, Attribution: true, Observer: obs})
			benchActivityCycle(b, m, g)
			var states int64
			for i := range obs.states {
				states += obs.states[i].n.Load()
			}
			// Counted from the rows, not from b.N: the set-up and alloc-gate
			// cycles are in both. The ring numbers the rows it holds when
			// read, at most every row written: the state rows the manager
			// counted and three lifecycle rows per activity beside them.
			var counted int64
			for _, n := range m.SelfStats().StateEvents {
				counted += n
			}
			rows, seq := m.TraceView(0)
			if written := counted + counted/16*3 + int64(g); counted != states || len(rows) != int(min(seq, 4096)) || int64(seq) > written {
				b.Fatalf("the manager counted %d state rows, the observer %d; the ring numbered %d rows, %d held, of %d written",
					counted, states, seq, len(rows), written)
			}
		})
	}
}

// countingObserver counts state events per pBox, each count on a line of its
// own so that the tenants share nothing the manager does not make them share.
type countingObserver struct {
	nopObserver
	states [64]struct {
		n atomic.Int64
		_ cacheLinePad
	}
}

func (o *countingObserver) StateEventAt(id int, _ ResourceKey, _ EventType, _ int64) {
	o.states[id%len(o.states)].n.Add(1)
}

func benchActivityCycle(b *testing.B, m *Manager, g int) {
	type tenant struct {
		p    *PBox
		w    *Worker
		keys [4]ResourceKey
	}
	// Keys are drawn so that no two share a contention slot: an alias between
	// tenants would push both onto the slow path and measure that instead.
	taken := make(map[*atomic.Int64]bool)
	next := ResourceKey(0xac7)
	tenants := make([]*tenant, g)
	for i := range tenants {
		p, err := m.Create(DefaultRule())
		if err != nil {
			b.Fatal(err)
		}
		tn := &tenant{p: p, w: m.NewWorker()}
		if err := tn.w.BindDirect(p); err != nil {
			b.Fatal(err)
		}
		for k := range tn.keys {
			for taken[m.contentionSlot(next)] {
				next += 0x9e5
			}
			taken[m.contentionSlot(next)] = true
			tn.keys[k] = next
		}
		tenants[i] = tn
	}
	cycle := func(tn *tenant) {
		m.Activate(tn.p)
		for _, k := range tn.keys {
			tn.w.Update(k, Prepare)
			tn.w.Update(k, Enter)
			tn.w.Update(k, Hold)
			tn.w.Update(k, Unhold)
		}
		m.Freeze(tn.p)
	}
	for _, tn := range tenants {
		cycle(tn) // first-touch set-up: pBox maps, shard entries, slot claims
	}
	if !raceEnabled {
		// 100 cycles cross the history ring's growth to its fixed size.
		if allocs := testing.AllocsPerRun(100, func() { cycle(tenants[0]) }); allocs != 0 {
			b.Fatalf("an activity cycle allocates %.1f times; want 0", allocs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				cycle(tn)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/16, "ns/event")
	if st := m.SelfStats(); st.ContentionStickySlots != 0 {
		b.Fatalf("%d sticky contention slots: private keys fell onto the slow path", st.ContentionStickySlots)
	}
}
