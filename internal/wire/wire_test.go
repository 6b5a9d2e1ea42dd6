package wire

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbox/internal/core"
)

// startServer spins up a wire server on a loopback listener and returns its
// address plus a shutdown func.
func startServer(t *testing.T, mgr *core.Manager, cfg Config) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer(mgr, cfg)
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	return ln.Addr().String(), s, func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// waitFor polls cond for up to 2s — connection teardown on the server side
// is asynchronous past the TCP close.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWireRoundTrip(t *testing.T) {
	mgr := core.NewManager(core.Options{Sleep: func(time.Duration) {}})
	addr, s, stop := startServer(t, mgr, Config{})
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.Register(1, core.DefaultRule(), "tenant-a")
	c.Register(2, core.DefaultRule(), "tenant-b")
	c.Activate(1)
	c.Select(1)
	// Keys with huge jumps exercise the zigzag delta chain, including the
	// reset at the frame boundary forced by the ping below.
	keys := []core.ResourceKey{7, 1 << 40, 9, 1 << 32}
	for round := 0; round < 50; round++ {
		for _, k := range keys {
			c.Event(k, core.Hold)
			c.Event(k, core.Unhold)
		}
	}
	pong, err := c.Ping(99)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if want := int64(50 * len(keys) * 2); pong.Events != want {
		t.Fatalf("pong events = %d, want %d", pong.Events, want)
	}
	c.Freeze(1)
	c.Activate(2)
	c.Select(2)
	c.Event(keys[0], core.Hold)
	c.Event(keys[0], core.Unhold)
	c.Freeze(2)
	c.Hibernate(1)
	if _, err := c.Ping(100); err != nil {
		t.Fatalf("ping: %v", err)
	}

	if got := mgr.SelfStats().Hibernated; got != 1 {
		t.Fatalf("hibernated = %d, want 1", got)
	}
	snaps := mgr.Status().Snapshots
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	if snaps[0].Label != "tenant-a" || snaps[0].Activities != 1 || snaps[0].State != core.StateHibernated {
		t.Fatalf("tenant-a snapshot: %+v", snaps[0])
	}
	if snaps[1].Label != "tenant-b" || snaps[1].Activities != 1 {
		t.Fatalf("tenant-b snapshot: %+v", snaps[1])
	}
	st := s.Stats()
	if st.Registers != 2 || st.Pings != 2 || st.Events != int64(50*len(keys)*2+2) ||
		st.ShedConn != 0 || st.ShedGlobal != 0 || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.ConnsActive != 1 || st.ConnsTotal != 1 {
		t.Fatalf("conn stats: %+v", st)
	}

	// Closing the connection releases its tenants and drains its spool.
	c.Close()
	waitFor(t, "tenant release", func() bool { return len(mgr.Status().Snapshots) == 0 })
	waitFor(t, "conn gauge", func() bool { return s.Stats().ConnsActive == 0 })
}

func TestWireAdmissionShedding(t *testing.T) {
	// A frozen admission clock: buckets never refill, so exactly the burst
	// is admitted and everything after it sheds deterministically.
	frozen := func() int64 { return 0 }

	t.Run("per-conn", func(t *testing.T) {
		mgr := core.NewManager(core.Options{Sleep: func(time.Duration) {}})
		addr, s, stop := startServer(t, mgr, Config{PerConnRate: 1, PerConnBurst: 10, Now: frozen})
		defer stop()
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		c.Register(1, core.DefaultRule(), "")
		c.Activate(1)
		c.Select(1)
		for i := 0; i < 100; i++ {
			c.Event(core.ResourceKey(5), core.Hold)
		}
		pong, err := c.Ping(1)
		if err != nil {
			t.Fatalf("ping: %v", err)
		}
		if pong.Events != 10 || pong.ShedConn != 90 || pong.ShedGlobal != 0 {
			t.Fatalf("pong: %+v", pong)
		}
		if st := s.Stats(); st.ShedConn != 90 {
			t.Fatalf("stats: %+v", st)
		}
	})

	t.Run("global", func(t *testing.T) {
		mgr := core.NewManager(core.Options{Sleep: func(time.Duration) {}})
		addr, s, stop := startServer(t, mgr, Config{GlobalRate: 1, GlobalBurst: 20, Now: frozen})
		defer stop()
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		c.Register(1, core.DefaultRule(), "")
		c.Activate(1)
		c.Select(1)
		for i := 0; i < 100; i++ {
			c.Event(core.ResourceKey(5), core.Hold)
		}
		pong, err := c.Ping(1)
		if err != nil {
			t.Fatalf("ping: %v", err)
		}
		if pong.Events != 20 || pong.ShedGlobal != 80 || pong.ShedConn != 0 {
			t.Fatalf("pong: %+v", pong)
		}
		if st := s.Stats(); st.ShedGlobal != 80 {
			t.Fatalf("stats: %+v", st)
		}
	})
}

func TestWireProtocolErrors(t *testing.T) {
	mgr := core.NewManager(core.Options{Sleep: func(time.Duration) {}})
	addr, s, stop := startServer(t, mgr, Config{})
	defer stop()

	// Bad preamble.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	nc.Write([]byte("NOTPBOXW\x01"))
	waitFor(t, "preamble error", func() bool { return s.Stats().Errors >= 1 })
	nc.Close()

	// Unknown tenant tears the connection down.
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.Activate(42)
	c.Flush()
	waitFor(t, "unknown-tenant error", func() bool { return s.Stats().Errors >= 2 })
	c.Close()
	waitFor(t, "conn teardown", func() bool { return s.Stats().ConnsActive == 0 })
}

// wireObs records the full observer record stream for the differential
// test (the wire twin of core's recordingObserver).
type wireObs struct {
	core.RecordObserver
	mu     sync.Mutex
	events []core.Record
}

func newWireObs() *wireObs {
	r := &wireObs{}
	r.Sink = r
	return r
}

func (r *wireObs) Record(rec core.Record) {
	r.mu.Lock()
	r.events = append(r.events, rec)
	r.mu.Unlock()
}

func (r *wireObs) snapshot() []core.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]core.Record(nil), r.events...)
}

// feeder abstracts the two ingestion paths so one script drives both: the
// wire client against a server, and the equivalent direct Worker calls
// in-process. barrier() is the synchronization point after which the script
// advances the shared fake clock — on the wire side it is a ping round trip,
// which the protocol defines as a full ingestion barrier.
type feeder interface {
	register(id uint64, label string)
	activate(id uint64)
	freeze(id uint64)
	hibernate(id uint64)
	selectT(id uint64)
	event(key core.ResourceKey, ev core.EventType)
	release(id uint64)
	barrier()
}

type wireFeeder struct {
	t   *testing.T
	c   *Client
	seq uint64
}

func (f *wireFeeder) register(id uint64, label string) {
	f.c.Register(id, core.DefaultRule(), label)
}
func (f *wireFeeder) activate(id uint64)  { f.c.Activate(id) }
func (f *wireFeeder) freeze(id uint64)    { f.c.Freeze(id) }
func (f *wireFeeder) hibernate(id uint64) { f.c.Hibernate(id) }
func (f *wireFeeder) selectT(id uint64)   { f.c.Select(id) }
func (f *wireFeeder) event(key core.ResourceKey, ev core.EventType) {
	f.c.Event(key, ev)
}
func (f *wireFeeder) release(id uint64) { f.c.Release(id) }
func (f *wireFeeder) barrier() {
	f.seq++
	if _, err := f.c.Ping(f.seq); err != nil {
		f.t.Fatalf("barrier ping: %v", err)
	}
}

type inprocFeeder struct {
	t       *testing.T
	mgr     *core.Manager
	w       *core.Worker
	tenants map[uint64]*core.PBox
}

func (f *inprocFeeder) register(id uint64, label string) {
	p, err := f.mgr.Create(core.DefaultRule())
	if err != nil {
		f.t.Fatalf("Create: %v", err)
	}
	if label != "" {
		f.mgr.SetLabel(p, label)
	}
	f.tenants[id] = p
}
func (f *inprocFeeder) activate(id uint64)  { f.mgr.Activate(f.tenants[id]) }
func (f *inprocFeeder) freeze(id uint64)    { f.mgr.Freeze(f.tenants[id]) }
func (f *inprocFeeder) hibernate(id uint64) { _ = f.mgr.Hibernate(f.tenants[id]) }
func (f *inprocFeeder) selectT(id uint64) {
	if err := f.w.BindDirect(f.tenants[id]); err != nil {
		f.t.Fatalf("BindDirect: %v", err)
	}
}
func (f *inprocFeeder) event(key core.ResourceKey, ev core.EventType) {
	f.w.Update(key, ev)
}
func (f *inprocFeeder) release(id uint64) {
	f.mgr.Release(f.tenants[id])
	delete(f.tenants, id)
}
func (f *inprocFeeder) barrier() { f.w.Flush() }

// differentialScript is a contended two-tenant workload with lifecycle
// churn, hibernation, and cross-frame key-delta chains. The clock advances
// only at barriers, so both ingestion paths account every event at the same
// manager-clock timestamp.
func differentialScript(f feeder, advance func(time.Duration)) {
	f.register(1, "noisy")
	f.register(2, "victim")
	f.barrier()
	for round := 0; round < 30; round++ {
		key := core.ResourceKey(100 + round%5)
		f.activate(1)
		f.activate(2)
		f.selectT(1)
		f.event(key, core.Hold)
		f.selectT(2)
		f.event(key, core.Prepare)
		f.barrier()
		advance(5 * time.Millisecond)
		f.selectT(1)
		f.event(key, core.Unhold)
		f.selectT(2)
		f.event(key, core.Enter)
		f.barrier()
		advance(time.Millisecond)
		f.freeze(2)
		f.freeze(1)
		if round%3 == 0 {
			f.hibernate(1)
			f.hibernate(2)
		}
		f.barrier()
	}
	f.release(1)
	f.release(2)
	f.barrier()
}

// TestWireVsInProcessDifferentialVerdicts proves the wire tier is
// behaviorally invisible: the same scripted event sequence produces an
// identical observer stream (creations, state events, activity accounting,
// detections, penalty actions and serves) whether it is fed through the
// batched binary protocol or through direct in-process Worker calls, on
// managers sharing one fake clock.
func TestWireVsInProcessDifferentialVerdicts(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	opts := func(obs core.Observer) core.Options {
		return core.Options{
			Now:      func() int64 { return now.Load() },
			Sleep:    func(time.Duration) {},
			Observer: obs,
		}
	}
	advance := func(d time.Duration) { now.Add(int64(d)) }

	wobs := newWireObs()
	wmgr := core.NewManager(opts(wobs))
	addr, _, stop := startServer(t, wmgr, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	differentialScript(&wireFeeder{t: t, c: c}, advance)
	c.Close()
	stop()

	now.Store(1)
	iobs := newWireObs()
	imgr := core.NewManager(opts(iobs))
	differentialScript(&inprocFeeder{
		t: t, mgr: imgr, w: imgr.NewWorker(), tenants: map[uint64]*core.PBox{},
	}, advance)

	wire, inproc := wobs.snapshot(), iobs.snapshot()
	if !slices.Equal(wire, inproc) {
		n := len(wire)
		if len(inproc) < n {
			n = len(inproc)
		}
		for i := 0; i < n; i++ {
			if wire[i] != inproc[i] {
				t.Fatalf("verdict streams diverge at %d:\nwire:      %+v\nin-process: %+v", i, wire[i], inproc[i])
			}
		}
		t.Fatalf("verdict stream lengths diverge: wire %d, in-process %d", len(wire), len(inproc))
	}
	if len(wire) == 0 {
		t.Fatal("empty observer streams: script produced no verdicts")
	}
	var detections int
	for _, e := range wire {
		if e.Kind == core.KindDetection {
			detections++
		}
	}
	if detections == 0 {
		t.Fatal("script produced no detections; differential is vacuous")
	}
}

// TestWireConnectionChurnLeavesNoSpools: every connection owns a Worker, and
// a daemon lives through many connections. A thousand connect / register /
// one activity / disconnect cycles must leave no spool registered (each sweep
// and view rebuild would otherwise visit the spools of dead connections
// forever), every call on the books — the closed spools' sums included — and
// a view rebuild as cheap as on a manager that served one connection.
func TestWireConnectionChurnLeavesNoSpools(t *testing.T) {
	keys := []core.ResourceKey{7, 1 << 40, 9, 1 << 32}
	cycle := func(addr string, i int) {
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		c.Register(1, core.DefaultRule(), "churn")
		c.Activate(1)
		c.Select(1)
		for _, k := range keys {
			c.Event(k, core.Hold)
			c.Event(k, core.Unhold)
		}
		if i%2 == 0 {
			c.Freeze(1) // odd cycles leave the tail to the teardown's Close
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		c.Close()
	}
	serve := func(cycles int) *core.Manager {
		mgr := core.NewManager(core.Options{Sleep: func(time.Duration) {}})
		addr, s, stop := startServer(t, mgr, Config{})
		defer stop()
		for i := 0; i < cycles; i++ {
			cycle(addr, i)
			if i%100 == 99 || i == cycles-1 {
				// Also bounds the connections open at once.
				waitFor(t, "connections to drain", func() bool {
					st := s.Stats()
					return st.ConnsTotal == int64(i+1) && st.ConnsActive == 0
				})
			}
		}
		if st := s.Stats(); st.Events != int64(cycles*2*len(keys)) || st.Errors != 0 {
			t.Fatalf("server stats after %d cycles: %+v", cycles, st)
		}
		return mgr
	}
	// rebuild is the cheapest of many precise rebuilds: the floor is what the
	// registered-spool sweep adds to, and it does not move with scheduling.
	rebuild := func(mgr *core.Manager) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 200; i++ {
			if d := mgr.RefreshStatusView().BuildDuration; d < best {
				best = d
			}
		}
		return best
	}

	const cycles = 1000
	churned, fresh := serve(cycles), serve(1)
	st := churned.SelfStats()
	if st.Spools != 0 {
		t.Fatalf("%d spools still registered after %d connections closed", st.Spools, cycles)
	}
	// Create, Activate, eight events and Release per cycle, Freeze on the
	// even ones — whether an event was spooled or took the slow path, and
	// whether its spool is still registered or closed, it is one crossing.
	if want := int64(cycles*(3+2*len(keys)) + cycles/2); st.Crossings != want {
		t.Fatalf("crossings = %d after %d cycles, want %d", st.Crossings, cycles, want)
	}
	if st.SpoolFlushedEvents == 0 {
		t.Fatal("no event was ever spooled: the churn did not exercise Close's flush")
	}
	if c, f := rebuild(churned), rebuild(fresh); c > 2*f+time.Microsecond {
		t.Fatalf("view rebuild takes %v after %d connections, %v after one", c, cycles, f)
	}
}
