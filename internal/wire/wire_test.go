package wire

import (
	"net"
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
	// A frozen manager clock — the server has no other: buckets never refill,
	// so exactly the burst is admitted and everything after it sheds
	// deterministically.
	frozen := core.Options{Now: func() int64 { return 0 }, Sleep: func(time.Duration) {}}

	t.Run("per-conn", func(t *testing.T) {
		mgr := core.NewManager(frozen)
		addr, s, stop := startServer(t, mgr, Config{PerConnRate: 1, PerConnBurst: 10})
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
		mgr := core.NewManager(frozen)
		addr, s, stop := startServer(t, mgr, Config{GlobalRate: 1, GlobalBurst: 20})
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
