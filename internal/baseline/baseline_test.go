package baseline

import (
	"testing"
	"time"

	"pbox/internal/core"
	"pbox/internal/isolation"
)

func TestTokenBucketThrottles(t *testing.T) {
	// Rate 0.5 CPU-ns per wall-ns, tiny burst: consuming 1ms of CPU
	// requires ≈2ms of wall time.
	b := newTokenBucket(0.5, 100*time.Microsecond)
	var slept time.Duration
	for i := 0; i < 10; i++ {
		if s := b.consume(100 * time.Microsecond); s > 0 {
			slept += s
			time.Sleep(s)
		}
	}
	if slept <= 0 {
		t.Fatal("bucket never throttled")
	}
}

func TestTokenBucketBurstPassesFree(t *testing.T) {
	b := newTokenBucket(1, time.Millisecond)
	if s := b.consume(500 * time.Microsecond); s != 0 {
		t.Fatalf("burst consumption requested sleep %v", s)
	}
}

func TestTokenBucketRateFloor(t *testing.T) {
	b := newTokenBucket(1, time.Millisecond)
	b.setRate(-5)
	if b.rate < 0.01 {
		t.Fatalf("rate = %v, want floored", b.rate)
	}
}

func TestEWMA(t *testing.T) {
	e := &ewma{alpha: 0.5}
	e.add(10)
	if e.get() != 10 {
		t.Fatalf("first value = %v", e.get())
	}
	e.add(20)
	if e.get() != 15 {
		t.Fatalf("ewma = %v, want 15", e.get())
	}
}

func TestMonitorRunsAndStops(t *testing.T) {
	ticks := make(chan struct{}, 100)
	m := startMonitor(2*time.Millisecond, func() { ticks <- struct{}{} })
	time.Sleep(10 * time.Millisecond)
	m.Stop()
	n := len(ticks)
	if n == 0 {
		t.Fatal("monitor never ticked")
	}
	time.Sleep(6 * time.Millisecond)
	if len(ticks) != n {
		t.Fatal("monitor ticked after Stop")
	}
}

func TestCgroupGrouping(t *testing.T) {
	if g := groupOf("writer-3", isolation.KindForeground); g != "writer" {
		t.Fatalf("group = %q, want writer", g)
	}
	if g := groupOf("purge", isolation.KindBackground); g != "background" {
		t.Fatalf("group = %q, want background", g)
	}
	if g := groupOf("plain", isolation.KindForeground); g != "plain" {
		t.Fatalf("group = %q, want plain", g)
	}
}

func TestCgroupEvenQuota(t *testing.T) {
	c := NewCgroup()
	defer c.Shutdown()
	a := c.ConnStart("alpha-1", isolation.KindForeground)
	_ = c.ConnStart("beta-1", isolation.KindForeground)
	_ = c.ConnStart("gamma-1", isolation.KindForeground)
	c.mu.Lock()
	n := len(c.groups)
	var rate float64
	for _, b := range c.groups {
		rate = b.rate
	}
	c.mu.Unlock()
	if n != 3 {
		t.Fatalf("groups = %d, want 3", n)
	}
	want := c.totalCPU / 3
	if rate != want {
		t.Fatalf("rate = %v, want even share %v", rate, want)
	}
	// Work on a throttled group must complete (and be stretched when the
	// quota is tiny).
	a.Work(200 * time.Microsecond)
}

func TestPartiesShiftsShares(t *testing.T) {
	p := NewParties()
	defer p.Shutdown()
	victim := p.ConnStart("v", isolation.KindForeground).(*partiesActivity)
	noisy := p.ConnStart("n", isolation.KindForeground).(*partiesActivity)

	// Calibrate the victim at 1ms, then report violations (5ms); the
	// noisy client burns CPU.
	for i := 0; i < partiesCalibration; i++ {
		victim.End(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		victim.End(5 * time.Millisecond)
	}
	noisy.mu.Lock()
	noisy.cpuWindow = 50 * time.Millisecond
	noisy.mu.Unlock()

	p.adjust()

	noisy.mu.Lock()
	ns := noisy.share
	noisy.mu.Unlock()
	if ns >= 1.0 {
		t.Fatalf("noisy share = %v, want reduced", ns)
	}
}

func TestPartiesRestoresSharesWhenQuiet(t *testing.T) {
	p := NewParties()
	defer p.Shutdown()
	a := p.ConnStart("a", isolation.KindForeground).(*partiesActivity)
	a.mu.Lock()
	a.share = 0.4
	a.mu.Unlock()
	p.adjust() // no violations anywhere
	a.mu.Lock()
	got := a.share
	a.mu.Unlock()
	if got <= 0.4 {
		t.Fatalf("share = %v, want restored upward", got)
	}
}

func TestRetroTracksLockUsageAndThrottles(t *testing.T) {
	// Construct without the background monitor so the explicit bfair()
	// calls below are the only consumers of the usage windows.
	r := &Retro{}
	noisy := r.ConnStart("n", isolation.KindForeground).(*retroActivity)
	quiet := r.ConnStart("q", isolation.KindForeground).(*retroActivity)
	quiet2 := r.ConnStart("q2", isolation.KindForeground).(*retroActivity)

	// The noisy workflow holds a lock for a long time; BFAIR needs the
	// fleet mean to sit well below it (it throttles above 2× the mean).
	noisy.Event(1, core.Hold)
	time.Sleep(3 * time.Millisecond)
	noisy.Event(1, core.Unhold)
	quiet.Work(10 * time.Microsecond)
	quiet2.Work(10 * time.Microsecond)

	r.bfair()

	if noisy.Gate() <= 0 {
		t.Fatalf("noisy gate = %v, want throttled", noisy.Gate())
	}
	if quiet.Gate() != 0 {
		t.Fatalf("quiet gate = %v, want 0", quiet.Gate())
	}
	// The next round with no usage clears the throttle.
	r.bfair()
	r.bfair()
	if noisy.Gate() != 0 {
		t.Fatalf("gate after quiet rounds = %v, want 0", noisy.Gate())
	}
}

func TestRetroUnmatchedUnholdIgnored(t *testing.T) {
	r := NewRetro()
	defer r.Shutdown()
	a := r.ConnStart("a", isolation.KindForeground).(*retroActivity)
	a.Event(9, core.Unhold) // no matching hold: must not panic or count
	a.mu.Lock()
	lw := a.lockWindow
	a.mu.Unlock()
	if lw != 0 {
		t.Fatalf("lock window = %v, want 0", lw)
	}
}

func TestDarcClassifiesAndReserves(t *testing.T) {
	d := NewDarc()
	defer d.Shutdown()
	a := d.ConnStart("a", isolation.KindForeground)

	// Profile: "get" is short, "post" is long.
	for i := 0; i < 20; i++ {
		a.Begin("get")
		a.End(100 * time.Microsecond)
		a.Begin("post")
		a.End(5 * time.Millisecond)
	}
	d.mu.Lock()
	longPost := d.classifyLocked("post")
	longGet := d.classifyLocked("get")
	unknown := d.classifyLocked("delete")
	d.mu.Unlock()
	if !longPost {
		t.Fatal("post not classified long")
	}
	if longGet {
		t.Fatal("get classified long")
	}
	if unknown {
		t.Fatal("unknown type classified long")
	}
}

func TestDarcLongSlotAccounting(t *testing.T) {
	d := NewDarc()
	defer d.Shutdown()
	a := d.ConnStart("a", isolation.KindForeground).(*darcActivity)
	for i := 0; i < 20; i++ {
		a.Begin("get")
		a.End(100 * time.Microsecond)
		a.Begin("post")
		a.End(5 * time.Millisecond)
	}
	a.Begin("post")
	d.mu.Lock()
	inUse := d.longInUse
	d.mu.Unlock()
	if inUse != 1 {
		t.Fatalf("longInUse = %d, want 1", inUse)
	}
	a.End(5 * time.Millisecond)
	d.mu.Lock()
	inUse = d.longInUse
	d.mu.Unlock()
	if inUse != 0 {
		t.Fatalf("longInUse after end = %d, want 0", inUse)
	}
}
