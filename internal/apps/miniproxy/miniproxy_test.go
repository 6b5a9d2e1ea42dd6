package miniproxy

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbox/internal/core"
	"pbox/internal/isolation"
)

func testConfig() Config {
	return Config{
		Workers:     2,
		AcceptWork:  time.Microsecond,
		SumStatWork: time.Microsecond,
	}
}

func TestSmallRequestCompletes(t *testing.T) {
	p := New(testConfig())
	defer p.Stop()
	ctrl := isolation.NewNull()
	c := p.Connect(ctrl, "c-1")
	defer c.Close()
	if lat := c.Small(10 * time.Microsecond); lat <= 0 {
		t.Fatalf("latency = %v", lat)
	}
}

// parked is the work that lasts until a poolWatch's gate opens.
const parked = time.Hour

// poolWatch is a no-isolation controller whose activities log their state
// events on key (the worker pool, or SumStat) and park their backend fetch and
// any Work(parked) on gate, so a test decides how long a worker or the lock
// stays occupied and asserts the structure — who was busy at once, who ran
// after whom — instead of the wall clock.
type poolWatch struct {
	isolation.Null
	key  core.ResourceKey
	gate chan struct{} // closed to let the fetches and the parked work finish

	mu         sync.Mutex
	log        []string // "<connection> PREPARE", "<connection> HOLD", … in order
	busy, peak int      // holders of key now, and at most
}

type watched struct {
	isolation.Activity
	w    *poolWatch
	name string
}

func (w *poolWatch) ConnStart(name string, kind isolation.Kind) isolation.Activity {
	return &watched{w.Null.ConnStart(name, kind), w, name}
}

func (a *watched) IO(time.Duration) { <-a.w.gate }

func (a *watched) Work(d time.Duration) {
	if d == parked {
		<-a.w.gate
		return
	}
	a.Activity.Work(d)
}

func (a *watched) Event(key core.ResourceKey, ev core.EventType) {
	if key != a.w.key {
		return
	}
	a.w.mu.Lock()
	defer a.w.mu.Unlock()
	a.w.log = append(a.w.log, a.name+" "+ev.String())
	switch ev {
	case core.Unhold:
		a.w.busy--
	case core.Hold:
		if a.w.busy++; a.w.busy > a.w.peak {
			a.w.peak = a.w.busy
		}
	}
}

// logged reports whether entry is in the event log.
func (w *poolWatch) logged(entry string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Contains(w.log, entry)
}

func (w *poolWatch) busyWorkers() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.busy
}

// watchedProxy is a two-worker proxy under a poolWatch.
func watchedProxy() (*Proxy, *poolWatch) {
	p := New(testConfig())
	return p, &poolWatch{key: p.PoolKey(), gate: make(chan struct{})}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestWorkersProcessConcurrently(t *testing.T) {
	p, w := watchedProxy()
	defer p.Stop()
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		c := p.Connect(w, name)
		defer c.Close()
		wg.Add(1)
		go func() { defer wg.Done(); c.Big(10*time.Microsecond, time.Millisecond) }()
	}
	// Neither fetch can finish before the gate opens: both workers are inside
	// one at the same time, or this never comes true.
	waitFor(t, "two fetches on two workers at once", func() bool { return w.busyWorkers() == 2 })
	close(w.gate)
	wg.Wait()
}

func TestBigRequestsQueueSmallOnes(t *testing.T) {
	p, w := watchedProxy()
	defer p.Stop()
	var wg sync.WaitGroup
	for _, name := range []string{"b1", "b2"} {
		c := p.Connect(w, name)
		defer c.Close()
		wg.Add(1)
		go func() { defer wg.Done(); c.Big(10*time.Microsecond, time.Millisecond) }()
	}
	waitFor(t, "both workers occupied", func() bool { return w.busyWorkers() == 2 })
	small := p.Connect(w, "s")
	defer small.Close()
	wg.Add(1)
	go func() { defer wg.Done(); small.Small(10 * time.Microsecond) }()
	// The small request sits in the queue for as long as the fetches last.
	waitFor(t, "the small request queued behind the big fetches", func() bool { return p.QueueLen() == 1 })
	if got := w.busyWorkers(); got != 2 {
		t.Fatalf("%d workers busy with a request queued, want both", got)
	}
	close(w.gate)
	wg.Wait()
	// It got a worker only after a big fetch gave one up.
	w.mu.Lock()
	defer w.mu.Unlock()
	released := slices.IndexFunc(w.log, func(e string) bool { return strings.HasSuffix(e, " UNHOLD") })
	if served := slices.Index(w.log, "s HOLD"); served < released || w.peak != 2 {
		t.Fatalf("pool events %v: want the small request served after a big fetch released its worker", w.log)
	}
}

// requeueWatch wraps a controller and counts the times a worker found an
// activity's pBox under penalty and sent its task back to the queue.
type requeueWatch struct {
	isolation.Controller
	requeues atomic.Int64
}

type gated struct {
	isolation.Activity
	w *requeueWatch
}

func (w *requeueWatch) ConnStart(name string, kind isolation.Kind) isolation.Activity {
	return &gated{w.Controller.ConnStart(name, kind), w}
}

func (a *gated) Gate() time.Duration {
	g := a.Activity.Gate()
	if g > 0 {
		a.w.requeues.Add(1)
	}
	return g
}

func TestPenalizedPBoxTasksAreRequeued(t *testing.T) {
	// The manager's clock moves only when the test moves it, so a penalty
	// deadline stands for exactly as long as the test lets it.
	var clock atomic.Int64
	mgr := core.NewManager(core.Options{Now: clock.Load})
	ctrl := &requeueWatch{Controller: isolation.NewPBoxShared(mgr, core.DefaultRule())}
	p := New(testConfig())
	defer p.Stop()

	noisy := p.Connect(ctrl, "noisy")
	defer noisy.Close()
	victimAct := ctrl.Controller.ConnStart("victim", isolation.KindForeground)
	defer victimAct.Close()

	// Manufacture a penalty on the noisy client's pBox: the victim waits
	// 5 ms on a resource the noisy pBox holds.
	np, _ := isolation.PBoxOf(noisy.Activity().(*gated).Activity)
	vp, _ := isolation.PBoxOf(victimAct)
	victimAct.Begin("x")
	mgr.Activate(np)
	mgr.Update(np, 77, core.Hold)
	mgr.Update(vp, 77, core.Prepare)
	clock.Add(int64(5 * time.Millisecond))
	mgr.Update(np, 77, core.Unhold)
	mgr.Freeze(np)
	if mgr.PenaltyWait(np) <= 0 {
		t.Fatal("no penalty deadline on the noisy shared pBox")
	}

	// The noisy client's next request goes back to the queue each time a
	// worker picks it up, and is served only once the deadline has passed.
	done := make(chan struct{})
	go func() { noisy.Small(10 * time.Microsecond); close(done) }()
	waitFor(t, "the penalized request requeued", func() bool { return ctrl.requeues.Load() >= 2 })
	select {
	case <-done:
		t.Fatal("penalized request served before its deadline")
	default:
	}
	clock.Add(int64(time.Second))
	<-done
}

func TestStatsFlusherContendsOnSumStat(t *testing.T) {
	p := New(testConfig())
	defer p.Stop()
	w := &poolWatch{key: p.SumStat().Key(), gate: make(chan struct{})}
	f := p.StartStatsFlusher(w, time.Millisecond, parked)
	defer f.Stop()
	waitFor(t, "the flusher inside its hold", func() bool { return w.busyWorkers() == 1 })

	c := p.Connect(w, "c")
	defer c.Close()
	done := make(chan struct{})
	go func() { c.Small(10 * time.Microsecond); close(done) }()
	// The flusher cannot leave its hold before the gate opens: the request's
	// completion statistics wait on SumStat for as long.
	waitFor(t, "the request waiting on SumStat", func() bool { return w.logged("c PREPARE") })
	if w.logged("c HOLD") || !p.SumStat().Locked() {
		t.Fatalf("SumStat events %v: want the request waiting behind the flusher", w.log)
	}
	close(w.gate)
	<-done
}

func TestStopDrainsWorkers(t *testing.T) {
	p := New(testConfig())
	ctrl := isolation.NewNull()
	c := p.Connect(ctrl, "c")
	c.Small(10 * time.Microsecond)
	c.Close()
	p.Stop() // must not hang
}
