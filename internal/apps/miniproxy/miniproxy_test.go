package miniproxy

import (
	"slices"
	"strings"
	"sync"
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

// poolWatch is a no-isolation controller whose activities log their
// worker-pool HOLD/UNHOLD events and park their backend fetch on gate, so a
// test decides how long a worker stays occupied and asserts the structure —
// who was busy at once, who ran after whom — instead of the wall clock.
type poolWatch struct {
	isolation.Null
	key  core.ResourceKey
	gate chan struct{} // closed to let the fetches finish

	mu         sync.Mutex
	log        []string // "<connection> HOLD", "<connection> UNHOLD", in order
	busy, peak int
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

func (a *watched) Event(key core.ResourceKey, ev core.EventType) {
	if key != a.w.key || ev != core.Hold && ev != core.Unhold {
		return
	}
	a.w.mu.Lock()
	defer a.w.mu.Unlock()
	a.w.log = append(a.w.log, a.name+" "+ev.String())
	if ev == core.Unhold {
		a.w.busy--
	} else if a.w.busy++; a.w.busy > a.w.peak {
		a.w.peak = a.w.busy
	}
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

func TestPenalizedPBoxTasksAreRequeued(t *testing.T) {
	mgr := core.NewManager(core.Options{})
	ctrl := isolation.NewPBoxShared(mgr, core.DefaultRule())
	p := New(testConfig())
	defer p.Stop()

	noisy := p.Connect(ctrl, "noisy")
	defer noisy.Close()
	victimAct := ctrl.ConnStart("victim", isolation.KindForeground)
	defer victimAct.Close()

	// Manufacture a penalty on the noisy client's pBox: the victim waits
	// on a resource the noisy pBox holds.
	np, _ := isolation.PBoxOf(noisy.Activity())
	vp, _ := isolation.PBoxOf(victimAct)
	victimAct.Begin("x")
	mgr.Activate(np)
	mgr.Update(np, 77, core.Hold)
	mgr.Update(vp, 77, core.Prepare)
	time.Sleep(5 * time.Millisecond)
	mgr.Update(np, 77, core.Unhold)
	mgr.Freeze(np)

	wait := mgr.PenaltyWait(np)
	if wait <= 0 {
		t.Fatal("no penalty deadline on the noisy shared pBox")
	}
	// The noisy client's next request must take at least the requeue wait.
	lat := noisy.Small(10 * time.Microsecond)
	if lat < wait/2 {
		t.Fatalf("penalized request latency = %v, want >= ~%v (requeued)", lat, wait)
	}
}

func TestStatsFlusherContendsOnSumStat(t *testing.T) {
	p := New(testConfig())
	defer p.Stop()
	ctrl := isolation.NewNull()
	f := p.StartStatsFlusher(ctrl, time.Millisecond, 5*time.Millisecond)
	defer f.Stop()
	time.Sleep(2 * time.Millisecond) // flusher holding

	c := p.Connect(ctrl, "c")
	defer c.Close()
	// Some request should observe SumStat contention. Sample until one does
	// (bounded by a deadline, not a count: on a loaded host the flusher
	// goroutine may not have been scheduled into its first hold yet).
	var worst time.Duration
	for deadline := time.Now().Add(2 * time.Second); worst < time.Millisecond && time.Now().Before(deadline); {
		if lat := c.Small(10 * time.Microsecond); lat > worst {
			worst = lat
		}
	}
	if worst < time.Millisecond {
		t.Fatalf("worst latency = %v, want SumStat contention visible", worst)
	}
}

func TestStopDrainsWorkers(t *testing.T) {
	p := New(testConfig())
	ctrl := isolation.NewNull()
	c := p.Connect(ctrl, "c")
	c.Small(10 * time.Microsecond)
	c.Close()
	p.Stop() // must not hang
}
