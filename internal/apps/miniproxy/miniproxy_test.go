package miniproxy

import (
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

func TestWorkersProcessConcurrently(t *testing.T) {
	p := New(testConfig()) // 2 workers
	defer p.Stop()
	ctrl := isolation.NewNull()
	a := p.Connect(ctrl, "a")
	b := p.Connect(ctrl, "b")
	defer a.Close()
	defer b.Close()

	var wg sync.WaitGroup
	t0 := time.Now()
	wg.Add(2)
	go func() { defer wg.Done(); a.Big(10*time.Microsecond, 10*time.Millisecond) }()
	go func() { defer wg.Done(); b.Big(10*time.Microsecond, 10*time.Millisecond) }()
	wg.Wait()
	if el := time.Since(t0); el > 18*time.Millisecond {
		t.Fatalf("two fetches on two workers took %v, want parallel", el)
	}
}

func TestBigRequestsQueueSmallOnes(t *testing.T) {
	p := New(testConfig()) // 2 workers
	defer p.Stop()
	ctrl := isolation.NewNull()
	big1 := p.Connect(ctrl, "b1")
	big2 := p.Connect(ctrl, "b2")
	small := p.Connect(ctrl, "s")
	defer big1.Close()
	defer big2.Close()
	defer small.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); big1.Big(10*time.Microsecond, 15*time.Millisecond) }()
	go func() { defer wg.Done(); big2.Big(10*time.Microsecond, 15*time.Millisecond) }()
	time.Sleep(3 * time.Millisecond) // both workers occupied

	lat := small.Small(10 * time.Microsecond)
	wg.Wait()
	if lat < 5*time.Millisecond {
		t.Fatalf("small latency = %v, want queued behind big fetches", lat)
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
