package miniweb

import (
	"sync"
	"testing"
	"time"

	"pbox/internal/isolation"
)

func testConfig() Config {
	return Config{
		MaxClients:  4,
		FcgidSlots:  2,
		PHPChildren: 2,
		HandlerWork: time.Microsecond,
	}
}

// parked is the work that lasts until a parking controller's gate opens.
const parked = time.Hour

// parking is a no-isolation controller whose activities park a Work(parked) on
// gate, so a test decides how long a slot stays taken and asserts on the slot
// counts — who is in, who is still out — instead of the wall clock.
type parking struct {
	isolation.Null
	gate chan struct{} // closed to let the parked work finish
}

type parkedActivity struct {
	isolation.Activity
	gate chan struct{}
}

func (p *parking) ConnStart(name string, kind isolation.Kind) isolation.Activity {
	return parkedActivity{p.Null.ConnStart(name, kind), p.gate}
}

func (a parkedActivity) Work(d time.Duration) {
	if d == parked {
		<-a.gate
		return
	}
	a.Activity.Work(d)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// fcgidExhausted starts a parked CGI request on each of the server's two fcgid
// slots and returns once both are taken; the requests end when the returned
// controller's gate is closed, and wg waits for them.
func fcgidExhausted(t *testing.T, srv *Server) (ctrl *parking, wg *sync.WaitGroup) {
	ctrl, wg = &parking{gate: make(chan struct{})}, &sync.WaitGroup{}
	for _, name := range []string{"s-1", "s-2"} {
		c := srv.Connect(ctrl, name)
		wg.Add(1)
		go func() { defer wg.Done(); defer c.Close(); c.CGI(parked) }()
	}
	waitFor(t, "both fcgid slots taken", func() bool { return srv.Fcgid().InUse() == 2 })
	return ctrl, wg
}

func TestStaticRequestCompletes(t *testing.T) {
	srv := New(testConfig())
	ctrl := isolation.NewNull()
	c := srv.Connect(ctrl, "c-1")
	defer c.Close()
	if lat := c.Static(10 * time.Microsecond); lat <= 0 {
		t.Fatalf("latency = %v", lat)
	}
	if srv.Workers().InUse() != 0 {
		t.Fatalf("worker slots leaked: %d", srv.Workers().InUse())
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	srv := New(testConfig()) // MaxClients 4
	ctrl := isolation.NewNull()
	var wg sync.WaitGroup
	maxSeen := 0
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := srv.Connect(ctrl, "c")
			defer c.Close()
			for j := 0; j < 5; j++ {
				c.SlowRequest(200 * time.Microsecond)
				mu.Lock()
				if u := srv.Workers().InUse(); u > maxSeen {
					maxSeen = u
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if maxSeen > 4 {
		t.Fatalf("observed %d concurrent workers, MaxClients 4", maxSeen)
	}
}

func TestFcgidSlotExhaustionBlocksFastRequests(t *testing.T) {
	srv := New(testConfig()) // FcgidSlots 2
	ctrl, wg := fcgidExhausted(t, srv)
	fast := srv.Connect(ctrl, "f-1")
	defer fast.Close()
	done := make(chan struct{})
	go func() { fast.CGI(10 * time.Microsecond); close(done) }()
	// The fast request holds its worker slot from before it asks for an fcgid
	// slot, and neither slow script can end before the gate opens.
	waitFor(t, "the fast request on a worker", func() bool { return srv.Workers().InUse() == 3 })
	select {
	case <-done:
		t.Fatal("fast CGI request served with both fcgid slots taken")
	default:
	}
	close(ctrl.gate)
	wg.Wait()
	<-done
	if srv.Fcgid().InUse() != 0 {
		t.Fatalf("fcgid slots leaked: %d", srv.Fcgid().InUse())
	}
}

func TestPHPChildrenLimit(t *testing.T) {
	srv := New(testConfig()) // PHPChildren 2
	ctrl := isolation.NewNull()
	var wg sync.WaitGroup
	maxSeen := 0
	var mu sync.Mutex
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := srv.Connect(ctrl, "p")
			defer c.Close()
			for j := 0; j < 4; j++ {
				c.PHP(100 * time.Microsecond)
				mu.Lock()
				if u := srv.PHP().InUse(); u > maxSeen {
					maxSeen = u
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if maxSeen > 2 {
		t.Fatalf("observed %d php children, limit 2", maxSeen)
	}
}

func TestStaticUnaffectedByFcgidExhaustion(t *testing.T) {
	srv := New(testConfig())
	ctrl, wg := fcgidExhausted(t, srv)
	static := srv.Connect(ctrl, "st-1")
	defer static.Close()
	// Static requests need only a worker slot (4 total, 2 busy): this one
	// returns while both scripts are still parked on their fcgid slots.
	done := make(chan struct{})
	go func() { static.Static(10 * time.Microsecond); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("static request, which needs no fcgid slot, not served while both are taken")
	}
	if got := srv.Fcgid().InUse(); got != 2 {
		t.Fatalf("%d fcgid slots taken after the static request, want both still held", got)
	}
	close(ctrl.gate)
	wg.Wait()
}
