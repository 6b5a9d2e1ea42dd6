// Fixture for the waitloop pass (Algorithm 2 on the shared driver).
package waitloop

import (
	"sync"
	"sync/atomic"
	"time"
)

type worker struct {
	done bool
}

// spin blocks in a loop whose exit depends on shared state — the paper's
// candidate shape for pbox state events.
func (w *worker) spin() {
	for !w.done {
		time.Sleep(time.Millisecond) // want `wait via time\.Sleep inside loop gated on shared vars`
	}
}

// localOnly waits in a loop gated purely on a local counter: no candidate.
func localOnly() {
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
	}
}

// The paper's Figure 9: a thread-concurrency gate that spins on a shared
// counter with a sleep (InnoDB's srv_conc_enter_innodb_with_atomics), beside
// an unrelated self-waiting loop that must not be flagged.
type srvConc struct {
	nActive int64
	limit   int64
}

// enterInnodb is Figure 9's wait loop: srv.nActive gates entry, and the
// loop blocks with a sleep.
func (srv *srvConc) enterInnodb() {
	for {
		if srv.nActive < srv.limit {
			srv.nActive++
			break
		}
		time.Sleep(10 * time.Millisecond) // want `wait via time\.Sleep inside loop gated on shared vars \(srv\.limit, srv\.nActive\): candidate pbox state-event location in \(\*srvConc\)\.enterInnodb`
	}
}

// periodicFlush waits on nothing shared: self-waiting, skipped.
func periodicFlush() {
	for i := 0; i < 10; i++ {
		time.Sleep(time.Millisecond)
	}
}

// backoff wraps the standard waiting function, so a loop over shared
// state that calls it is found too.
func backoff() {
	time.Sleep(5 * time.Millisecond)
}

type pool struct{ free int }

// take waits for a free unit via the wrapper.
func (p *pool) take() {
	for p.free == 0 {
		backoff() // want `wait via backoff inside loop gated on shared vars \(p\.free\)`
	}
	p.free--
}

var (
	shared, free int
	ready, cond  bool
)

// busy loops over shared state without waiting: no candidate.
func busy() {
	for shared < 10 {
		shared++
	}
}

// take waits through backoff on a package-level variable.
func take() {
	for free == 0 {
		backoff() // want `wait via backoff inside loop gated on shared vars \(free\)`
	}
}

// A wrapper of a wrapper is found by the fixpoint.
func inner()  { time.Sleep(time.Millisecond) }
func middle() { inner() }

func waiter() {
	for !cond {
		middle() // want `wait via middle inside`
	}
}

// maybeSleep waits on one path only: not a wrapper.
func maybeSleep(x bool) {
	if x {
		time.Sleep(time.Millisecond)
	}
}

func callsMaybeSleep() {
	for !ready {
		maybeSleep(true)
	}
}

func wait() {
	for !ready {
		time.Sleep(time.Millisecond) // want `shared vars \(ready\)`
	}
}

type s struct{ active, limit int64 }

// enter's break sits in an if nested in the exit test.
func (x *s) enter() {
	for {
		if x.active < x.limit {
			if x.active >= 0 {
				break
			}
		}
		time.Sleep(time.Millisecond) // want `shared vars \(x\.active, x\.limit\)`
	}
}

type counterT struct{}

func (counterT) Load() int64 { return 0 }

var (
	counter counterT
	limit   int64
)

func waitCounter() {
	for counter.Load() >= limit {
		time.Sleep(time.Millisecond) // want `shared vars \(counter, limit\)`
	}
}

// waitAtomic's parameter is shared because it is a sync/atomic value.
func waitAtomic(n *atomic.Int64, max int64) {
	for n.Load() >= max {
		time.Sleep(time.Millisecond) // want `shared vars \(n\)`
	}
}

// bothArms waits on each arm of an if: a wrapper.
func bothArms(long bool) {
	if long {
		time.Sleep(time.Second)
	} else {
		time.Sleep(time.Millisecond)
	}
}

func callsBothArms() {
	for !ready {
		bothArms(false) // want `wait via bothArms inside`
	}
}

// deferredSleep waits in a defer: a wrapper.
func deferredSleep() {
	defer time.Sleep(time.Millisecond)
	shared++
}

func callsDeferredSleep() {
	for !ready {
		deferredSleep() // want `wait via deferredSleep inside`
	}
}

// drain waits for goroutines to finish, not for a holder: not a wrapper.
func drain(wg *sync.WaitGroup) {
	wg.Wait()
}

func callsDrain(wg *sync.WaitGroup) {
	for !ready {
		drain(wg)
	}
}

// pacer and file each have a Close; only pacer's waits.
type pacer struct{}

func (*pacer) Close() { time.Sleep(time.Millisecond) }

type file struct{}

func (*file) Close() {}

func closeFiles(f *file) {
	for !ready {
		f.Close()
	}
}

func closePacers(p *pacer) {
	for !ready {
		p.Close() // want `wait via \(\*pacer\)\.Close inside`
	}
}

// spawn's goroutines sleep, and its defer at return: the loop waits for
// none of them.
func spawn() {
	for !ready {
		go func() { time.Sleep(time.Millisecond) }()
		go backoff()
		defer backoff()
	}
}

// gate's pause is a wrapper of a generic type's; called on an instance it
// still is one, and so is agent's pause, which calls it.
type gate[T any] struct{ items []T }

func (g *gate[T]) pause() { time.Sleep(time.Millisecond) }

type agent struct{ g *gate[int] }

func (a *agent) pause() { a.g.pause() }

func (a *agent) await() {
	for len(a.g.items) == 0 {
		a.pause() // want `wait via \(\*agent\)\.pause inside loop gated on shared vars \(a\.g\.items\)`
	}
}
