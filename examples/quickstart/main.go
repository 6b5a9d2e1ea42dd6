// Quickstart: the smallest complete pBox program.
//
// Two activities share one virtual resource — a work queue guarded by a
// lock. The "bulk" activity grabs the resource for long stretches; the
// "interactive" activity needs it briefly but often. Without isolation the
// interactive activity's latency is dominated by waiting behind bulk holds.
// Wrapping each activity in a pBox with a 50% relative isolation goal makes
// the manager detect the interference (Algorithm 1 of the SOSP '23 paper)
// and pace the bulk activity with adaptive delay penalties.
//
// Run it:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"pbox/internal/core"
	"pbox/internal/exec"
	"pbox/internal/isolation"
	"pbox/internal/stats"
	"pbox/internal/vres"
)

func main() {
	fmt.Println("pBox quickstart: two activities contending on one virtual resource")
	fmt.Println()

	interactive := run(isolation.NewNull())
	fmt.Printf("vanilla:   interactive mean=%-10v p95=%-10v\n", interactive.Mean, interactive.P95)

	mgr := core.NewManager(core.Options{TraceSize: 64})
	withPBox := run(isolation.NewPBox(mgr, core.DefaultRule()))
	fmt.Printf("with pBox: interactive mean=%-10v p95=%-10v (%d penalty actions)\n",
		withPBox.Mean, withPBox.P95, mgr.TotalActions())

	fmt.Println("\nlast trace entries:")
	mgr.Status() // precise read: spooled events reach the ring first
	tr, _ := mgr.TraceView(0)
	for _, e := range tr[max(0, len(tr)-8):] {
		fmt.Println(" ", e.String()) // the record's own line, as `pboxreplay cat` prints it
	}
}

// run executes the two activities for half a second under the given
// isolation controller and returns the interactive activity's latency
// summary.
func run(ctrl isolation.Controller) stats.Summary {
	defer ctrl.Shutdown()
	queue := vres.NewMutex() // the contended virtual resource

	stop := make(chan struct{})
	done := make(chan struct{})

	// The noisy activity: a bulk worker that repeatedly locks the queue
	// and processes a large batch while holding it.
	go func() {
		defer close(done)
		act := ctrl.ConnStart("bulk", isolation.KindForeground)
		defer act.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g := act.Gate(); g > 0 {
				exec.SleepPrecise(g)
			}
			t0 := time.Now()
			act.Begin("bulk")
			queue.Lock(act)
			act.Work(2 * time.Millisecond) // the long hold
			queue.Unlock(act)
			act.End(time.Since(t0))
			exec.SleepPrecise(500 * time.Microsecond)
		}
	}()

	// The victim activity: an interactive client that needs the queue for
	// a moment at a time.
	rec := stats.NewRecorder(1024)
	act := ctrl.ConnStart("interactive", isolation.KindForeground)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		act.Begin("get")
		queue.Lock(act)
		act.Work(20 * time.Microsecond)
		queue.Unlock(act)
		lat := time.Since(t0)
		act.End(lat)
		rec.Record(lat)
		exec.SleepPrecise(200 * time.Microsecond)
	}
	act.Close()
	close(stop)
	<-done
	return rec.Summary()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
