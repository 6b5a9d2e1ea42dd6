package baseline

import (
	"sync"
	"time"

	"pbox/internal/core"
	"pbox/internal/exec"
	"pbox/internal/isolation"
)

// Retro reproduces the Retro methodology as re-implemented by the paper
// (Section 6.3): "we trace each activity's resource usage including lock and
// CPU, calculate the slowdown and load factor, and run Retro's BFAIR policy
// to throttle noisy requests."
//
// Each connection is a workflow. The controller aggregates per-workflow CPU
// time (from Work) and lock hold time (from HOLD/UNHOLD state events — Retro
// traces locks as one of its resources), computes each workflow's load
// share, and BFAIR throttles workflows whose share exceeds fairness by
// delaying their next activities (admission rate limiting). Throttling
// happens at activity boundaries rather than mid-hold, which is why Retro
// fares better than cgroup/PARTIES in the paper — though it still cannot
// target the specific contended virtual resource.
type Retro struct {
	mu    sync.Mutex
	flows []*retroActivity // in registration order, so a round visits them the same way every run
	mon   *monitor
}

// RetroInterval is the BFAIR control period.
const RetroInterval = 20 * time.Millisecond

// retroFairFactor: a workflow is throttled when its usage exceeds
// fairFactor × the mean usage.
const retroFairFactor = 2.0

// retroMaxDelay bounds the per-activity admission delay.
const retroMaxDelay = 5 * time.Millisecond

// NewRetro creates the Retro controller and starts its BFAIR loop.
func NewRetro() *Retro {
	r := &Retro{}
	r.mon = startMonitor(RetroInterval, r.bfair)
	return r
}

// Name implements isolation.Controller.
func (r *Retro) Name() string { return "retro" }

// Shutdown implements isolation.Controller.
func (r *Retro) Shutdown() { r.mon.Stop() }

// ConnStart implements isolation.Controller.
func (r *Retro) ConnStart(name string, kind isolation.Kind) isolation.Activity {
	a := &retroActivity{}
	r.mu.Lock()
	r.flows = append(r.flows, a)
	r.mu.Unlock()
	return a
}

// bfair is one control round: compute each workflow's resource usage in the
// last window and set admission delays for those far above the mean.
func (r *Retro) bfair() {
	r.mu.Lock()
	defer r.mu.Unlock()
	type usage struct {
		a *retroActivity
		u time.Duration
	}
	var usages []usage
	var total time.Duration
	for _, a := range r.flows {
		a.mu.Lock()
		u := a.cpuWindow + a.lockWindow
		a.cpuWindow, a.lockWindow = 0, 0
		a.mu.Unlock()
		usages = append(usages, usage{a, u})
		total += u
	}
	if len(usages) == 0 || total == 0 {
		// A quiet window lifts all throttles; leaving stale gates in
		// place would keep penalizing workflows that stopped competing.
		for _, u := range usages {
			u.a.mu.Lock()
			u.a.gateDelay = 0
			u.a.mu.Unlock()
		}
		return
	}
	mean := total / time.Duration(len(usages))
	for _, u := range usages {
		u.a.mu.Lock()
		if mean > 0 && u.u > time.Duration(retroFairFactor*float64(mean)) {
			// Delay proportional to the overshoot.
			over := float64(u.u)/float64(mean) - retroFairFactor
			d := time.Duration(over * float64(time.Millisecond))
			if d > retroMaxDelay {
				d = retroMaxDelay
			}
			u.a.gateDelay = d
		} else {
			u.a.gateDelay = 0
		}
		u.a.mu.Unlock()
	}
}

// retroActivity is one workflow's tracing and throttling state.
type retroActivity struct {
	mu         sync.Mutex
	cpuWindow  time.Duration
	lockWindow time.Duration
	holdStart  map[core.ResourceKey]int64
	gateDelay  time.Duration
}

func (a *retroActivity) Begin(string)      {}
func (a *retroActivity) End(time.Duration) {}
func (a *retroActivity) Close()            {}

// Event traces lock usage: Retro's resource model includes locks, so HOLD
// and UNHOLD bracket per-workflow lock time.
func (a *retroActivity) Event(key core.ResourceKey, ev core.EventType) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch ev {
	case core.Hold:
		if a.holdStart == nil {
			a.holdStart = make(map[core.ResourceKey]int64)
		}
		a.holdStart[key] = exec.Now()
	case core.Unhold:
		if s, ok := a.holdStart[key]; ok {
			a.lockWindow += time.Duration(exec.Now() - s)
			delete(a.holdStart, key)
		}
	}
}

func (a *retroActivity) Work(d time.Duration) {
	a.mu.Lock()
	a.cpuWindow += d
	a.mu.Unlock()
	exec.Work(d)
}

func (a *retroActivity) IO(d time.Duration) { exec.IOWait(d) }

// Gate returns the BFAIR admission delay for the workflow's next activity.
func (a *retroActivity) Gate() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gateDelay
}
