package baseline

import (
	"sync"
	"time"

	"pbox/internal/core"
	"pbox/internal/exec"
	"pbox/internal/isolation"
)

// Parties reproduces the PARTIES methodology as adapted by the paper
// (Section 6.3): "we modify its monitoring component to trace each client's
// latency... PARTIES can then control resource usage at the client level."
//
// PARTIES detects QoS violations from latency and shifts hardware resources
// between services one step at a time. Here each client connection is a
// control target with a CPU share; the monitor establishes a QoS target per
// client from its own early latencies, and on violation it upscales the
// victim by downscaling the client currently consuming the most CPU —
// faithful to PARTIES' resource-shifting loop and, like it, blind to
// virtual resources.
type Parties struct {
	mu      sync.Mutex
	clients []*partiesActivity // in registration order, so ties break the same way every run
	mon     *monitor
}

// PartiesInterval is the monitoring/adjustment period.
const PartiesInterval = 20 * time.Millisecond

// qosSlack is the multiplier over a client's calibration latency that
// defines its QoS target.
const qosSlack = 1.3

// shareStep is the fraction of CPU share shifted per adjustment.
const shareStep = 0.2

// minShare floors a client's CPU share multiplier.
const minShare = 0.1

// NewParties creates the PARTIES controller and starts its monitor.
func NewParties() *Parties {
	p := &Parties{}
	p.mon = startMonitor(PartiesInterval, p.adjust)
	return p
}

// Name implements isolation.Controller.
func (p *Parties) Name() string { return "parties" }

// Shutdown implements isolation.Controller.
func (p *Parties) Shutdown() { p.mon.Stop() }

// ConnStart implements isolation.Controller.
func (p *Parties) ConnStart(name string, kind isolation.Kind) isolation.Activity {
	a := &partiesActivity{share: 1.0}
	a.lat.alpha = 0.3
	p.mu.Lock()
	p.clients = append(p.clients, a)
	p.mu.Unlock()
	return a
}

// adjust is one PARTIES control step: find the worst QoS violator and shift
// CPU share to it from the heaviest CPU consumer.
func (p *Parties) adjust() {
	p.mu.Lock()
	defer p.mu.Unlock()

	var victim *partiesActivity
	worst := 1.0
	for _, a := range p.clients {
		a.mu.Lock()
		violation := 0.0
		if a.target > 0 && a.lat.init {
			violation = a.lat.get() / a.target
		}
		a.mu.Unlock()
		if violation > worst {
			worst, victim = violation, a
		}
	}
	if victim == nil {
		// No violation: slowly restore everyone toward full share
		// (PARTIES' upscale-when-slack behaviour).
		for _, a := range p.clients {
			a.mu.Lock()
			if a.share < 1.0 {
				a.share += shareStep / 2
				if a.share > 1.0 {
					a.share = 1.0
				}
			}
			a.mu.Unlock()
		}
		return
	}
	// Shift share from the heaviest CPU consumer (other than the victim).
	var noisy *partiesActivity
	var maxCPU time.Duration
	for _, a := range p.clients {
		if a == victim {
			continue
		}
		a.mu.Lock()
		cpu := a.cpuWindow
		a.cpuWindow = 0
		a.mu.Unlock()
		if cpu > maxCPU {
			maxCPU, noisy = cpu, a
		}
	}
	if noisy == nil {
		return
	}
	noisy.mu.Lock()
	noisy.share -= shareStep
	if noisy.share < minShare {
		noisy.share = minShare
	}
	noisy.mu.Unlock()
	victim.mu.Lock()
	victim.share += shareStep
	if victim.share > 1.0 {
		victim.share = 1.0
	}
	victim.mu.Unlock()
}

// partiesActivity is one client-connection control target.
type partiesActivity struct {
	mu        sync.Mutex
	share     float64 // CPU share multiplier in (0,1]
	target    float64 // QoS target latency (ns), from calibration
	calCount  int
	calSum    time.Duration
	lat       ewma // observed latency (ns)
	cpuWindow time.Duration
}

// calibration request count before the QoS target locks in.
const partiesCalibration = 20

func (a *partiesActivity) Begin(string) {}

func (a *partiesActivity) End(latency time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.calCount < partiesCalibration {
		a.calCount++
		a.calSum += latency
		if a.calCount == partiesCalibration {
			a.target = float64(a.calSum/partiesCalibration) * qosSlack
		}
		return
	}
	a.lat.add(float64(latency))
}

func (a *partiesActivity) Event(core.ResourceKey, core.EventType) {}
func (a *partiesActivity) Gate() time.Duration                    { return 0 }
func (a *partiesActivity) Close()                                 {}
func (a *partiesActivity) IO(d time.Duration)                     { exec.IOWait(d) }

// Work runs CPU work stretched by the client's current share: a share of
// 0.5 makes CPU work take twice as long, modeling reduced core/bandwidth
// allocation. The stretch applies even while the activity holds virtual
// resources — PARTIES cannot know.
func (a *partiesActivity) Work(d time.Duration) {
	a.mu.Lock()
	share := a.share
	cpu := d
	a.cpuWindow += cpu
	a.mu.Unlock()
	exec.Work(d)
	if share < 1.0 {
		// The remainder of the time slice is lost to other services.
		exec.SleepPrecise(time.Duration(float64(d) * (1/share - 1)))
	}
}
