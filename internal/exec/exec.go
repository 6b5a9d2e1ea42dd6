// Package exec provides the simulated execution substrate for the pBox
// reproduction: calibrated work units, IO-style waits, precise short sleeps,
// and a monotonic clock.
//
// The paper's evaluation runs on a 20-hyperthread CloudLab Xeon testbed
// where hardware resources are plentiful — the point of intra-app
// interference is that it happens anyway. The reproduction environment may
// have as little as one CPU and a coarse (~1ms) timer, so this package
// implements duration-accurate waiting as wall-clock-deadline loops that
// call runtime.Gosched() every iteration: N concurrent activities each
// complete in ≈ their nominal wall duration regardless of core count,
// giving the "sufficient hardware" semantics of the paper's testbed, and
// sub-millisecond durations stay accurate despite the coarse timer.
//
// Now, the clock every manager stamp is taken on, reads the CPU's
// time-stamp counter where the host makes that safe (linux/amd64, an
// invariant counter, and the kernel's own clocksource is tsc; see tsc.go), and
// the runtime's monotonic clock (the vDSO) everywhere else. The counter read is
// unfenced, so the clock is monotonic per CPU; across CPUs two reads may be
// out of order by the out-of-order window, which is why the manager clamps at 0
// every interval whose two ends may be read on different CPUs. The waits
// (SleepPrecise, Work, Spin) take their deadlines from the runtime clock,
// which the runtime's timers run on.
//
// Virtualize is the one test seam: inside a testing/synctest bubble it turns
// every wait into a plain time.Sleep on the bubble's fake clock, so a case
// re-executes deterministically in virtual time.
package exec

import (
	"runtime"
	"sync/atomic"
	"time"
)

// sink defeats dead-code elimination of spin loops.
var sink atomic.Uint64

var processStart = time.Now()

// virtual is set by Virtualize: Work and SleepPrecise sleep the timer, and Now
// reads the runtime clock. Every Now reads it, from any goroutine.
var virtual atomic.Bool

// Virtualize switches the package to virtual mode for a testing/synctest
// bubble, whose fake clock moves only while every goroutine in it is blocked:
// Work and SleepPrecise (and so IOWait and Spin) become plain time.Sleep, so
// simulated work takes fake time and no CPU, and Now's origin is taken again
// from the bubble's clock. Call it in the bubble before it starts goroutines,
// and call the returned restore after the bubble has ended. Now's real path is
// unchanged by the seam.
func Virtualize() (restore func()) {
	start, was := processStart, virtual.Load()
	processStart = time.Now()
	virtual.Store(true)
	return func() { processStart = start; virtual.Store(was) }
}

// Now returns a monotonic timestamp in nanoseconds since the process started.
// All pBox bookkeeping is done on this clock so the manager never observes
// wall-clock jumps. It reads the time-stamp counter, scaled and anchored to
// continue the runtime clock, where the host makes that safe, and the runtime
// clock otherwise and in virtual mode. Monotonic per CPU (see the package
// comment).
//
//pbox:hotpath
func Now() int64 {
	if tsc.mult != 0 && !virtual.Load() {
		return tsc.ns(rdtsc())
	}
	return runtimeNow()
}

// runtimeNow is the runtime's monotonic clock since the process started:
// Now's fallback, and the clock of every wait's deadline, because the
// runtime's timers run on it.
func runtimeNow() int64 { return int64(time.Since(processStart)) }

// spinThreshold is the slack below which waiting is done by yielding spins
// rather than timer sleeps (the environment's timer granularity is ~1ms).
const spinThreshold = 2 * time.Millisecond

// SleepPrecise waits for approximately d with sub-millisecond accuracy:
// long waits park on the timer for the bulk and spin-yield the remainder;
// short waits spin-yield entirely. The yielding spin keeps other goroutines
// (the "other threads" of the simulated application) running.
func SleepPrecise(d time.Duration) {
	if d <= 0 {
		return
	}
	if virtual.Load() {
		time.Sleep(d)
		return
	}
	deadline := runtimeNow() + int64(d)
	// Park on the timer only when the slack left for spinning exceeds the
	// timer's worst-case overshoot (~1.5ms here), so the wakeup always
	// lands before the deadline and the spin finishes precisely.
	if d > 2*spinThreshold {
		time.Sleep(d - 2*spinThreshold)
	}
	for runtimeNow() < deadline {
		runtime.Gosched()
	}
}

// Work models d worth of CPU-bound request processing. It completes in ≈ d
// wall time while yielding to peers, so concurrent activities overlap as
// they would on the paper's many-core testbed. Controllers that throttle
// CPU stretch requests by injecting additional waits around Work slices (see
// WorkChunked); the simulated "CPU consumption" is the nominal d, which is
// what quota-based baselines account.
func Work(d time.Duration) {
	if d <= 0 {
		return
	}
	if virtual.Load() {
		time.Sleep(d)
		return
	}
	deadline := runtimeNow() + int64(d)
	var acc uint64
	for runtimeNow() < deadline {
		for i := 0; i < 16; i++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
		runtime.Gosched()
	}
	sink.Add(acc | 1)
}

// WorkChunked performs a total of d worth of work, invoking yield after
// every chunk with the cumulative amount done. Controllers use the yield
// hook to inject throttling delays (e.g. a cgroup CPU-quota pause)
// mid-request, the way the kernel scheduler preempts a thread between time
// slices.
func WorkChunked(d, chunk time.Duration, yield func(done time.Duration)) {
	if d <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = d
	}
	var done time.Duration
	for done < d {
		step := chunk
		if rem := d - done; rem < step {
			step = rem
		}
		Work(step)
		done += step
		if yield != nil {
			yield(done)
		}
	}
}

// IOWait models a blocking IO operation (disk read after a buffer-pool
// miss, network round trip). It is not CPU consumption: quota-based
// baselines do not account it.
func IOWait(d time.Duration) {
	SleepPrecise(d)
}

// Spin busy-waits (yielding) until the condition function returns true or
// the timeout elapses, polling every poll interval. It mirrors the
// sleep-and-recheck loops (Figure 9 of the paper) that applications use to
// wait for virtual resources. Returns true if cond became true.
func Spin(cond func() bool, poll, timeout time.Duration) bool {
	deadline := runtimeNow() + int64(timeout)
	for {
		if cond() {
			return true
		}
		if timeout > 0 && runtimeNow() >= deadline {
			return false
		}
		SleepPrecise(poll)
	}
}
