package exec

import (
	"math/bits"
	"time"
)

// tscClock converts time-stamp-counter ticks to Now's nanoseconds: ns0 +
// (ticks − tick0) · mult / 2³², the product taken in 128 bits. The zero value
// is the host that does not make the counter safe (tscUsable), and Now reads
// the runtime clock there.
type tscClock struct {
	tick0 uint64 // the counter at the anchor
	ns0   int64  // runtimeNow at the anchor
	mult  uint64 // nanoseconds per tick, in units of 2⁻³²
}

// tsc is the counter clock Now reads, calibrated once at package init.
var tsc = calibrateTSC()

// calWindow is how long init measures the counter's rate against the runtime
// clock. Each end is read inside a bracket of two counter reads, so the rate is
// good to a few ppm (2.2 ppm at worst in 30 windows on a 2-vCPU VM guest); a
// rate error skews only manager stamps, never a wait (waits keep the runtime
// clock).
const calWindow = 2 * time.Millisecond

// calibrateTSC measures the counter's rate over calWindow and anchors the
// clock at the window's end, so Now continues runtimeNow from there.
func calibrateTSC() tscClock {
	if !tscUsable() {
		return tscClock{}
	}
	t1, n1 := tscSample()
	time.Sleep(calWindow)
	t2, n2 := tscSample()
	return newTSCClock(t1, n1, t2, n2)
}

// tscSample reads the counter and runtimeNow together: of a few tries, the
// runtime read that two counter reads bracket most tightly, paired with the
// bracket's midpoint.
func tscSample() (tick uint64, ns int64) {
	best := ^uint64(0)
	for i := 0; i < 8; i++ {
		a := rdtsc()
		n := runtimeNow()
		if b := rdtsc(); b-a < best {
			best, tick, ns = b-a, a+(b-a)/2, n
		}
	}
	return tick, ns
}

// newTSCClock is the clock through the samples (t1, n1) and (t2, n2), anchored
// at the second; it is the zero clock if either difference is not positive or
// a tick is 2³² ns or longer (mult would not fit 64 bits).
func newTSCClock(t1 uint64, n1 int64, t2 uint64, n2 int64) tscClock {
	dt, dn := t2-t1, n2-n1
	if t2 <= t1 || dn <= 0 || uint64(dn)>>32 >= dt {
		return tscClock{}
	}
	mult, _ := bits.Div64(uint64(dn)>>32, uint64(dn)<<32, dt)
	return tscClock{tick0: t2, ns0: n2, mult: mult}
}

// ns converts a counter read. A read behind the anchor (another CPU's, inside
// the out-of-order window) is the anchor.
//
//pbox:hotpath
func (c *tscClock) ns(ticks uint64) int64 {
	d := ticks - c.tick0
	if int64(d) < 0 {
		d = 0
	}
	hi, lo := bits.Mul64(d, c.mult)
	return c.ns0 + int64(hi<<32|lo>>32)
}
