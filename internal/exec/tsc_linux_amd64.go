package exec

import (
	"bytes"
	"os"
)

// rdtsc reads the time-stamp counter, unfenced.
func rdtsc() uint64

// cpuid returns EAX and EDX of CPUID leaf (subleaf 0).
func cpuid(leaf uint32) (eax, edx uint32)

// tscUsable reports whether the time-stamp counter can stand in for the
// kernel's monotonic clock: the CPU says it is invariant (it ticks at one rate
// through every P-, C- and T-state; CPUID leaf 0x80000007, EDX bit 8) and the
// kernel's own clocksource is tsc (it found the counter synchronised across
// CPUs and stable, and reads it for CLOCK_MONOTONIC).
func tscUsable() bool {
	if top, _ := cpuid(0x80000000); top < 0x80000007 {
		return false
	}
	if _, edx := cpuid(0x80000007); edx&(1<<8) == 0 {
		return false
	}
	src, err := os.ReadFile("/sys/devices/system/clocksource/clocksource0/current_clocksource")
	return err == nil && string(bytes.TrimSpace(src)) == "tsc"
}
