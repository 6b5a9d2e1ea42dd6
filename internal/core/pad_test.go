package core

import (
	"sort"
	"testing"
	"unsafe"
)

// TestContentionSlotLayout: any two distinct contention slots the lookup can
// return sit at least a cache line apart (the false-sharing guarantee of
// pad.go), a key routes to the same slot every time, and stickySlots counts
// a contended slot.
func TestContentionSlotLayout(t *testing.T) {
	m := NewManager(Options{})
	seen := make(map[uintptr]bool)
	for k := ResourceKey(1); len(seen) < contentionSlots && k < 1<<20; k++ {
		seen[uintptr(unsafe.Pointer(m.contentionSlot(k)))] = true
	}
	if len(seen) != contentionSlots {
		t.Fatalf("reached %d distinct slots, want %d", len(seen), contentionSlots)
	}
	addrs := make([]uintptr, 0, len(seen))
	for a := range seen {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for i := 1; i < len(addrs); i++ {
		if gap := addrs[i] - addrs[i-1]; gap < cacheLineSize {
			t.Fatalf("consecutive slots are %d bytes apart, want >= %d", gap, cacheLineSize)
		}
	}

	key := ResourceKey(0xdeadbeef)
	slot := m.contentionSlot(key)
	slot.Store(7)
	if got := m.contentionSlot(key).Load(); got != 7 {
		t.Fatal("slot lookup is not stable")
	}
	if got := m.contention.stickySlots(); got != 0 {
		t.Fatalf("stickySlots = %d before any contention, want 0", got)
	}
	slot.Store(contendedSlot)
	if got := m.contention.stickySlots(); got != 1 {
		t.Fatalf("stickySlots = %d, want 1", got)
	}
	// The keys refmodel's differential draws to alias on purpose do alias.
	for _, keys := range [][]ResourceKey{{42, 0x51d3}, {0x6000, 0x63db, 0x663d, 0x6a18}} {
		for _, k := range keys[1:] {
			if m.contentionSlot(k) != m.contentionSlot(keys[0]) {
				t.Fatalf("keys %#x and %#x do not share a contention slot", keys[0], k)
			}
		}
	}
}

// TestManagerLayout: the two deliberate gaps in the Manager. The verdict
// histogram's last word (self ends in it; every verdict writes it) is a full
// line before trace/obs/attrObs, which every event reads; and the counter
// stripes — a power of two of them, each a whole number of lines, starting on a
// line boundary in a live manager — share no line with one another, nor with
// those pointers.
func TestManagerLayout(t *testing.T) {
	var m Manager
	hist := unsafe.Offsetof(m.self) + unsafe.Offsetof(m.self.verdictLatency) + unsafe.Sizeof(m.self.verdictLatency) - 8
	if gap := unsafe.Offsetof(m.trace) - (hist + 8); gap < cacheLineSize {
		t.Fatalf("the verdict histogram's last word ends %d bytes before trace, want >= %d", gap, cacheLineSize)
	}
	if stride := unsafe.Sizeof(m.stripes[0]); stride%cacheLineSize != 0 || counterStripes&(counterStripes-1) != 0 {
		t.Fatalf("counter stripes: stride %d (want a multiple of %d), count %d (want a power of two)", stride, cacheLineSize, counterStripes)
	}
	if at := uintptr(unsafe.Pointer(&NewManager(Options{}).stripes[0])); at%cacheLineSize != 0 {
		t.Fatalf("the first counter stripe sits %d bytes into a line", at%cacheLineSize)
	}
	stripes, ptrs := unsafe.Offsetof(m.stripes), unsafe.Offsetof(m.trace)
	stripesEnd, ptrsEnd := stripes+unsafe.Sizeof(m.stripes), unsafe.Offsetof(m.attrObs)+unsafe.Sizeof(m.attrObs)
	if stripesEnd+cacheLineSize > ptrs && ptrsEnd+cacheLineSize > stripes {
		t.Fatalf("the counter stripes [%d, %d) come within a line of trace/obs/attrObs [%d, %d)", stripes, stripesEnd, ptrs, ptrsEnd)
	}
}

// TestTraceRingLayout: every trace stripe is one line of its own, so two
// tenants on different stripes share no line a ring write touches. The
// stripes start on a line in the type and in a live ring, and each is exactly
// a line long. The live ring is a manager's: one the compiler keeps on a
// stack is aligned to a word only.
func TestTraceRingLayout(t *testing.T) {
	var r traceRing
	if off := unsafe.Offsetof(r.stripes); off%cacheLineSize != 0 {
		t.Fatalf("the trace stripes start %d bytes into the ring, %d into a line", off, off%cacheLineSize)
	}
	if size := unsafe.Sizeof(traceStripe{}); size != cacheLineSize {
		t.Fatalf("a trace stripe is %d bytes, want %d", size, cacheLineSize)
	}
	if at := uintptr(unsafe.Pointer(&NewManager(Options{TraceSize: 1}).trace.stripes[0])); at%cacheLineSize != 0 {
		t.Fatalf("a live ring's first stripe sits %d bytes into a line", at%cacheLineSize)
	}
}
