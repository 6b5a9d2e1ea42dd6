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
// histogram's last counter (self ends in it; every verdict writes it) is a full
// line before trace/obs/attrObs, which every event reads; and the crossing
// stripes are a line apart from one another and from those pointers.
func TestManagerLayout(t *testing.T) {
	var m Manager
	hist := unsafe.Offsetof(m.self) + unsafe.Offsetof(m.self.verdictLatency) + unsafe.Offsetof(m.self.verdictLatency.n)
	if gap := unsafe.Offsetof(m.trace) - (hist + 8); gap < cacheLineSize {
		t.Fatalf("verdictLatency.n ends %d bytes before trace, want >= %d", gap, cacheLineSize)
	}
	if gap := unsafe.Offsetof(m.crossings) - (unsafe.Offsetof(m.attrObs) + unsafe.Sizeof(m.attrObs)); gap < cacheLineSize {
		t.Fatalf("the first crossing stripe starts %d bytes after attrObs, want >= %d", gap, cacheLineSize)
	}
	if stride := unsafe.Sizeof(m.crossings[0]); stride != cacheLineSize || crossingStripes&(crossingStripes-1) != 0 {
		t.Fatalf("crossing stripes: stride %d (want %d), count %d (want a power of two)", stride, cacheLineSize, crossingStripes)
	}
}
