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
