package vres

import (
	"container/list"
	"sync"
	"time"

	"pbox/internal/core"
	"pbox/internal/isolation"
)

// PageID names a page of on-disk data.
type PageID struct {
	Table string
	Page  int
}

// BufferPoolCosts parameterizes the cost model of pool operations.
type BufferPoolCosts struct {
	// Hit is the CPU cost of serving a cached page.
	Hit time.Duration
	// ReadIO is the IO cost of reading a page from "disk" on a miss.
	ReadIO time.Duration
	// Scan is the CPU cost of scanning the LRU for an eviction victim
	// (buf_LRU_scan_and_free_block in Figure 4).
	Scan time.Duration
	// WritebackIO is the IO cost of flushing a dirty page before reuse.
	WritebackIO time.Duration
}

// DefaultBufferPoolCosts returns the scaled-down cost model used by the
// minidb substrate.
func DefaultBufferPoolCosts() BufferPoolCosts {
	return BufferPoolCosts{
		Hit:         5 * time.Microsecond,
		ReadIO:      120 * time.Microsecond,
		Scan:        40 * time.Microsecond,
		WritebackIO: 150 * time.Microsecond,
	}
}

// BufferPool models InnoDB's buffer pool (case c2 of the motivation, case
// c5's sibling): a fixed number of frames caching pages, an LRU replacement
// list, and — crucially — the *free blocks* as the contended virtual
// resource. As the paper observes (Section 2.2, Figure 4), the pool's mutex
// is not the real contention point; the free blocks consumed without the
// lock are.
type BufferPool struct {
	resource
	costs BufferPoolCosts

	mu       sync.Mutex
	capacity int
	free     int
	pages    map[PageID]*list.Element // PageID -> *frame element
	lru      *list.List               // front = MRU, back = LRU victim
	rng      uint64                   // xorshift state of the victim pick
}

type frame struct {
	id    PageID
	dirty bool
}

// NewBufferPool creates a pool with the given number of frames.
func NewBufferPool(capacity int, costs BufferPoolCosts) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		resource: newResource(0),
		costs:    costs,
		capacity: capacity,
		free:     capacity,
		pages:    make(map[PageID]*list.Element),
		lru:      list.New(),
		rng:      0x9e3779b97f4a7c15,
	}
}

// Get accesses one page on behalf of act, returning whether it was a cache
// hit. On a miss the caller pays the read IO; if no free frame exists the
// caller is deferred on the free-block resource while it evicts an LRU
// victim (scan CPU + writeback IO for dirty pages).
func (bp *BufferPool) Get(act isolation.Activity, id PageID, dirty bool) (hit bool) {
	bp.mu.Lock()
	if e, ok := bp.pages[id]; ok {
		bp.lru.MoveToFront(e)
		if dirty {
			e.Value.(*frame).dirty = true
		}
		bp.mu.Unlock()
		if act != nil {
			act.Work(bp.costs.Hit)
		}
		return true
	}
	if bp.free > 0 {
		bp.free--
		bp.install(id, dirty)
		bp.mu.Unlock()
		if act != nil {
			act.IO(bp.costs.ReadIO)
		}
		return false
	}
	bp.mu.Unlock()

	// No free block: the deferred path of buf_LRU_get_free_block.
	bp.event(act, core.Prepare)
	bp.evictOne(act)
	bp.mu.Lock()
	bp.install(id, dirty)
	bp.mu.Unlock()
	bp.event(act, core.Enter)
	if act != nil {
		act.IO(bp.costs.ReadIO)
	}
	return false
}

// GetBatch accesses a sequence of pages as one sweep, holding the free-block
// resource for the whole batch — the mysqldump-style access pattern of case
// c2: the noisy activity keeps taking blocks from the pool.
func (bp *BufferPool) GetBatch(act isolation.Activity, ids []PageID) (hits int) {
	if len(ids) == 0 {
		return 0
	}
	bp.event(act, core.Prepare)
	bp.event(act, core.Enter)
	bp.event(act, core.Hold)
	for _, id := range ids {
		bp.mu.Lock()
		if e, ok := bp.pages[id]; ok {
			bp.lru.MoveToFront(e)
			bp.mu.Unlock()
			hits++
			if act != nil {
				act.Work(bp.costs.Hit)
			}
			continue
		}
		if bp.free > 0 {
			bp.free--
			bp.install(id, false)
			bp.mu.Unlock()
		} else {
			bp.mu.Unlock()
			bp.evictOne(act)
			bp.mu.Lock()
			bp.install(id, false)
			bp.mu.Unlock()
		}
		if act != nil {
			// Sequential sweeps read ahead: the per-page IO cost is
			// amortized over the batch (mysqldump streams the table).
			act.IO(bp.costs.ReadIO / 4)
		}
	}
	bp.event(act, core.Unhold)
	return hits
}

// evictOne frees exactly one frame by evicting the LRU victim, charging the
// scan and (for dirty pages) writeback costs to act.
func (bp *BufferPool) evictOne(act isolation.Activity) {
	for {
		bp.mu.Lock()
		if bp.free > 0 {
			bp.free--
			bp.mu.Unlock()
			return
		}
		victim := bp.pickVictimLocked()
		if victim == nil {
			bp.mu.Unlock()
			bp.sleep()
			continue
		}
		f := victim.Value.(*frame)
		bp.lru.Remove(victim)
		delete(bp.pages, f.id)
		bp.mu.Unlock()
		if act != nil {
			act.Work(bp.costs.Scan)
			if f.dirty {
				act.IO(bp.costs.WritebackIO)
			}
		}
		// The freed frame is consumed directly by this caller.
		return
	}
}

// pickVictimLocked chooses an eviction victim. InnoDB's replacement is not
// strictly recency-ordered (midpoint insertion, old/young sublists, random
// readahead): under a streaming scan the working set is *not* protected —
// which is precisely the reported behaviour of the mysqldump case. The
// victim is a pseudo-random resident page, from a fixed seed so a run's
// evictions repeat in every run. Caller holds bp.mu.
func (bp *BufferPool) pickVictimLocked() *list.Element {
	e := bp.lru.Back()
	if e == nil {
		return nil
	}
	bp.rng ^= bp.rng << 13
	bp.rng ^= bp.rng >> 7
	bp.rng ^= bp.rng << 17
	for n := bp.rng % uint64(bp.lru.Len()); n > 0; n-- {
		e = e.Prev()
	}
	return e
}

// install maps id to a fresh frame at the MRU position. Caller holds bp.mu
// and has already accounted for the frame (free-- or eviction).
func (bp *BufferPool) install(id PageID, dirty bool) {
	e := bp.lru.PushFront(&frame{id: id, dirty: dirty})
	bp.pages[id] = e
}

// Cached reports whether a page is currently resident (diagnostics).
func (bp *BufferPool) Cached(id PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	_, ok := bp.pages[id]
	return ok
}

// Resident returns the number of resident pages (diagnostics).
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.pages)
}

// FreeFrames returns the number of unused frames (diagnostics).
func (bp *BufferPool) FreeFrames() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.free
}

// Capacity returns the total frame count.
func (bp *BufferPool) Capacity() int { return bp.capacity }
