package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The manager's resource-side state (who waits on a resource, who holds it,
// what it is called) is striped across a power-of-two number of shards keyed
// by a hash of the ResourceKey, so PREPARE/ENTER/HOLD/UNHOLD traffic on
// unrelated resources never touches the same lock. See DESIGN.md §8 for the
// full lock-order contract:
//
//	snap → eventSpool.mu → registry → pbox.mu → shard.mu → verdictMu →
//	leaf locks (actMu, penMu, shard.namesMu, trace stripes, trace notify)
//
// with two extra rules: a shard lock is never held while acquiring the
// registry lock, and at most one pBox's actMu (or penMu) is held at a time —
// as is at most one trace stripe, outside the ring reader's index-ordered
// sweep.
//
// The stripe set is fixed at NewManager (defaultShardCount) and immutable for
// the manager's lifetime.

// shard is one stripe of the resource-side state. Field groups are spaced
// by cache-line pads (pad.go): the stripe mutex + maps that one event
// mutates, the name leaf lock that observer callbacks read, and the
// acquisition counter that SelfStats sums are touched by different
// goroutines for different reasons, and hot shards must not false-share
// across groups or with neighboring allocations.
type shard struct {
	mu sync.Mutex
	// competitors holds the per-resource records (the competitor map of
	// Algorithm 1, with a holder count) for keys hashing to this shard. A
	// record is created at a key's first PREPARE or HOLD and kept — resources
	// are held and released in a tight loop — so the index is bounded by the
	// number of distinct resources touched.
	competitors map[ResourceKey]*competitorList

	_ cacheLinePad

	// names maps virtual-resource keys to human-readable names registered
	// via NameResource. It lives under its own lock (not shard.mu) so
	// Observer implementations may resolve names from inside hook
	// callbacks — including callbacks fired while shard.mu is held —
	// without deadlocking. namesMu is a leaf lock: nothing is acquired
	// under it.
	namesMu sync.RWMutex
	names   map[ResourceKey]string

	_ cacheLinePad

	// locks counts mu acquisitions on this stripe for the self-telemetry
	// report (SelfStats.ShardLockAcquisitions): every s.mu.Lock() site adds
	// one. It is an atomic so SelfStats can read it without the stripe lock.
	locks atomic.Int64

	_ cacheLinePad // keep the counter off the next allocation's line
}

// resource returns key's record, created at first use. Caller holds s.mu.
func (s *shard) resource(key ResourceKey) *competitorList {
	cl := s.competitors[key]
	if cl == nil {
		cl = &competitorList{}
		s.competitors[key] = cl
	}
	return cl
}

// shardSet is the shard topology: the stripe array plus the matching index
// shift, built once by NewManager and never changed.
type shardSet struct {
	shards []*shard
	// shift is 64 - log2(len(shards)); a shift of 64 (single shard) yields
	// index 0 by Go's defined >=width shift semantics.
	shift uint
}

// shardOf returns the shard owning key within this set.
//
//pbox:hotpath
func (ss *shardSet) shardOf(key ResourceKey) *shard {
	return ss.shards[(uint64(key)*fibMix)>>ss.shift]
}

// fibMix is the 64-bit golden-ratio multiplier of Fibonacci hashing. Raw
// ResourceKeys are usually pointer values whose low bits are all zero from
// alignment; the multiply spreads them across the high bits, which shardOf
// then shifts down.
const fibMix = 0x9e3779b97f4a7c15

// shardFor returns the shard owning key.
//
//pbox:hotpath
func (m *Manager) shardFor(key ResourceKey) *shard {
	return m.shards.shardOf(key)
}

// lockShard returns key's shard with its stripe lock held. Every event-side
// shard acquisition goes through here so the per-stripe acquisition counter
// stays exact.
//
//pbox:hotpath
func (m *Manager) lockShard(key ResourceKey) *shard {
	s := m.shardFor(key)
	s.mu.Lock()
	s.locks.Add(1)
	return s
}

// newShardSet allocates a set of n shards (n must be a power of two).
func newShardSet(n int) shardSet {
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{competitors: make(map[ResourceKey]*competitorList)}
	}
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	return shardSet{shards: shards, shift: 64 - bits}
}

// defaultShardCount sizes every manager's stripe set.
func defaultShardCount() int {
	return defaultShardCountFor(runtime.GOMAXPROCS(0))
}

// defaultShardCountFor is the sizing rule: 4× the scheduler's parallelism,
// rounded up to a power of two and clamped to [8, 256]. Oversubscribing the
// core count keeps two hot resources from colliding in one stripe by
// birthday accident. The input is deliberately GOMAXPROCS, not NumCPU: in a
// container with a CPU quota GOMAXPROCS reflects the runnable parallelism
// the runtime will actually use, while NumCPU reports the host's cores —
// sizing from NumCPU would over-stripe a quota-limited process (wasted
// memory, colder stripe maps) for parallelism it can never exhibit.
// TestDefaultShardCountRule pins this rule.
func defaultShardCountFor(parallelism int) int {
	n := nextPow2(4 * parallelism)
	if n < minShards {
		n = minShards
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

// minShards and maxShards bound the default stripe count. The floor keeps
// birthday collisions rare even at GOMAXPROCS=1; the ceiling caps the
// stop-the-world sweep cost of Status() and the per-manager memory.
const (
	minShards = 8
	maxShards = 256
)

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// lockAllShards acquires every stripe lock in index order (the only order
// in which more than one shard lock may ever be held) and returns the
// matching reverse-order unlock. It is the stop-the-world half of Status():
// with all shards held, no event can move a waiter or holder, so the combined
// snapshot can never pair a pBox list from one instant with resource-side
// state from another.
func (m *Manager) lockAllShards() func() {
	shards := m.shards.shards
	for _, s := range shards {
		//pboxlint:ignore lockorder stop-the-world sweep: shard locks are taken in ascending index order, the one sanctioned multi-shard hold (DESIGN.md §8)
		s.mu.Lock()
		s.locks.Add(1)
	}
	return func() {
		for i := len(shards) - 1; i >= 0; i-- {
			shards[i].mu.Unlock()
		}
	}
}
