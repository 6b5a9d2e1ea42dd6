// Fixture for the lockorder pass: types mirror the internal/core lock
// classes (the pass ranks by owner-type and field name, so the fixture
// exercises the exact production table).
package lockorder

import "sync"

type Manager struct {
	snap      sync.Mutex
	reg       sync.Mutex
	verdictMu sync.Mutex
	shards    []*shard
}

type eventSpool struct {
	mu sync.Mutex
}

type PBox struct {
	mu    sync.Mutex
	actMu sync.Mutex
	penMu sync.Mutex
}

type shard struct {
	mu      sync.Mutex
	namesMu sync.RWMutex
}

type traceRing struct {
	notifyMu sync.Mutex
	stripes  [8]traceStripe
}

type traceStripe struct {
	mu sync.Mutex
}

// goodDescent walks the documented order top to bottom: clean.
func goodDescent(m *Manager, p *PBox, s *shard) {
	m.reg.Lock()
	p.mu.Lock()
	s.mu.Lock()
	m.verdictMu.Lock()
	p.actMu.Lock()
	p.actMu.Unlock()
	m.verdictMu.Unlock()
	s.mu.Unlock()
	p.mu.Unlock()
	m.reg.Unlock()
}

// badShardThenRegistry inverts the order.
func badShardThenRegistry(m *Manager, s *shard) {
	s.mu.Lock()
	m.reg.Lock() // want `acquires Manager\.reg while holding shard\.mu`
	m.reg.Unlock()
	s.mu.Unlock()
}

// badParenLock takes the lock through a parenthesised method value.
func badParenLock(m *Manager, s *shard) {
	m.verdictMu.Lock()
	(s.mu.Lock)() // want `acquires shard\.mu while holding Manager\.verdictMu`
	s.mu.Unlock()
	m.verdictMu.Unlock()
}

// badTwoPBoxes holds two pbox locks at once.
func badTwoPBoxes(a, b *PBox) {
	a.mu.Lock()
	b.mu.Lock() // want `while a PBox\.mu is already held`
	b.mu.Unlock()
	a.mu.Unlock()
}

// badLeafThenVerdict acquires under a terminal leaf.
func badLeafThenVerdict(m *Manager, p *PBox) {
	p.actMu.Lock()
	m.verdictMu.Lock() // want `while holding leaf lock PBox\.actMu`
	m.verdictMu.Unlock()
	p.actMu.Unlock()
}

// badTwoLeaves holds two leaves at once.
func badTwoLeaves(p *PBox) {
	p.actMu.Lock()
	p.penMu.Lock() // want `while holding leaf lock PBox\.actMu`
	p.penMu.Unlock()
	p.actMu.Unlock()
}

// goodSequentialLeaves takes leaves one at a time: clean.
func goodSequentialLeaves(p *PBox) {
	p.actMu.Lock()
	p.actMu.Unlock()
	p.penMu.Lock()
	p.penMu.Unlock()
}

// takeVerdict is a helper whose summary contains Manager.verdictMu.
func takeVerdict(m *Manager) {
	m.verdictMu.Lock()
	m.verdictMu.Unlock()
}

// badCallUnderLeaf reaches verdictMu interprocedurally with a leaf held.
func badCallUnderLeaf(m *Manager, p *PBox) {
	p.penMu.Lock()
	takeVerdict(m) // want `call to takeVerdict acquires Manager\.verdictMu while holding leaf lock PBox\.penMu`
	p.penMu.Unlock()
}

// goodDefer: deferred unlocks keep the locks held to function end, which is
// still a clean descent.
func goodDefer(m *Manager, p *PBox) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m.verdictMu.Lock()
	defer m.verdictMu.Unlock()
}

// badBranchMerge: a lock taken on one branch is conservatively held after
// the join.
func badBranchMerge(p *PBox, s *shard, cond bool) {
	if cond {
		s.mu.Lock()
	}
	p.mu.Lock() // want `acquires PBox\.mu while holding shard\.mu`
	p.mu.Unlock()
	if cond {
		s.mu.Unlock()
	}
}

// badLoopReacquire is the unsanctioned version of the stop-the-world sweep.
func badLoopReacquire(m *Manager) {
	for _, s := range m.shards {
		s.mu.Lock() // want `while a shard\.mu is already held`
	}
}

// suppressedLoopReacquire carries the documented exception comment and is
// silenced by the driver (exercised end-to-end through linttest).
func suppressedLoopReacquire(m *Manager) {
	for _, s := range m.shards {
		//pboxlint:ignore lockorder index-ordered sweep, documented exception
		s.mu.Lock()
	}
}

// badRLockUnderLeaf: read locks rank the same as writes.
func badRLockUnderLeaf(s *shard) {
	s.namesMu.RLock()
	s.mu.Lock() // want `acquires shard\.mu while holding leaf lock shard\.namesMu`
	s.mu.Unlock()
	s.namesMu.RUnlock()
}

// goodFlushDescent is the spool flush shape: the spool's one lock ranks
// before every manager lock and is held across the in-place replay's descent.
// Clean.
func goodFlushDescent(sp *eventSpool, p *PBox, s *shard) {
	sp.mu.Lock()
	p.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	p.mu.Unlock()
	sp.mu.Unlock()
}

// replayUnderPBox is a helper whose summary contains PBox.mu, shard.mu,
// Manager.verdictMu and a leaf.
func replayUnderPBox(m *Manager, p *PBox, s *shard) {
	p.mu.Lock()
	s.mu.Lock()
	takeVerdict(m)
	p.actMu.Lock()
	p.actMu.Unlock()
	s.mu.Unlock()
	p.mu.Unlock()
}

// goodReplayUnderSpool reaches the whole replay interprocedurally with the
// spool lock held: clean, the spool lock is not a leaf.
func goodReplayUnderSpool(m *Manager, sp *eventSpool, p *PBox, s *shard) {
	sp.mu.Lock()
	replayUnderPBox(m, p, s)
	sp.mu.Unlock()
}

// badTwoSpools: a worker that finds another spool named flushes it after its
// own lock is released — never two spool locks at once.
func badTwoSpools(own, other *eventSpool) {
	own.mu.Lock()
	other.mu.Lock() // want `while a eventSpool\.mu is already held`
	other.mu.Unlock()
	own.mu.Unlock()
}

// badFlushUnderPBox: a flush started while holding any manager lock inverts
// the order (flushes must happen before the caller descends).
func badFlushUnderPBox(sp *eventSpool, p *PBox) {
	p.mu.Lock()
	sp.mu.Lock() // want `acquires eventSpool\.mu while holding PBox\.mu`
	sp.mu.Unlock()
	p.mu.Unlock()
}

// goodSnapRebuild is the §12 snapshot-rebuild shape: the build mutex is the
// outermost rank, held across the spool sweep and the full descent. Clean.
func goodSnapRebuild(m *Manager, sp *eventSpool, s *shard) {
	m.snap.Lock()
	sp.mu.Lock()
	sp.mu.Unlock()
	m.reg.Lock()
	s.mu.Lock()
	m.verdictMu.Lock()
	m.verdictMu.Unlock()
	s.mu.Unlock()
	m.reg.Unlock()
	m.snap.Unlock()
}

// badFlushThenSnap: the snapshot build mutex precedes even a spool flush — a
// rebuild started mid-flush would deadlock against the flush its own sweep
// starts.
func badFlushThenSnap(m *Manager, sp *eventSpool) {
	sp.mu.Lock()
	m.snap.Lock() // want `acquires Manager\.snap while holding eventSpool\.mu`
	m.snap.Unlock()
	sp.mu.Unlock()
}

// badShardThenSnap: no manager lock may be held when a rebuild starts.
func badShardThenSnap(m *Manager, s *shard) {
	s.mu.Lock()
	m.snap.Lock() // want `acquires Manager\.snap while holding shard\.mu`
	m.snap.Unlock()
	s.mu.Unlock()
}

// localMutex: locks outside the class table are ignored.
func localMutex(r *traceRing) {
	var mu sync.Mutex
	mu.Lock()
	r.notifyMu.Lock()
	r.notifyMu.Unlock()
	mu.Unlock()
}

// badTwoRingStripes: a trace-ring writer holds its own pBox's stripe and
// nothing else; a second stripe lock outside the reader's sweep is reported.
func badTwoRingStripes(r *traceRing, a, b int) {
	r.stripes[a&7].mu.Lock()
	r.stripes[b&7].mu.Lock() // want `while a traceStripe\.mu is already held`
	r.stripes[b&7].mu.Unlock()
	r.stripes[a&7].mu.Unlock()
}

// badStripeThenNotify: the notification lock is a leaf of its own, taken only
// after the writer's stripe is released.
func badStripeThenNotify(r *traceRing) {
	r.stripes[0].mu.Lock()
	r.notifyMu.Lock() // want `acquires traceRing\.notifyMu while holding leaf lock traceStripe\.mu`
	r.notifyMu.Unlock()
	r.stripes[0].mu.Unlock()
}

// goodRingWrite is the writer's shape: its stripe, then the wake-up. Clean.
func goodRingWrite(r *traceRing, id int) {
	r.stripes[id&7].mu.Lock()
	r.stripes[id&7].mu.Unlock()
	r.notifyMu.Lock()
	r.notifyMu.Unlock()
}

// suppressedRingSweep is the reader's sweep: every stripe lock in index
// order, under the documented exception comment. Clean.
func suppressedRingSweep(r *traceRing) {
	for i := range r.stripes {
		//pboxlint:ignore lockorder reader's sweep, documented exception
		r.stripes[i].mu.Lock()
	}
	for i := len(r.stripes) - 1; i >= 0; i-- {
		r.stripes[i].mu.Unlock()
	}
}

// lockedShard returns holding the shard lock it took; enterVerdict and
// leaveVerdict bracket a section the way the manager's pair does.
func lockedShard(s *shard) *shard {
	s.mu.Lock()
	return s
}

func enterVerdict(m *Manager) { m.verdictMu.Lock() }
func leaveVerdict(m *Manager) { m.verdictMu.Unlock() }

// badUnderHandedLock: a lock a helper returned holding is held here.
func badUnderHandedLock(m *Manager, s *shard) {
	enterVerdict(m)
	s.mu.Lock() // want `acquires shard\.mu while holding Manager\.verdictMu`
	s.mu.Unlock()
	leaveVerdict(m)
}

// badCallUnderHandedLock: so is everything a call between the pair locks.
func badCallUnderHandedLock(m *Manager, s *shard) {
	enterVerdict(m)
	lockedShard(s) // want `call to lockedShard acquires shard\.mu while holding Manager\.verdictMu`
	s.mu.Unlock()
	leaveVerdict(m)
}

// goodAfterHandBack: the helper that releases it ends the hold.
func goodAfterHandBack(m *Manager, s *shard) {
	enterVerdict(m)
	leaveVerdict(m)
	lockedShard(s)
	m.verdictMu.Lock()
	m.verdictMu.Unlock()
	s.mu.Unlock()
}

// badHeldAcrossBreak: the break leaves the loop with p.mu still held.
func badHeldAcrossBreak(m *Manager, p *PBox, done func() bool) {
	for {
		p.mu.Lock()
		if done() {
			break
		}
		p.mu.Unlock()
	}
	m.reg.Lock() // want `acquires Manager\.reg while holding PBox\.mu`
	m.reg.Unlock()
	p.mu.Unlock()
}

// badLabeledBreak: a labeled break leaves the loop from inside a select.
func badLabeledBreak(m *Manager, p *PBox, ch chan int) {
outer:
	for {
		p.mu.Lock()
		select {
		case <-ch:
			break outer
		default:
		}
		p.mu.Unlock()
	}
	m.reg.Lock() // want `acquires Manager\.reg while holding PBox\.mu`
	m.reg.Unlock()
	p.mu.Unlock()
}

// goodSwitchArmsRelease: every arm of a switch with a default releases p.mu,
// so the switch does not join its entry state. Clean.
func goodSwitchArmsRelease(m *Manager, p *PBox, k int) {
	p.mu.Lock()
	switch k {
	case 0:
		p.mu.Unlock()
	default:
		p.mu.Unlock()
	}
	m.reg.Lock()
	m.reg.Unlock()
}

// badNestedClosure: a closure inside a closure is a body of its own.
func badNestedClosure(m *Manager, s *shard) func() func() {
	return func() func() {
		return func() {
			s.mu.Lock()
			m.reg.Lock() // want `acquires Manager\.reg while holding shard\.mu`
			m.reg.Unlock()
			s.mu.Unlock()
		}
	}
}

// badAgainstTwoHeld breaks the order against two held classes: the message
// names the lower-ranked one, on every run.
func badAgainstTwoHeld(m *Manager, p *PBox, s *shard) {
	p.mu.Lock()
	s.mu.Lock()
	m.reg.Lock() // want `acquires Manager\.reg while holding PBox\.mu,`
	m.reg.Unlock()
	s.mu.Unlock()
	p.mu.Unlock()
}

// goodGoUnderLeaf: a go statement's call runs on its own goroutine, not
// under the leaf. Clean.
func goodGoUnderLeaf(m *Manager, p *PBox) {
	p.actMu.Lock()
	go takeVerdict(m)
	p.actMu.Unlock()
}
