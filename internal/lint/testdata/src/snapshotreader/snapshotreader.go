// Fixture for the snapshot pass's reader rule: local Manager/shard/eventSpool
// types stand in for internal/core's (the pass matches by name and
// annotation).
package snapshotreader

import (
	"sync"
	"sync/atomic"
)

type shard struct {
	mu sync.Mutex
}

type eventSpool struct {
	mu sync.Mutex
}

func (sp *eventSpool) flush() {
	sp.mu.Lock()
	sp.mu.Unlock()
}

type view struct{ epoch uint64 }

type Manager struct {
	shards []*shard
	spools []*eventSpool
	view   atomic.Pointer[view]
}

func (m *Manager) sweepSpools() {
	for _, sp := range m.spools {
		sp.flush()
	}
}

func (m *Manager) flushHinted(id int) {}

func (m *Manager) lockAllShards() func() {
	for _, s := range m.shards {
		s.mu.Lock()
	}
	return func() {}
}

// goodView loads the published view only: the sanctioned read shape.
//
//pbox:snapshotreader
func (m *Manager) goodView() *view {
	return m.view.Load()
}

// rebuild is the sanctioned escalation: builder-annotated, so reader
// closures stop at it even though it stops the world.
//
//pbox:snapshotbuilder
func (m *Manager) rebuild() *view {
	m.sweepSpools()
	unlock := m.lockAllShards()
	defer unlock()
	v := &view{}
	m.view.Store(v)
	return v
}

// goodEscalating escalates through the builder, which is allowed.
//
//pbox:snapshotreader
func (m *Manager) goodEscalating() *view {
	if v := m.view.Load(); v != nil {
		return v
	}
	return m.rebuild()
}

// badSweep flushes on read.
//
//pbox:snapshotreader
func (m *Manager) badSweep() {
	m.sweepSpools() // want `snapshot reader badSweep calls sweepSpools`
}

// badShardLock takes a shard lock on the read path.
//
//pbox:snapshotreader
func (m *Manager) badShardLock() {
	s := m.shards[0]
	s.mu.Lock() // want `snapshot reader badShardLock acquires a shard lock`
	s.mu.Unlock()
}

// badIndirect hides the flush behind a helper; the closure walk reaches it.
//
//pbox:snapshotreader
func (m *Manager) badIndirect() {
	m.helper()
}

func (m *Manager) helper() {
	m.flushHinted(1) // want `snapshot reader badIndirect \(via helper\) calls flushHinted`
}

// badParenSweep names the flush through a parenthesised method value.
//
//pbox:snapshotreader
func (m *Manager) badParenSweep() {
	(m.sweepSpools)() // want `snapshot reader badParenSweep calls sweepSpools`
}

// badSpoolFlush steals one worker's buffer.
//
//pbox:snapshotreader
func (m *Manager) badSpoolFlush() {
	m.spools[0].flush() // want `snapshot reader badSpoolFlush calls eventSpool\.flush`
}

// badLockAll runs the stop-the-world sweep.
//
//pbox:snapshotreader
func (m *Manager) badLockAll() {
	unlock := m.lockAllShards() // want `snapshot reader badLockAll calls lockAllShards`
	unlock()
}

// precise is unannotated: the flush-on-read path may stop the world freely.
func (m *Manager) precise() {
	m.sweepSpools()
	s := m.shards[0]
	s.mu.Lock()
	s.mu.Unlock()
}
