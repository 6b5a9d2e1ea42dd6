// Fixture for the driver's suppression handling: one documented ignore that
// silences a real violation; one malformed ignore (no reason) that both
// fails to suppress and is itself reported; a stale ignore on a clean line
// and one naming a retired pass, both reported; and an ignore for a pass
// the run does not select, which is not judged.
package suppress

import "sync"

type Manager struct {
	reg sync.Mutex
}

type shard struct {
	mu sync.Mutex
}

func properlySuppressed(m *Manager, s *shard) {
	s.mu.Lock()
	//pboxlint:ignore lockorder documented exception exercised by the driver test
	m.reg.Lock()
	m.reg.Unlock()
	s.mu.Unlock()
}

func malformedIgnore(m *Manager, s *shard) {
	s.mu.Lock()
	//pboxlint:ignore lockorder
	m.reg.Lock()
	m.reg.Unlock()
	s.mu.Unlock()
}

func staleIgnore(m *Manager) {
	//pboxlint:ignore lockorder nothing here breaks the order any more
	m.reg.Lock()
	m.reg.Unlock()
}

func retiredPassIgnore(m *Manager) {
	//pboxlint:ignore viewimmut the pass was folded into snapshot
	m.reg.Lock()
	m.reg.Unlock()
}

func unselectedPassIgnore(m *Manager) {
	//pboxlint:ignore hotpathalloc judged only when hotpathalloc runs
	m.reg.Lock()
	m.reg.Unlock()
}
