// Fixture dependency for the cross-package obtained-view test: exports the
// StatusView type, an accessor that yields the published view, and a helper
// that writes through its parameter. The helper's own body is flagged too —
// it is not builder context (its only callers are plain functions).
package xviewdeps

type StatusView struct {
	Epoch  uint64
	Counts []int
}

type Manager struct {
	cur *StatusView
}

// Published stands in for the snapshot accessor.
func (m *Manager) Published() *StatusView {
	return m.cur
}

// Reset writes through its parameter; the §14 mutation summary records it,
// so cross-package callers passing an obtained view are flagged at the call
// site — and the body itself is a finding, since no builder calls Reset.
func Reset(v *StatusView) {
	v.Epoch = 0 // want `write through v, which reaches an obtained StatusView`
}

// Epoch only reads; callers may pass obtained views freely.
func Epoch(v *StatusView) uint64 {
	return v.Epoch
}
