// Fixture for cross-package obtained-view findings: the StatusView and its
// accessor live in xviewdeps; mutations here — invisible to any per-package
// walk of that package — must still be flagged.
package xviewimmut

import "xviewdeps"

// badDirectWrite mutates a view obtained from another package.
func badDirectWrite(m *xviewdeps.Manager) {
	v := m.Published()
	v.Epoch = 1 // want `write through v, which reaches an obtained StatusView`
}

// badMutatingCall hands the obtained view to a cross-package writer; the
// mutation summary for Reset crosses the boundary.
func badMutatingCall(m *xviewdeps.Manager) {
	v := m.Published()
	xviewdeps.Reset(v) // want `call to Reset \(which writes through its parameter\) passing v`
}

// badSliceWrite mutates shared backing memory reached through the view.
func badSliceWrite(m *xviewdeps.Manager) {
	v := m.Published()
	v.Counts[0] = 2 // want `write through v, which reaches an obtained StatusView`
}

// goodReads reads directly and through the cross-package read helper.
func goodReads(m *xviewdeps.Manager) uint64 {
	v := m.Published()
	return v.Epoch + xviewdeps.Epoch(v) + uint64(v.Counts[0])
}

// goodFresh builds its own view: pre-publication writes are fine.
func goodFresh() *xviewdeps.StatusView {
	v := &xviewdeps.StatusView{}
	v.Epoch = 3
	return v
}
