// Fixture for the snapshot pass's obtained-view roots: obtained StatusViews
// are deeply read-only; locally constructed ones belong to the builder until
// published; //pbox:snapshotbuilder context is exempt.
package viewimmut

type Status struct {
	Counts []int
}

type StatusView struct {
	Status
	Epoch uint64
}

type Manager struct {
	cur *StatusView
}

// View stands in for the published-view accessor.
func (m *Manager) View() *StatusView {
	return m.cur
}

// badFieldWrite mutates an obtained view.
func badFieldWrite(m *Manager) {
	v := m.View()
	v.Epoch = 0 // want `write through v, which reaches an obtained StatusView`
}

// badElementWrite mutates through the embedded Status slice.
func badElementWrite(m *Manager) {
	v := m.View()
	v.Counts[0] = 1 // want `write through v, which reaches an obtained StatusView`
}

// badSwap writes two elements in one statement: one finding.
func badSwap(m *Manager) {
	v := m.View()
	v.Counts[0], v.Counts[1] = v.Counts[1], v.Counts[0] // want `write through v, which reaches an obtained StatusView`
}

// badAliasWrite reaches the view through a reference-typed alias.
func badAliasWrite(m *Manager) {
	v := m.View()
	c := v.Counts
	c[1] = 2 // want `write through c, which reaches an obtained StatusView`
}

// badCopyInto overwrites shared backing memory.
func badCopyInto(m *Manager, src []int) {
	v := m.View()
	copy(v.Counts, src) // want `copy into v, which reaches an obtained StatusView`
}

// scrub writes through its parameter; its §14 mutation summary marks it.
func scrub(v *StatusView) {
	v.Epoch = 9 // want `write through v, which reaches an obtained StatusView`
}

// badMutatingCall hands an obtained view to a writer.
func badMutatingCall(m *Manager) {
	v := m.View()
	scrub(v) // want `call to scrub \(which writes through its parameter\) passing v`
}

// goodReads only reads.
func goodReads(m *Manager) int {
	v := m.View()
	return v.Counts[0] + int(v.Epoch)
}

// goodValueCopy copies the struct; scalar writes on the copy touch nothing
// shared.
func goodValueCopy(m *Manager) uint64 {
	v := m.View()
	sv := *v
	sv.Epoch = 5
	return sv.Epoch
}

// goodFreshBuild constructs its own view: writes before publication are the
// builder's business.
func goodFreshBuild() *StatusView {
	v := &StatusView{}
	v.Epoch = 7
	v.Counts = append(v.Counts, 1)
	return v
}

// rebuild is the sanctioned builder: marked, so even obtained views may be
// filled in here.
//
//pbox:snapshotbuilder
func rebuild(m *Manager) {
	v := m.View()
	v.Epoch = 8
	fillCounts(v)
	m.cur = v
}

// fillCounts is called only from builder context and inherits the
// exemption via the greatest fixpoint.
func fillCounts(v *StatusView) {
	v.Counts = append(v.Counts, 3)
}
