// Fixture for the reentry pass: a local Observer interface and Manager type
// stand in for internal/core's (the pass matches by name, in the package
// scope or its imports).
package reentry

type Observer interface {
	StateEventAt(id int, at int64)
	PenaltyServed(id int)
}

type Manager struct{}

func (m *Manager) Status() int                   { return 0 }
func (m *Manager) ResourceName(k uintptr) string { return "" }
func (m *Manager) Crossings() int64              { return 0 }

// badCollector re-enters the manager from a locked callback.
type badCollector struct {
	mgr *Manager
}

func (c *badCollector) StateEventAt(id int, at int64) {
	_ = c.mgr.Status() // want `observer callback badCollector\.StateEventAt calls Manager\.Status`
}

// parenCollector names the re-entry through a parenthesised method value.
type parenCollector struct {
	mgr *Manager
}

func (c *parenCollector) StateEventAt(id int, at int64) {
	_ = (c.mgr.Status)() // want `observer callback parenCollector\.StateEventAt calls Manager\.Status`
}

func (c *parenCollector) PenaltyServed(id int) {}

func (c *badCollector) PenaltyServed(id int) {
	_ = c.mgr.Status() // PenaltyServed runs outside manager locks: allowed
}

// indirectCollector hides the re-entry behind a helper; the call closure
// still reaches it.
type indirectCollector struct {
	mgr *Manager
}

func (c *indirectCollector) StateEventAt(id int, at int64) {
	c.helper()
}

func (c *indirectCollector) helper() {
	_ = c.mgr.Status() // want `observer callback indirectCollector\.StateEventAt \(via helper\) calls Manager\.Status`
}

func (c *indirectCollector) PenaltyServed(id int) {}

// goodCollector sticks to the documented lock-free accessors.
type goodCollector struct {
	mgr *Manager
}

func (c *goodCollector) StateEventAt(id int, at int64) {
	_ = c.mgr.ResourceName(0)
	_ = c.mgr.Crossings()
}

func (c *goodCollector) PenaltyServed(id int) {}

// plainUser is not an observer (method set doesn't satisfy the interface):
// free to call anything.
type plainUser struct {
	mgr *Manager
}

func (p *plainUser) poll() {
	_ = p.mgr.Status()
}

// The record adapter (core.RecordObserver's stand-in): it turns callbacks
// into Record values for a RecordSink. The sink method runs inside the
// callbacks, under the same manager locks, so it is an entry point too.

type Record struct {
	PBox int
	At   int64
}

type RecordSink interface {
	Record(rec Record)
}

type RecordObserver struct {
	Sink RecordSink
	Next Observer
}

func (o *RecordObserver) StateEventAt(id int, at int64) {
	o.Sink.Record(Record{PBox: id, At: at})
	if o.Next != nil {
		o.Next.StateEventAt(id, at)
	}
}

func (o *RecordObserver) PenaltyServed(id int) {
	o.Sink.Record(Record{PBox: id})
}

// badRecorderSink re-enters the manager from its sink method. The adapter
// methods it promotes are checked once, at RecordObserver, not again here.
type badRecorderSink struct {
	RecordObserver
	mgr *Manager
}

func (s *badRecorderSink) Record(rec Record) {
	_ = s.mgr.Status() // want `observer callback badRecorderSink\.Record calls Manager\.Status`
}

// goodRecorderSink is the sanctioned shape: copy the record into a buffer,
// poke a wake channel, touch only lock-free accessors.
type goodRecorderSink struct {
	RecordObserver
	mgr  *Manager
	buf  [8]Record
	n    int
	wake chan struct{}
}

func (s *goodRecorderSink) Record(rec Record) {
	s.buf[s.n&7] = rec
	s.n++
	select {
	case s.wake <- struct{}{}:
	default:
	}
	_ = s.mgr.ResourceName(0)
}
