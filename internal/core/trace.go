package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceEntry is one row of the manager's in-memory trace ring: an observer
// Record plus the ring's sequence number and one manager-clock stamp. The
// paper notes (Section 8) that pBox log traces help developers understand an
// interference issue; the ring is the reproduction's equivalent and the one
// in-memory copy of the stream (/trace and incident bundles both read it).
// A row's text is the embedded Record's String; resource names are resolved
// by the reader (Manager.ResourceName), never on the event path.
type TraceEntry struct {
	Seq uint64 // monotonically increasing sequence number (ingestion order)
	// At is the record's own timestamp for activate/freeze/state (event time:
	// a spool replay lands later than it happened, so At can run out of order
	// across pBoxes while Seq never does), for activity_end that of its own
	// freeze row, the row before it, and the clock at delivery otherwise.
	At time.Duration
	Record
}

// traceRing is a fixed-capacity concurrent ring buffer of trace entries and
// the RecordSink the manager's own RecordObserver feeds. Every entry carries
// a sequence number, and a Record wakes the long-pollers parked on the
// notification channel, so readers can snapshot incrementally and long-poll
// for new entries (the /trace streaming endpoint). The channel exists only
// while somebody waits on it: a Record with no waiter allocates nothing, so a
// traced event stream produces no garbage. The ring has its own mutex (a
// leaf in the manager's lock order); the sequence counter is an atomic so
// long-poll readers can check for progress without touching the lock the
// event path appends under.
type traceRing struct {
	now     func() int64 // the manager clock (Options.Now)
	mu      sync.Mutex
	entries []TraceEntry  // preallocated slots: entry seq lives at (seq-1) % len
	seq     atomic.Uint64 // total entries ever added
	notify  chan struct{} // made by a waiter (waitCh), closed and cleared by the next append
}

func newTraceRing(n int, now func() int64) *traceRing {
	// A degenerate capacity clamps to the minimum usable ring, one entry.
	return &traceRing{now: now, entries: make([]TraceEntry, max(n, 1))}
}

// Record implements RecordSink: one slot write under the ring's leaf mutex —
// no name lookup, no formatting, and for an Activate row no clock read. State
// events and a Freeze's rows come a run at a time (recordRun).
//
//pbox:hotpath
func (r *traceRing) Record(rec Record) {
	var at time.Duration
	switch rec.Kind {
	case KindActivate, KindFreeze, KindState:
		at = time.Duration(rec.At)
	default:
		at = time.Duration(r.now())
	}
	r.mu.Lock()
	// The slot is written in place (one copy of the record) and the unlock
	// is not deferred: this runs on every lifecycle call of a traced manager.
	seq := r.seq.Load() + 1
	e := &r.entries[(seq-1)%uint64(len(r.entries))]
	e.Seq, e.At, e.Record = seq, at, rec
	r.publishLocked(seq)
	r.mu.Unlock()
}

// recordRun appends a run of one pBox's state events — the rows Record would
// write for each, in order — then, if fr is set, a Freeze's two rows, both at
// fr.at, under one acquisition of the mutex: slots written in place, the
// sequence advanced once, the long-pollers woken once. A spool replay hands
// over whole batches this way, so two flushing goroutines meet on the ring
// once per run, not per event.
//
//pbox:hotpath
func (r *traceRing) recordRun(pbox int, recs []spoolRec, fr *freezeRows) {
	r.mu.Lock()
	seq, size := r.seq.Load(), uint64(len(r.entries))
	i := seq % size
	rows := len(recs)
	if fr != nil {
		rows += 2
	}
	for k := 0; k < rows; k++ {
		e := &r.entries[i]
		seq++
		// Zeroed, then the fields the row uses: assigning a Record literal
		// would build it aside and copy it in.
		e.Record = Record{}
		e.Seq, e.PBox = seq, pbox
		switch {
		case k < len(recs):
			rec := &recs[k]
			e.At, e.Kind, e.Key, e.Ev, e.Record.At = time.Duration(rec.at), KindState, rec.key, rec.ev, rec.at
		case k == len(recs):
			e.At, e.Kind, e.Record.At = time.Duration(fr.at), KindFreeze, fr.at
		default:
			e.At, e.Kind, e.Dur, e.Exec = time.Duration(fr.at), KindActivityEnd, fr.deferNs, fr.execNs
		}
		if i++; i == size {
			i = 0
		}
	}
	r.publishLocked(seq)
	r.mu.Unlock()
}

// publishLocked makes the rows up to seq visible and releases the parked
// long-pollers. Caller holds r.mu.
//
//pbox:hotpath
func (r *traceRing) publishLocked(seq uint64) {
	r.seq.Store(seq)
	if r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
}

// snapshotSince returns the entries with sequence number > since that are
// still in the ring (older ones have been overwritten), plus the current
// tail sequence to pass to the next call. A caught-up caller returns on the
// atomic alone; otherwise only the new tail is copied under the mutex the
// event path appends under.
func (r *traceRing) snapshotSince(since uint64) ([]TraceEntry, uint64) {
	if seq := r.seq.Load(); seq <= since {
		return nil, seq
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Entries carry consecutive sequence numbers ending at seq, so the wanted
	// ones are the newest min(seq-since, len): one run of slots, or two when
	// it straddles the end of the slice.
	seq, size := r.seq.Load(), uint64(len(r.entries))
	n := min(seq-since, size)
	start := (seq - n) % size
	out := make([]TraceEntry, 0, n)
	out = append(out, r.entries[start:min(start+n, size)]...)
	return append(out, r.entries[:n-uint64(len(out))]...), seq
}

// waitCh returns a channel that is closed once the ring's sequence advances
// past since. If it already has, the returned channel is already closed —
// decided on the atomic alone, so a caught-up long-poller never contends
// with the event path for the ring lock.
func (r *traceRing) waitCh(since uint64) <-chan struct{} {
	if r.seq.Load() > since {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq.Load() > since {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if r.notify == nil {
		r.notify = make(chan struct{})
	}
	return r.notify
}

// TraceNotify returns a channel that is closed once an entry with sequence
// number greater than since exists (immediately, if one already does).
// Long-poll readers select on it together with their timeout. It returns nil
// when tracing was not enabled.
func (m *Manager) TraceNotify(since uint64) <-chan struct{} {
	if m.trace == nil {
		return nil
	}
	return m.trace.waitCh(since)
}
