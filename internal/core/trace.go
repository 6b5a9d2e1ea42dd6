package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEntry is one record in the manager's in-memory trace ring. The paper
// notes (Section 8) that pBox log traces help developers understand an
// interference issue; the ring is the reproduction's equivalent.
type TraceEntry struct {
	Seq   uint64        // monotonically increasing sequence number
	At    time.Duration // manager-clock offset
	PBox  int
	Key   ResourceKey
	Name  string        // human-readable resource name, when registered
	What  string        // event name, lifecycle op, or "action:<policy>"
	Extra time.Duration // penalty length or defer time where applicable
}

// String formats the entry for human consumption.
func (t TraceEntry) String() string {
	key := t.Name
	if key == "" {
		key = fmt.Sprintf("%#x", uintptr(t.Key))
	}
	if t.Extra != 0 {
		return fmt.Sprintf("%12v pbox=%-4d key=%s %-12s %v", t.At, t.PBox, key, t.What, t.Extra)
	}
	return fmt.Sprintf("%12v pbox=%-4d key=%s %-12s", t.At, t.PBox, key, t.What)
}

// traceRing is a fixed-capacity concurrent ring buffer of trace entries.
// Every entry carries a sequence number, and an add wakes the long-pollers
// parked on the notification channel, so readers can snapshot incrementally
// and long-poll for new entries (the /trace streaming endpoint). The channel
// exists only while somebody waits on it: an add with no waiter allocates
// nothing, so a traced event stream produces no garbage. The ring has its
// own mutex (a leaf in the manager's lock order); the sequence counter is an
// atomic so long-poll readers can check for progress without touching the
// lock the event path appends under.
type traceRing struct {
	mu      sync.Mutex
	entries []TraceEntry
	pos     int
	full    bool
	seq     atomic.Uint64 // total entries ever added
	notify  chan struct{} // made by a waiter (waitCh), closed and cleared by the next add
}

func newTraceRing(n int) *traceRing {
	if n <= 0 {
		// Reject degenerate capacities: a zero-capacity ring would divide
		// by cap()==0 on the full path of add. The minimum usable ring
		// holds one entry.
		n = 1
	}
	return &traceRing{entries: make([]TraceEntry, 0, n)}
}

func (r *traceRing) add(e TraceEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Seq = r.seq.Add(1)
	if len(r.entries) < cap(r.entries) {
		r.entries = append(r.entries, e)
	} else {
		r.entries[r.pos] = e
		r.pos = (r.pos + 1) % cap(r.entries)
		r.full = true
	}
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
	// Entries carry consecutive sequence numbers ending at seq, so the
	// wanted ones are the newest min(seq-since, len). They end at r.pos once
	// the ring has wrapped (the slot the next add overwrites), at len before.
	seq := r.seq.Load()
	n := int(min(seq-since, uint64(len(r.entries))))
	end := len(r.entries)
	if r.full {
		end = r.pos
	}
	out := make([]TraceEntry, 0, n)
	if n > end {
		out = append(out, r.entries[len(r.entries)-(n-end):]...)
		n = end
	}
	return append(out, r.entries[end-n:end]...), seq
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

// traceEvent appends to the ring when tracing is enabled. Safe from any
// call site: the ring and the resource-name lookup use their own leaf
// locks, and the pBox fields read here (id) are immutable.
//
//pbox:hotpath
func (m *Manager) traceEvent(p *PBox, key ResourceKey, what string, extra time.Duration) {
	if m.trace == nil {
		return
	}
	m.traceEventAt(p, key, what, extra, m.opts.Now())
}

// traceEventAt is traceEvent with an explicit manager-clock timestamp: spool
// replays stamp entries with the recorded event time, so a batched event's At
// reflects when it happened, not when it was flushed. Sequence numbers are
// assigned at add time, so a ring holding replayed entries can show At values
// out of order across pBoxes — At is event time, Seq is ingestion order.
//
//pbox:hotpath
func (m *Manager) traceEventAt(p *PBox, key ResourceKey, what string, extra time.Duration, atNs int64) {
	if m.trace == nil {
		return
	}
	m.trace.add(TraceEntry{
		At:    time.Duration(atNs),
		PBox:  p.id,
		Key:   key,
		Name:  m.ResourceName(key),
		What:  what,
		Extra: extra,
	})
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
