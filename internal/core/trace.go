package core

import (
	"math"
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

// traceRing is the manager's trace ring and the RecordSink the manager's own
// RecordObserver feeds: a fixed-capacity concurrent buffer of the newest rows,
// each carrying a sequence number, so readers can snapshot incrementally and
// long-poll for new rows (the /trace streaming endpoint).
//
// It is striped by pBox id, the split Manager.stripes uses: a pBox's rows go
// to its stripe, which has its own leaf mutex and its own slot array, so two
// tenants on different stripes never meet on a ring lock. The one shared
// word writers touch is seq, which a writer advances under its stripe's lock
// by the whole of its run: a pBox's rows keep issue order, and a Freeze's
// rows stay consecutive. Each stripe keeps up to size rows, so the newest
// size rows overall are always held, at consecutive sequence numbers; the
// reader takes every stripe lock in index order and picks those out.
//
// A write wakes long-pollers only when one is parked (waiting): the
// notification channel lives under its own leaf mutex and exists only while
// somebody waits on it, so a write with no waiter takes no second lock and
// allocates nothing once its stripe is full.
type traceRing struct {
	now  func() int64 // the manager clock (Options.Now)
	size int          // rows kept: Options.TraceSize, the cap of every stripe
	_    cacheLinePad

	seq     atomic.Uint64 // rows ever reserved: the Seq of the newest row
	waiting atomic.Bool   // a long-poller may be parked on notify
	_       cacheLinePad

	stripes [traceStripes]traceStripe

	notifyMu sync.Mutex
	notify   chan struct{} // made by a waiter (waitCh), closed and cleared by the next write
}

// traceStripes is the ring's stripe count: pBox id's rows go to stripe
// id&(traceStripes-1), as its counters go to Manager.stripes.
const traceStripes = counterStripes

// traceStripeMin is the slot count a stripe's array starts at, at its first
// row; it doubles as the stripe fills, up to the ring's size.
const traceStripeMin = 256

// traceStripe is one pBox stripe of the ring, a cache line of header. Its
// array grows by doubling and never overwrites a row before it holds the
// ring's size; from then on it is a ring of the stripe's newest rows.
type traceStripe struct {
	mu    sync.Mutex
	slots []traceSlot
	head  int // the slot the next row goes to
	held  int // rows in slots: len(slots) once the stripe has wrapped
	_     [cacheLineSize - 48]byte
}

// traceSlot is one row as the ring stores it: a TraceEntry is built from it
// at read time. Record fields a row's kind does not use are zero, so Exec
// (activity_end) and Level (create, detection) share a word, and the
// record's own At is the row's stamp for the kinds that carry one.
type traceSlot struct {
	seq      uint64
	at       int64 // TraceEntry.At
	pbox     int
	victim   int
	key      ResourceKey
	dur      int64
	word     uint64 // Exec, or Level's bits
	ev       int32
	kind     Kind
	policy   int8
	ruleType int8
	metric   int8
}

// stamped reports whether a row of kind k carries its own At (event time),
// which is then the row's stamp; the ring reads the clock for the rest.
func (k Kind) stamped() bool { return k == KindActivate || k == KindFreeze || k == KindState }

func newTraceRing(n int, now func() int64) *traceRing {
	// A degenerate capacity clamps to the minimum usable ring, one entry.
	return &traceRing{now: now, size: max(n, 1)}
}

// stripe returns pBox id's stripe.
//
//pbox:hotpath
func (r *traceRing) stripe(id int) *traceStripe { return &r.stripes[id&(traceStripes-1)] }

// room grows s's array, by doubling, until rows more rows fit without
// overwriting one or it holds size slots. Until then the stripe has never
// wrapped, so its rows are slots[:held] in order. Caller holds s.mu.
//
//pbox:hotpath
func (s *traceStripe) room(rows, size int) {
	for s.held+rows > len(s.slots) && len(s.slots) < size {
		//pboxlint:ignore hotpathalloc at most log2(size/traceStripeMin)+1 times per stripe, never once the stripe holds size rows
		grown := make([]traceSlot, min(max(2*len(s.slots), traceStripeMin), size))
		copy(grown, s.slots[:s.held])
		s.slots, s.head = grown, s.held
	}
}

// Record implements RecordSink: one slot write under the row's stripe lock —
// no name lookup, no formatting, and for an Activate row no clock read. State
// events and a Freeze's rows come a run at a time (recordRun).
//
//pbox:hotpath
func (r *traceRing) Record(rec Record) {
	at := rec.At
	if !rec.Kind.stamped() {
		at = r.now()
	}
	word := math.Float64bits(rec.Level)
	if rec.Kind == KindActivityEnd {
		word = uint64(rec.Exec)
	}
	s := r.stripe(rec.PBox)
	s.mu.Lock()
	// The slot is written in place, field by field (assigning a traceSlot
	// literal would build it aside and copy it in), and the unlock is not
	// deferred: this runs on every lifecycle call of a traced manager.
	s.room(1, r.size)
	sl := &s.slots[s.head]
	sl.seq, sl.at, sl.pbox, sl.victim, sl.key = r.seq.Add(1), at, rec.PBox, rec.Victim, rec.Key
	sl.dur, sl.word, sl.ev, sl.kind = rec.Dur, word, int32(rec.Ev), rec.Kind
	sl.policy, sl.ruleType, sl.metric = int8(rec.Policy), int8(rec.RuleType), int8(rec.Metric)
	if s.head++; s.head == len(s.slots) {
		s.head = 0
	}
	s.held = min(s.held+1, len(s.slots))
	s.mu.Unlock()
	r.wake()
}

// recordRun appends a run of one pBox's state events — the rows Record would
// write for each, in order — then, if fr is set, a Freeze's two rows, both at
// fr.at, under one acquisition of the stripe's mutex: the sequence reserved
// once, slots written in place, the long-pollers woken once. A spool replay
// hands over whole batches this way. A run longer than the ring advances the
// sequence by all of its rows but writes only its last size: the rest would
// be overwritten by the run itself.
//
//pbox:hotpath
func (r *traceRing) recordRun(pbox int, recs []spoolRec, fr *freezeRows) {
	rows := len(recs)
	if fr != nil {
		rows += 2
	}
	skip := max(rows-r.size, 0)
	s := r.stripe(pbox)
	s.mu.Lock()
	seq := r.seq.Add(uint64(rows)) - uint64(rows)
	s.room(rows-skip, r.size)
	slots, i := s.slots, s.head
	for k := skip; k < rows; k++ {
		// Zeroed, then the fields the row uses: assigning a traceSlot literal
		// would build it aside and copy it in.
		sl := &slots[i]
		*sl = traceSlot{}
		sl.seq, sl.pbox = seq+uint64(k)+1, pbox
		switch {
		case k < len(recs):
			rec := &recs[k]
			sl.at, sl.kind, sl.key, sl.ev = rec.at, KindState, rec.key, int32(rec.ev)
		case k == len(recs):
			sl.at, sl.kind = fr.at, KindFreeze
		default:
			sl.at, sl.kind, sl.dur, sl.word = fr.at, KindActivityEnd, fr.deferNs, uint64(fr.execNs)
		}
		if i++; i == len(slots) {
			i = 0
		}
	}
	s.head, s.held = i, min(s.held+rows-skip, len(slots))
	s.mu.Unlock()
	r.wake()
}

// wake releases the long-pollers parked on the ring, if any. A writer calls
// it after its rows are written and its stripe released; it reads waiting
// after its seq.Add, and waitCh sets waiting before it re-reads seq, so a
// waiter that missed the write's rows is seen by the write.
//
//pbox:hotpath
func (r *traceRing) wake() {
	if r.waiting.Load() {
		r.release()
	}
}

// release closes the notification channel, if one is made, and clears
// waiting.
//
//pbox:hotpath
func (r *traceRing) release() {
	r.notifyMu.Lock()
	if r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
	r.waiting.Store(false)
	r.notifyMu.Unlock()
}

// snapshotSince returns the rows with sequence number > since that are still
// in the ring (older ones have been overwritten), oldest first, plus the
// current tail sequence to pass to the next call. A caught-up caller returns
// on the atomic alone. Otherwise the stripe locks are taken in index order,
// the wanted rows — Seq in (max(since, seq-size), seq], held by the stripes
// at consecutive sequence numbers — are copied out from each stripe's newest
// backwards, and the locks are released before the rows are put in order.
func (r *traceRing) snapshotSince(since uint64) ([]TraceEntry, uint64) {
	if seq := r.seq.Load(); seq <= since {
		return nil, seq
	}
	for i := range r.stripes {
		//pboxlint:ignore lockorder reader's sweep: trace stripe locks are taken in ascending index order, the one sanctioned multi-stripe hold (DESIGN.md §8)
		r.stripes[i].mu.Lock()
	}
	// Every row up to seq is written: a writer reserves its rows and writes
	// them under its stripe's lock, and all of them are held here.
	seq := r.seq.Load()
	lo := max(since, seq-min(seq, uint64(r.size)))
	rows := make([]traceSlot, 0, seq-lo)
	for i := range r.stripes {
		s := &r.stripes[i]
		for j, k := s.head, 0; k < s.held; k++ {
			if j == 0 {
				j = len(s.slots)
			}
			j--
			if s.slots[j].seq <= lo {
				break
			}
			rows = append(rows, s.slots[j])
		}
	}
	for i := len(r.stripes) - 1; i >= 0; i-- {
		r.stripes[i].mu.Unlock()
	}
	out := make([]TraceEntry, seq-lo)
	for i := range rows {
		out[rows[i].seq-lo-1] = rows[i].entry()
	}
	return out, seq
}

// entry builds the TraceEntry a slot stands for.
func (sl *traceSlot) entry() TraceEntry {
	e := TraceEntry{Seq: sl.seq, At: time.Duration(sl.at), Record: Record{
		Kind: sl.kind, PBox: sl.pbox, Victim: sl.victim, Key: sl.key, Ev: EventType(sl.ev),
		Policy: PolicyKind(sl.policy), Dur: sl.dur, RuleType: RuleType(sl.ruleType), Metric: Metric(sl.metric),
	}}
	if sl.kind.stamped() {
		e.Record.At = sl.at
	}
	if sl.kind == KindActivityEnd {
		e.Exec = int64(sl.word)
	} else {
		e.Level = math.Float64frombits(sl.word)
	}
	return e
}

// waitCh returns a channel that is closed once the ring's sequence advances
// past since. If it already has, the returned channel is already closed —
// decided on the atomic alone, so a caught-up long-poller never contends
// with the event path for a ring lock.
func (r *traceRing) waitCh(since uint64) <-chan struct{} {
	if r.seq.Load() <= since {
		r.notifyMu.Lock()
		defer r.notifyMu.Unlock()
		r.waiting.Store(true)
		if r.seq.Load() <= since {
			if r.notify == nil {
				r.notify = make(chan struct{})
			}
			return r.notify
		}
	}
	ch := make(chan struct{})
	close(ch)
	return ch
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
