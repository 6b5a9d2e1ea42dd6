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
	// Seq numbers the rows in the order readers first saw them, gapless. A
	// reader numbers the rows written since the last read before it reads:
	// each pBox's rows keep issue order, a run's rows (a Freeze's states,
	// freeze and activity_end) get consecutive numbers, and rows a read first
	// sees come after every row an earlier read saw. Among themselves the
	// runs of different stripes are ordered by the At of their last rows. A
	// row overwritten before any read saw it is never numbered.
	Seq uint64
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
// to its stripe, which has its own leaf mutex, its own slot array and a cache
// line of its own, so two tenants on different stripes share no word a write
// touches. A writer numbers nothing: it marks its last row as the end of a
// run and counts its rows as fresh. Readers number (number, under every
// stripe lock): they merge the stripes' fresh runs into seq, so the stripes
// hold the newest size numbered rows at consecutive sequence numbers — a
// stripe overwrites a row only after size newer rows of its own, all numbered
// after it — and the reader picks those out.
//
// A write wakes long-pollers only when one is parked (waiting): the
// notification channel lives under its own leaf mutex and exists only while
// somebody waits on it, so a write with no waiter takes no second lock and
// allocates nothing once its stripe is full.
type traceRing struct {
	// The stripes come first and are a line each: a live ring starts on a
	// line (newTraceRing), so each stripe is a line of its own.
	stripes [traceStripes]traceStripe

	now     func() int64 // the manager clock (Options.Now)
	size    int          // rows kept: Options.TraceSize, the cap of every stripe
	waiting atomic.Bool  // a long-poller may be parked on notify
	_       cacheLinePad

	seq      atomic.Uint64 // the Seq of the newest numbered row; stored by a numbering pass
	notifyMu sync.Mutex
	notify   chan struct{} // made by a waiter (waitCh), closed and cleared by the next write
}

// traceStripes is the ring's stripe count: pBox id's rows go to stripe
// id&(traceStripes-1), as its counters go to Manager.stripes.
const traceStripes = counterStripes

// traceStripeMin is the slot count a stripe's array starts at, at its first
// row; it doubles as the stripe fills, up to the ring's size.
const traceStripeMin = 256

// runEnd is the seq a write leaves on its last row until a reader numbers it;
// the write's other rows are left at 0.
const runEnd = math.MaxUint64

// traceStripe is one pBox stripe of the ring, one cache line. Its array grows
// by doubling and never overwrites a row before it holds the ring's size;
// from then on it is a ring of the stripe's newest rows.
type traceStripe struct {
	mu    sync.Mutex
	slots []traceSlot
	head  int // the slot the next row goes to
	held  int // rows in slots: len(slots) once the stripe has wrapped
	fresh int // the newest rows not yet numbered, at most held
	_     [cacheLineSize - 56]byte
}

// traceSlot is one row as the ring stores it: a TraceEntry is built from it
// at read time. Record fields a row's kind does not use are zero, so Exec
// (activity_end) and Level (create, detection) share a word, and the
// record's own At is the row's stamp for the kinds that carry one.
type traceSlot struct {
	seq      uint64 // TraceEntry.Seq once numbered; before that 0, or runEnd
	at       int64  // TraceEntry.At
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
	// The allocator puts a word of type header in front of a pointerful
	// object over 512 bytes, and its size classes from there on are whole
	// lines: the ring, a line less a word into its allocation, starts on a
	// line, and so do its stripes (TestTraceRingLayout).
	a := &struct {
		_ [cacheLineSize - 8]byte
		r traceRing
	}{}
	// A degenerate capacity clamps to the minimum usable ring, one entry.
	a.r.now, a.r.size = now, max(n, 1)
	return &a.r
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

// Record implements RecordSink: one slot write under the row's stripe lock, a
// run of one row — no name lookup, no formatting, and for an Activate row no
// clock read. State events and a Freeze's rows come a run at a time
// (recordRun).
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
	sl.seq, sl.at, sl.pbox, sl.victim, sl.key = runEnd, at, rec.PBox, rec.Victim, rec.Key
	sl.dur, sl.word, sl.ev, sl.kind = rec.Dur, word, int32(rec.Ev), rec.Kind
	sl.policy, sl.ruleType, sl.metric = int8(rec.Policy), int8(rec.RuleType), int8(rec.Metric)
	if s.head++; s.head == len(s.slots) {
		s.head = 0
	}
	s.held = min(s.held+1, len(s.slots))
	s.fresh = min(s.fresh+1, s.held)
	s.mu.Unlock()
	r.wake()
}

// recordRun appends a run of one pBox's state events — the rows Record would
// write for each, in order — then, if fr is set, a Freeze's two rows, both at
// fr.at, under one acquisition of the stripe's mutex: slots written in place,
// the last one marked as the run's end, the long-pollers woken once. A spool
// replay hands over whole batches this way. A run longer than the ring writes
// only its last size rows: the rest would be overwritten by the run itself. A
// run has at least one row (emitStates).
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
	s.room(rows-skip, r.size)
	slots, i := s.slots, s.head
	var sl *traceSlot
	for k := skip; k < rows; k++ {
		// Zeroed, then the fields the row uses: assigning a traceSlot literal
		// would build it aside and copy it in.
		sl = &slots[i]
		*sl = traceSlot{}
		sl.pbox = pbox
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
	sl.seq = runEnd
	s.head, s.held = i, min(s.held+rows-skip, len(slots))
	s.fresh = min(s.fresh+rows-skip, s.held)
	s.mu.Unlock()
	r.wake()
}

// wake releases the long-pollers parked on the ring, if any. A writer calls
// it after its rows are written and its stripe released; waitCh sets waiting
// before it looks at the stripes (unread), so a waiter that missed the
// write's rows is seen by the write.
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
// current tail sequence to pass to the next call. The stripe locks are taken
// in index order and the fresh rows numbered (number); then, unless the
// caller is caught up, the wanted rows — Seq in (max(since, seq-size), seq],
// held by the stripes at consecutive sequence numbers — are copied out from
// each stripe's newest backwards, and the locks are released before the rows
// are put in order.
func (r *traceRing) snapshotSince(since uint64) ([]TraceEntry, uint64) {
	for i := range r.stripes {
		//pboxlint:ignore lockorder reader's sweep: trace stripe locks are taken in ascending index order, the one sanctioned multi-stripe hold (DESIGN.md §8)
		r.stripes[i].mu.Lock()
	}
	// A cursor ahead of the numbered rows is caught up: lo is then since,
	// and nothing is copied or sized.
	seq := r.number()
	lo := max(since, seq-min(seq, uint64(r.size)))
	var rows []traceSlot
	if seq > lo {
		rows = make([]traceSlot, 0, seq-lo)
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
	}
	for i := len(r.stripes) - 1; i >= 0; i-- {
		r.stripes[i].mu.Unlock()
	}
	if seq <= lo {
		return nil, seq
	}
	out := make([]TraceEntry, seq-lo)
	for i := range rows {
		out[rows[i].seq-lo-1] = rows[i].entry()
	}
	return out, seq
}

// numbered numbers the fresh rows and returns the Seq of the newest row: a
// snapshot from a cursor past every row copies nothing.
func (r *traceRing) numbered() uint64 {
	_, seq := r.snapshotSince(math.MaxUint64)
	return seq
}

// number gives every fresh row its Seq and returns the newest. A stripe's
// fresh rows are its newest, a run at a time (each write's last row is marked
// runEnd, and the newest fresh row ends a run); the pass merges the stripes'
// runs by the At of each run's last row, ties to the lower stripe, so each
// stripe's runs keep write order and a run's rows get consecutive numbers.
// Caller holds every stripe lock.
func (r *traceRing) number() uint64 {
	type cursor struct {
		next, end, left int   // the oldest fresh slot, its run's last, fresh rows from next
		at              int64 // the run's last row's At
	}
	var cs [traceStripes]cursor
	for i := range r.stripes {
		s := &r.stripes[i]
		if s.fresh == 0 {
			continue
		}
		c := &cs[i]
		c.next, c.left = s.head-s.fresh, s.fresh
		if c.next < 0 {
			c.next += len(s.slots)
		}
		c.end, c.at = s.endOfRun(c.next)
		s.fresh = 0
	}
	seq := r.seq.Load()
	for {
		best := -1
		for i := range cs {
			if cs[i].left > 0 && (best < 0 || cs[i].at < cs[best].at) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c, s := &cs[best], &r.stripes[best]
		j, n := c.next, 0
		for last := false; !last; n++ {
			last = j == c.end
			seq++
			s.slots[j].seq = seq
			if j++; j == len(s.slots) {
				j = 0
			}
		}
		if c.next, c.left = j, c.left-n; c.left > 0 {
			c.end, c.at = s.endOfRun(j)
		}
	}
	r.seq.Store(seq)
	return seq
}

// endOfRun returns the first slot from j on that ends a run, and its row's
// At. Caller holds s.mu.
func (s *traceStripe) endOfRun(j int) (int, int64) {
	for s.slots[j].seq != runEnd {
		if j++; j == len(s.slots) {
			j = 0
		}
	}
	return j, s.slots[j].at
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

// waitCh returns a channel that is closed once a row newer than since exists:
// numbered past since, or not numbered yet. If one already does, the returned
// channel is already closed. A waiter publishes itself (waiting, the channel)
// before it looks at the stripes, and looks after releasing notifyMu, a leaf.
func (r *traceRing) waitCh(since uint64) <-chan struct{} {
	if r.seq.Load() <= since {
		r.notifyMu.Lock()
		r.waiting.Store(true)
		if r.notify == nil {
			r.notify = make(chan struct{})
		}
		ch := r.notify
		r.notifyMu.Unlock()
		if !r.unread(since) {
			return ch
		}
	}
	ch := make(chan struct{})
	close(ch)
	return ch
}

// unread reports whether a row newer than since exists. seq is read after the
// stripes: a pass that numbered a stripe's fresh rows before this looked at
// the stripe stored seq before releasing the stripe's lock.
func (r *traceRing) unread(since uint64) bool {
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		fresh := s.fresh
		s.mu.Unlock()
		if fresh > 0 {
			return true
		}
	}
	return r.seq.Load() > since
}

// TraceNotify returns a channel that is closed once an entry with sequence
// number greater than since exists, or one not numbered yet (immediately, if
// one already does).
// Long-poll readers select on it together with their timeout. It returns nil
// when tracing was not enabled.
func (m *Manager) TraceNotify(since uint64) <-chan struct{} {
	if m.trace == nil {
		return nil
	}
	return m.trace.waitCh(since)
}
