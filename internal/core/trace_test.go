package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestTraceRingWraparound: with a clock that ticks once per row, numbering
// order is issue order, and every cursor at every ring phase returns the
// newest rows at consecutive Seq. With a stopped clock every run's last row
// ties, and a read numbers the stripes' rows in stripe order.
func TestTraceRingWraparound(t *testing.T) {
	stopped := newTraceRing(4, func() int64 { return 0 })
	for i := range 10 {
		stopped.Record(Record{PBox: i})
	}
	// Numbered 0 8 1 9 2 3 4 5 6 7: the newest four are stripes 4 to 7's.
	if got, next := stopped.snapshotSince(0); next != 10 || len(got) != 4 || got[0].PBox != 4 || got[3].PBox != 7 {
		t.Fatalf("stopped clock: %v next %d, want pboxes 4..7 next 10", got, next)
	}

	var clock int64
	r := newTraceRing(4, func() int64 { clock++; return clock })
	for i := 0; i < 10; i++ {
		r.Record(Record{PBox: i})
	}
	got, next := r.snapshotSince(0)
	if len(got) != 4 || next != 10 {
		t.Fatalf("snapshot length = %d next = %d, want 4, 10", len(got), next)
	}
	// Oldest-first: entries 6,7,8,9.
	for i, e := range got {
		if e.PBox != 6+i {
			t.Fatalf("entry %d = pbox %d, want %d", i, e.PBox, 6+i)
		}
	}
	// Every cursor at every ring phase returns exactly the entries newer
	// than it that the ring still holds: only the tail is copied, whether it
	// straddles the wrap point or not.
	for adds := 10; adds < 15; adds++ {
		for since := uint64(0); since <= uint64(adds)+1; since++ {
			got, next := r.snapshotSince(since)
			first := max(since, uint64(adds)-4) // PBox of the oldest wanted entry
			if next != uint64(adds) || len(got) != int(uint64(adds)-min(first, uint64(adds))) {
				t.Fatalf("adds=%d since=%d: %d entries next=%d", adds, since, len(got), next)
			}
			for i, e := range got {
				if e.PBox != int(first)+i || e.Seq != first+uint64(i)+1 {
					t.Fatalf("adds=%d since=%d: entry %d = pbox %d seq %d", adds, since, i, e.PBox, e.Seq)
				}
			}
		}
		r.Record(Record{PBox: adds})
	}
}

func TestTraceRingPartialFill(t *testing.T) {
	r := newTraceRing(8, func() int64 { return 0 })
	r.Record(Record{PBox: 1})
	r.Record(Record{PBox: 2})
	got, _ := r.snapshotSince(0)
	if len(got) != 2 || got[0].PBox != 1 || got[1].PBox != 2 {
		t.Fatalf("snapshot = %+v", got)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := NewManager(Options{})
	p, _ := m.Create(DefaultRule())
	m.Activate(p)
	m.Freeze(p)
	if tr := preciseTrace(m); tr != nil {
		t.Fatalf("trace = %v with tracing disabled", tr)
	}
}

// TestTraceEntryString pins that a row's text is the Record's line, and the
// ring's one manager-clock stamp: the record's own At for the kinds that
// carry one (event time, not delivery time), the ring's clock for the rest.
func TestTraceEntryString(t *testing.T) {
	r := newTraceRing(4, func() int64 { return int64(7 * time.Millisecond) })
	r.Record(Record{Kind: KindState, PBox: 3, Key: 0x10, Ev: Hold, At: int64(time.Millisecond)})
	r.Record(Record{Kind: KindServed, PBox: 3, Dur: int64(2 * time.Millisecond)})
	got, _ := r.snapshotSince(0)
	if got[0].At != time.Millisecond || got[1].At != 7*time.Millisecond {
		t.Fatalf("stamps = %v, %v; want the record's 1ms, then the clock's 7ms", got[0].At, got[1].At)
	}
	if s := got[0].String(); s != got[0].Record.String() || !strings.Contains(s, "key=0x10 ev=HOLD") {
		t.Fatalf("row text %q is not the record's line", s)
	}
	if s := got[1].String(); !strings.Contains(s, "slept=2ms") {
		t.Fatalf("row text %q missing the served length", s)
	}
}

func TestTraceCapturesActions(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, ResourceKey(1), Hold)
	h.m.Update(victim, ResourceKey(1), Prepare)
	h.advance(5 * time.Millisecond)
	h.m.Update(noisy, ResourceKey(1), Unhold)

	var sawDetection, sawAction, sawServed bool
	for _, e := range preciseTrace(h.m) {
		switch e.Kind {
		case KindDetection:
			sawDetection = true
		case KindAction:
			sawAction = true
			if e.Dur <= 0 || e.Victim != victim.ID() {
				t.Fatalf("action entry %v missing penalty length or victim", e)
			}
		case KindServed:
			sawServed = true
		}
	}
	if !sawDetection || !sawAction || !sawServed {
		t.Fatalf("trace missing verdict entries: detection=%v action=%v served=%v", sawDetection, sawAction, sawServed)
	}
}

func TestTraceRingZeroCapacity(t *testing.T) {
	// A zero or negative requested capacity must clamp to a usable ring
	// instead of dividing by cap()==0 on the wraparound path.
	for _, n := range []int{0, -4} {
		r := newTraceRing(n, func() int64 { return 0 })
		for i := 0; i < 3; i++ {
			r.Record(Record{Kind: KindState, PBox: i})
		}
		got, _ := r.snapshotSince(0)
		if len(got) != 1 || got[0].PBox != 2 {
			t.Fatalf("newTraceRing(%d): snapshot = %+v, want the single latest entry", n, got)
		}
	}
}

func TestTraceSinceAndNotify(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	h.m.Activate(p)

	all, next := h.m.TraceView(0)
	if len(all) == 0 || next == 0 {
		t.Fatalf("TraceView(0) = %d entries, next=%d; want the create/activate entries", len(all), next)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("sequence numbers not increasing: %d then %d", all[i-1].Seq, all[i].Seq)
		}
	}
	if all[len(all)-1].Seq != next {
		t.Fatalf("next=%d does not match tail seq %d", next, all[len(all)-1].Seq)
	}

	// Caught up: nothing new, and the notify channel must block.
	more, next2 := h.m.TraceView(next)
	if len(more) != 0 || next2 != next {
		t.Fatalf("TraceView(tail) = %d entries, next=%d; want 0, %d", len(more), next2, next)
	}
	select {
	case <-h.m.TraceNotify(next):
		t.Fatal("TraceNotify fired with no new entries")
	default:
	}

	// A new event closes the channel and shows up incrementally.
	ch := h.m.TraceNotify(next)
	h.m.Update(p, ResourceKey(9), Prepare)
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("TraceNotify did not fire after a new event")
	}
	fresh, next3 := h.m.TraceView(next)
	if len(fresh) == 0 || next3 <= next {
		t.Fatalf("TraceView(%d) after event = %d entries, next=%d", next, len(fresh), next3)
	}
	for _, e := range fresh {
		if e.Seq <= next {
			t.Fatalf("incremental snapshot returned stale entry seq=%d <= %d", e.Seq, next)
		}
	}

	// TraceNotify on an already-passed sequence is immediately closed.
	select {
	case <-h.m.TraceNotify(next):
	default:
		t.Fatal("TraceNotify(stale) should be immediately closed")
	}
}

// TestTraceRingRuns holds the run append against the row-at-a-time append it
// stands for: the same state events through recordRun, in runs of every
// shape — inside the slice, straddling its end, exactly the ring, longer than
// it — and through one Record each must leave two rings indistinguishable, to
// a reader that follows along (snapshotSince from its last cursor after every
// run) as much as to one that reads everything at the end. A read numbers the
// held rows of a run, so the cursor advances by at most the ring's size. Every
// long-poller parked before a run is released by it, once, with the whole run
// visible.
func TestTraceRingRuns(t *testing.T) {
	const size = 8
	runs, ref := newTraceRing(size, nil), newTraceRing(size, nil) // state rows never read the clock
	var cursor uint64
	at := int64(0)
	for i, n := range []int{3, 4, 6, size, 1, 3 * size, 2*size + 3, 5} {
		pbox := i + 1
		recs := make([]spoolRec, n)
		for k := range recs {
			at += 10
			recs[k] = spoolRec{key: ResourceKey(0x100 + k), ev: EventType(k % 4), at: at}
		}
		a, b := runs.waitCh(cursor), runs.waitCh(cursor)
		select {
		case <-a:
			t.Fatalf("run %d: the waiter's channel is closed before the run", i)
		default:
		}
		runs.recordRun(pbox, recs, nil)
		for _, r := range recs {
			ref.Record(Record{Kind: KindState, PBox: pbox, Key: r.key, Ev: r.ev, At: r.at})
		}
		for _, ch := range []<-chan struct{}{a, b} {
			select {
			case <-ch:
			default:
				t.Fatalf("run %d left a waiter parked", i)
			}
		}
		if runs.notify != nil {
			t.Fatalf("run %d left the notification channel behind", i)
		}
		got, next := runs.snapshotSince(cursor)
		want, wantNext := ref.snapshotSince(cursor)
		if next != cursor+uint64(min(n, size)) || next != wantNext {
			t.Fatalf("run %d of %d rows: cursor %d → %d, row-at-a-time ring → %d", i, n, cursor, next, wantNext)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d of %d rows, read from cursor %d:\n run ring %v\n row ring %v", i, n, cursor, got, want)
		}
		if len(got) != min(n, size) || got[len(got)-1].Seq != next || got[len(got)-1].At != time.Duration(at) {
			t.Fatalf("run %d of %d rows: %d rows back, the last one %+v; want seq %d at %d", i, n, len(got), got[len(got)-1], next, at)
		}
		cursor = next
	}
	got, next := runs.snapshotSince(0)
	want, wantNext := ref.snapshotSince(0)
	if next != wantNext || !slices.Equal(got, want) {
		t.Fatalf("the rings differ:\n run ring %v (next %d)\n row ring %v (next %d)", got, next, want, wantNext)
	}
}

// TestFreezeRowsContiguous: a Freeze's rows reach the ring in one acquisition.
// One tenant cycles activities through a Worker — sixteen events on private
// keys, every one of them delivered by the Freeze's replay — while a second
// hammers the ring with direct events and activities of its own. In the ring,
// each activity of the first ends in its sixteen state rows, its freeze row and
// its activity_end row at consecutive Seq, each of the second in its freeze and
// activity_end rows, and every activity_end carries its own freeze row's At.
func TestFreezeRowsContiguous(t *testing.T) {
	const activities = 1000
	m := NewManager(Options{Sleep: func(time.Duration) {}, TraceSize: 1 << 16})
	a, _ := m.Create(DefaultRule())
	b, _ := m.Create(DefaultRule())
	w := m.NewWorker()
	if err := w.BindDirect(a); err != nil {
		t.Fatal(err)
	}
	keys := []ResourceKey{0x100, 0x101, 0x102, 0x103}
	const direct = ResourceKey(0x999)
	for _, k := range keys {
		if m.contentionSlot(k) == m.contentionSlot(direct) {
			t.Fatalf("key %#x shares a contention slot with the direct tenant's", uintptr(k))
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range activities {
			m.Activate(a)
			for _, k := range keys {
				for ev := Prepare; ev <= Unhold; ev++ {
					w.Update(k, ev)
				}
			}
			m.Freeze(a)
		}
	}()
	go func() {
		defer wg.Done()
		for range activities {
			m.Activate(b)
			for range 4 {
				m.Update(b, direct, Hold)
				m.Update(b, direct, Unhold)
			}
			m.Freeze(b)
		}
	}()
	wg.Wait()
	rows, next := m.TraceView(0)
	if int(next) != len(rows) {
		t.Fatalf("ring wrapped: %d rows of %d", len(rows), next)
	}
	freezes := map[int]int{}
	for i, fz := range rows {
		if fz.Kind != KindFreeze {
			continue
		}
		n := 0 // the state rows delivered with the Freeze
		if fz.PBox == a.id {
			n = len(keys) * 4
		}
		if i < n || i+1 >= len(rows) {
			t.Fatalf("freeze row %d of pbox %d has no room for its run", i, fz.PBox)
		}
		run := rows[i-n : i+2]
		for k, r := range run {
			want := KindState
			switch k {
			case n:
				want = KindFreeze
			case n + 1:
				want = KindActivityEnd
			}
			if r.PBox != fz.PBox || r.Kind != want || r.Seq != run[0].Seq+uint64(k) {
				t.Fatalf("pbox %d's freeze at seq %d: row %d of its run is %v (pbox %d, seq %d), want %v",
					fz.PBox, fz.Seq, k, r.Kind, r.PBox, r.Seq, want)
			}
		}
		if end := run[n+1]; end.At != fz.At {
			t.Fatalf("pbox %d: activity_end at %v, its freeze row at %v", fz.PBox, end.At, fz.At)
		}
		freezes[fz.PBox]++
	}
	if freezes[a.id] != activities || freezes[b.id] != activities {
		t.Fatalf("freeze rows: %v, want %d per pbox", freezes, activities)
	}
}

// TestTraceRingKeepsNewestUnderSkew: the stripes fill at different rates —
// one pBox writes three rings' worth of rows while the others write a few,
// some long before the end — yet TraceView returns exactly the newest
// TraceSize rows, at consecutive Seq, as a row-at-a-time reference keeps them.
// Every row is stamped later than the one before, so numbering order is issue
// order. Every kind's fields survive the slot: the light tenants' rows are
// create, detection, action and activity_end rows, the clock stamps the
// unstamped.
func TestTraceRingKeepsNewestUnderSkew(t *testing.T) {
	const size = 600 // not a power of two: a stripe grows 256 → 512 → 600
	at := int64(0)   // the clock, and every stamped row's At: one tick per row
	m := NewManager(Options{TraceSize: size, Now: func() int64 { return at }})
	r := m.trace
	var ref []TraceEntry // every row, in issue order
	add := func(rec Record) {
		if at++; rec.Kind.stamped() {
			rec.At = at
		}
		ref = append(ref, TraceEntry{Seq: uint64(len(ref) + 1), At: time.Duration(at), Record: rec})
		r.Record(rec)
	}
	const heavy = 1
	for i := range 3 * size / 6 {
		run := make([]spoolRec, 4)
		for k := range run {
			at++
			run[k] = spoolRec{key: ResourceKey(0x100 + k), ev: EventType(k), at: at}
			ref = append(ref, TraceEntry{Seq: uint64(len(ref) + 1), At: time.Duration(at),
				Record: Record{Kind: KindState, PBox: heavy, Key: run[k].key, Ev: run[k].ev, At: at}})
		}
		at++
		fr := &freezeRows{at: at, deferNs: int64(i), execNs: int64(2 * i)}
		r.recordRun(heavy, run, fr)
		ref = append(ref,
			TraceEntry{Seq: uint64(len(ref) + 1), At: time.Duration(at), Record: Record{Kind: KindFreeze, PBox: heavy, At: at}},
			TraceEntry{Seq: uint64(len(ref) + 2), At: time.Duration(at), Record: Record{Kind: KindActivityEnd, PBox: heavy, Dur: fr.deferNs, Exec: fr.execNs}})
		if light := 2 + i%5; i%37 == 0 || i > 3*size/6-3 {
			add(Record{Kind: KindCreate, PBox: light, RuleType: Relative, Metric: MetricTail, Level: 0.25 * float64(light)})
			add(Record{Kind: KindDetection, PBox: light, Victim: heavy, Key: 0x51, Level: 1.5})
			add(Record{Kind: KindAction, PBox: light, Victim: heavy, Key: 0x51, Policy: PolicyGap, Dur: int64(i)})
			add(Record{Kind: KindActivityEnd, PBox: light, Dur: 3, Exec: int64(i)})
			add(Record{Kind: KindActivate, PBox: light})
		}
		if i%50 == 0 || i == 3*size/6-1 {
			got, next := m.TraceView(0)
			want := ref[max(0, len(ref)-size):]
			if next != uint64(len(ref)) || !slices.Equal(got, want) {
				t.Fatalf("after %d rows: TraceView(0) = %d rows next %d, want the newest %d of %d:\n got  %v\n want %v",
					len(ref), len(got), next, len(want), len(ref), got, want)
			}
		}
	}
	if n := len(r.stripe(heavy).slots); n != size {
		t.Fatalf("the heavy stripe holds %d slots, want %d", n, size)
	}
	if n := len(r.stripe(0).slots); n != 0 {
		t.Fatalf("an untouched stripe holds %d slots, want none", n)
	}
}

// TestTraceRingConcurrentReaders: four writers on two stripes (pBoxes 1 and 9
// share one, 2 and 10 the other) append activate rows and runs that end in a
// Freeze's rows, while a reader follows the ring with TraceNotify and reads it
// whole with TraceView. Every snapshot is a run of consecutive Seq ending at
// its next; in it, each pBox's rows are in issue order, and each Freeze's
// state rows, freeze row and activity_end row are consecutive. The rows
// numbered are at most the rows written: a row is numbered once, and a row
// overwritten before a read saw it never.
func TestTraceRingConcurrentReaders(t *testing.T) {
	const size, activities, states = 256, 500, 5
	m := NewManager(Options{TraceSize: size, Now: func() int64 { return 0 }})
	r := m.trace
	pboxes := []int{1, 9, 2, 10}
	check := func(rows []TraceEntry, since, next uint64) {
		t.Helper()
		if len(rows) == 0 || rows[len(rows)-1].Seq != next || rows[0].Seq <= since {
			t.Fatalf("snapshot since %d: %d rows, next %d", since, len(rows), next)
		}
		last := map[int]int64{}
		for i, e := range rows {
			if e.Seq != rows[0].Seq+uint64(i) {
				t.Fatalf("snapshot since %d: row %d has seq %d after %d", since, i, e.Seq, rows[i-1].Seq)
			}
			if e.At < time.Duration(last[e.PBox]) {
				t.Fatalf("pbox %d: row at %d after one at %d", e.PBox, e.At, last[e.PBox])
			}
			last[e.PBox] = int64(e.At)
			if e.Kind != KindFreeze || i < states || i+1 == len(rows) {
				continue
			}
			for k, row := range rows[i-states : i+2] {
				want := KindState
				switch k {
				case states:
					want = KindFreeze
				case states + 1:
					want = KindActivityEnd
				}
				if row.PBox != e.PBox || row.Kind != want {
					t.Fatalf("pbox %d's freeze at seq %d: row %d of its run is %v of pbox %d", e.PBox, e.Seq, k, row.Kind, row.PBox)
				}
			}
		}
	}
	// The writers keep going until the reader has followed them for reads
	// snapshots; each counts its activities.
	const reads = 100
	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	for _, id := range pboxes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := int64(0) // issue order, per pBox
			n := 0
			for ; n < activities || !stop.Load(); n++ {
				at++
				r.Record(Record{Kind: KindActivate, PBox: id, At: at})
				run := make([]spoolRec, states)
				for k := range run {
					at++
					run[k] = spoolRec{key: ResourceKey(id), ev: Hold, at: at}
				}
				at++
				r.recordRun(id, run, &freezeRows{at: at})
			}
			total.Add(int64(n))
		}()
	}
	var cursor uint64
	for range reads {
		<-m.TraceNotify(cursor)
		if rows, next := m.TraceView(cursor); next > cursor {
			check(rows, cursor, next)
			cursor = next
		}
		rows, next := m.TraceView(0)
		check(rows, 0, next)
	}
	stop.Store(true)
	wg.Wait()
	rows, next := m.TraceView(0)
	check(rows, 0, next)
	if written := uint64(total.Load() * (states + 3)); next < size || next > written || len(rows) != size {
		t.Fatalf("final snapshot: %d rows, next %d; want %d rows, next in [%d, %d]", len(rows), next, size, size, written)
	}
}

// TestTraceRingNumbersRunsByLastRow pins the numbering pass: a read merges the
// stripes' runs by the At of each run's last row, ties to the lower stripe,
// keeps each stripe's write order and a run's rows consecutive; rows a later
// read first sees come after them, whatever their At; a row overwritten before
// any read is never numbered.
func TestTraceRingNumbersRunsByLastRow(t *testing.T) {
	r := newTraceRing(8, func() int64 { return 0 })
	r.recordRun(1, []spoolRec{{at: 10}, {at: 30}}, nil)
	r.Record(Record{Kind: KindActivate, PBox: 1, At: 5}) // after its stripe's run ending at 30
	r.recordRun(2, []spoolRec{{at: 20}}, &freezeRows{at: 25})
	r.Record(Record{Kind: KindActivate, PBox: 3, At: 30}) // ties with stripe 1's run
	type row struct {
		pbox int
		kind Kind
		at   time.Duration
	}
	want := []row{{2, KindState, 20}, {2, KindFreeze, 25}, {2, KindActivityEnd, 25},
		{1, KindState, 10}, {1, KindState, 30}, {1, KindActivate, 5}, {3, KindActivate, 30}}
	got, next := r.snapshotSince(0)
	if next != uint64(len(want)) || len(got) != len(want) {
		t.Fatalf("first read: %v next %d, want %d rows", got, next, len(want))
	}
	for i, e := range got {
		if (row{e.PBox, e.Kind, e.At}) != want[i] || e.Seq != uint64(i+1) {
			t.Fatalf("first read, row %d: %v (seq %d), want %+v", i, e, e.Seq, want[i])
		}
	}

	r.Record(Record{Kind: KindActivate, PBox: 4, At: 1})
	if got, next := r.snapshotSince(7); next != 8 || len(got) != 1 || got[0].PBox != 4 || got[0].Seq != 8 {
		t.Fatalf("second read: %v next %d, want pbox 4's row at seq 8", got, next)
	}
	r.recordRun(5, make([]spoolRec, 10), nil)
	for range 3 {
		r.Record(Record{Kind: KindActivate, PBox: 5})
	}
	if got, next := r.snapshotSince(8); next != 16 || len(got) != 8 || got[7].Kind != KindActivate {
		t.Fatalf("third read: %d rows next %d, want the 8 rows stripe 5 holds at seq 9..16", len(got), next)
	}
}

// TestTraceRingStreamsEveryRowOnce: four writers on three stripes (pBoxes 1
// and 9 share one) append activities — an activate row, then a run of state
// rows ending in a Freeze's rows — into a ring that holds them all, while a
// view builder numbers rows (RefreshStatusView) and a reader follows with
// TraceNotify and TraceView from its cursor. The reader receives every row
// exactly once, at gapless Seq from 1, each pBox's rows in issue order and each
// Freeze's rows consecutive. Once caught up, a parked TraceNotify wakes on the
// next write.
func TestTraceRingStreamsEveryRowOnce(t *testing.T) {
	const activities, states = 1000, 6
	const perActivity = states + 3
	pboxes := []int{1, 9, 2, 3}
	// Larger than every row written: a read returns at most TraceSize rows,
	// and a slow reader's first may come after the writers are done.
	m := NewManager(Options{TraceSize: 1 << 16, Now: func() int64 { return 0 }})
	r := m.trace

	var writers, builder sync.WaitGroup
	for _, id := range pboxes {
		writers.Add(1)
		go func() {
			defer writers.Done()
			run := make([]spoolRec, states)
			for a := range activities {
				at := int64(a*(states+2) + 1)
				r.Record(Record{Kind: KindActivate, PBox: id, At: at})
				for k := range run {
					run[k] = spoolRec{key: ResourceKey(id), ev: Hold, at: at + int64(k) + 1}
				}
				r.recordRun(id, run, &freezeRows{at: at + states + 1})
			}
		}()
	}
	var stop atomic.Bool
	builder.Add(1)
	go func() {
		defer builder.Done()
		var last uint64
		for !stop.Load() {
			seq := m.RefreshStatusView().TraceSeq
			if seq < last {
				t.Errorf("view TraceSeq went back from %d to %d", last, seq)
				return
			}
			last = seq
		}
	}()

	// want returns the n-th row pBox id issued: kind and At.
	want := func(n int) (Kind, time.Duration) {
		a, pos := n/perActivity, n%perActivity
		at := time.Duration(a*(states+2) + 1)
		switch {
		case pos == 0:
			return KindActivate, at
		case pos <= states:
			return KindState, at + time.Duration(pos)
		case pos == states+1:
			return KindFreeze, at + states + 1
		}
		return KindActivityEnd, at + states + 1
	}
	seen := map[int]int{}        // rows received, per pBox
	runStart := map[int]uint64{} // Seq of the pBox's current run's first row
	var cursor uint64
	for total := len(pboxes) * activities * perActivity; int(cursor) < total; {
		select {
		case <-m.TraceNotify(cursor):
		case <-time.After(10 * time.Second):
			t.Fatalf("TraceNotify(%d) stayed parked with %d of %d rows read", cursor, cursor, total)
		}
		rows, next := m.TraceView(cursor)
		for _, e := range rows {
			if cursor++; e.Seq != cursor {
				t.Fatalf("row seq %d, want %d: a gap or a repeat", e.Seq, cursor)
			}
			n := seen[e.PBox]
			seen[e.PBox]++
			if kind, at := want(n); e.Kind != kind || e.At != at {
				t.Fatalf("pbox %d's row %d is %v at %v, want %v at %v", e.PBox, n, e.Kind, e.At, kind, at)
			}
			if pos := n % perActivity; pos == 1 {
				runStart[e.PBox] = e.Seq
			} else if pos > 1 && e.Seq != runStart[e.PBox]+uint64(pos-1) {
				t.Fatalf("pbox %d's activity %d: run row %d at seq %d, its run began at %d", e.PBox, n/perActivity, pos, e.Seq, runStart[e.PBox])
			}
		}
		if next != cursor {
			t.Fatalf("TraceView returned next %d after rows up to %d", next, cursor)
		}
	}
	writers.Wait()
	stop.Store(true)
	builder.Wait()
	for _, id := range pboxes {
		if seen[id] != activities*perActivity {
			t.Fatalf("pbox %d: %d rows read, want %d", id, seen[id], activities*perActivity)
		}
	}

	ch := m.TraceNotify(cursor)
	select {
	case <-ch:
		t.Fatal("TraceNotify fired with every row read")
	default:
	}
	r.Record(Record{Kind: KindActivate, PBox: 2, At: 1 << 40})
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("a parked TraceNotify missed the next write")
	}
	if rows, next := m.TraceView(cursor); len(rows) != 1 || next != cursor+1 {
		t.Fatalf("after the wake: %d rows next %d, want 1 row at %d", len(rows), next, cursor+1)
	}
}

// TestTraceRingGrowthStops: a stripe's array doubles from traceStripeMin only
// until it holds the ring's size, and a full ring's run append allocates
// nothing. A one-row ring still keeps the newest row, and numbers only the
// rows it holds when read. A slot is 64 bytes and a stripe one line.
func TestTraceRingGrowthStops(t *testing.T) {
	if slot, stripe := unsafe.Sizeof(traceSlot{}), unsafe.Sizeof(traceStripe{}); slot != 64 || stripe != cacheLineSize {
		t.Fatalf("a slot is %d bytes (want 64), a stripe header %d (want %d)", slot, stripe, cacheLineSize)
	}
	const size = 1000
	r := newTraceRing(size, func() int64 { return 0 })
	s := r.stripe(3)
	var lens []int
	run := make([]spoolRec, 10)
	for range 3 * size / len(run) {
		r.recordRun(3, run, nil)
		if n := len(s.slots); len(lens) == 0 || lens[len(lens)-1] != n {
			lens = append(lens, n)
		}
	}
	if want := []int{traceStripeMin, 2 * traceStripeMin, size}; !slices.Equal(lens, want) {
		t.Fatalf("the stripe's array grew through %v slots, want %v", lens, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.recordRun(3, run, nil) }); allocs != 0 {
		t.Fatalf("recordRun on a full stripe = %v allocs/op, want 0", allocs)
	}
	if len(s.slots) != size || s.held != size {
		t.Fatalf("the full stripe holds %d rows in %d slots, want %d", s.held, len(s.slots), size)
	}

	one := newTraceRing(1, func() int64 { return 0 })
	one.recordRun(3, []spoolRec{{at: 1}, {at: 2}, {at: 3}}, &freezeRows{at: 4})
	one.Record(Record{Kind: KindState, PBox: 5, At: 5})
	one.recordRun(3, []spoolRec{{at: 6}}, nil)
	// Held when read: pbox 5's row at 5 and pbox 3's at 6, numbered 1 and 2.
	got, next := one.snapshotSince(0)
	if next != 2 || len(got) != 1 || got[0].Seq != 2 || got[0].At != 6 || len(one.stripe(3).slots) != 1 {
		t.Fatalf("one-row ring: %v next %d, want the row at 6 with seq 2", got, next)
	}
}

// BenchmarkTraceRingNumbering prices a reader's stall: one numbering pass over
// stripes full stripes of fresh rows, pboxd's TraceSize each, written as
// 18-row Freeze runs. ns/op is the pass, every stripe lock held throughout;
// ns/row divides it by the rows numbered.
func BenchmarkTraceRingNumbering(b *testing.B) {
	const size = 4096
	for _, stripes := range []int{2, traceStripes} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			r := newTraceRing(size, func() int64 { return 0 })
			run := make([]spoolRec, 16)
			var at int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for id := range stripes {
					for range size / (len(run) + 2) {
						at++
						r.recordRun(id, run, &freezeRows{at: at})
					}
				}
				b.StartTimer()
				r.numbered()
			}
			rows := stripes * size / (len(run) + 2) * (len(run) + 2)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// TestTraceAddAllocatesOnlyForWaiters pins the ring's garbage-free append: the
// notification channel is made by a long-poller, never by the event path, and
// every waiter parked on it is released by the next Record. Rows a read has
// not numbered yet count as newer than any cursor: a waiter parks only at the
// cursor a read returned.
func TestTraceAddAllocatesOnlyForWaiters(t *testing.T) {
	r := newTraceRing(8, func() int64 { return 0 })
	e := Record{Kind: KindState, PBox: 1, Ev: Prepare}
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(e) }); allocs != 0 {
		t.Fatalf("traceRing.Record with no waiter = %v allocs/op, want 0", allocs)
	}
	run := make([]spoolRec, 12) // longer than the ring: wraps, and skips the rows it would overwrite
	if allocs := testing.AllocsPerRun(1000, func() { r.recordRun(1, run, nil) }); allocs != 0 {
		t.Fatalf("traceRing.recordRun with no waiter = %v allocs/op, want 0", allocs)
	}
	select {
	case <-r.waitCh(r.seq.Load()):
	default:
		t.Fatal("waitCh(seq) parks with rows not numbered yet")
	}
	_, next := r.snapshotSince(r.seq.Load())
	a, b := r.waitCh(next), r.waitCh(next)
	select {
	case <-a:
		t.Fatal("waitCh(tail) is closed before any new entry")
	default:
	}
	r.Record(e)
	for _, ch := range []<-chan struct{}{a, b} {
		select {
		case <-ch:
		default:
			t.Fatal("a Record left a waiter parked")
		}
	}
}

func TestTraceDisabledSinceNotify(t *testing.T) {
	m := NewManager(Options{})
	if entries, next := m.TraceView(0); entries != nil || next != 0 {
		t.Fatalf("TraceView on disabled tracing = %v, %d; want nil, 0", entries, next)
	}
	if ch := m.TraceNotify(0); ch != nil {
		t.Fatal("TraceNotify on disabled tracing should be nil")
	}
}

func TestNameResourceFlowsIntoTrace(t *testing.T) {
	h := newHarness(t)
	key := ResourceKey(0x1234)
	h.m.NameResource(key, "bufpool")
	if got := h.m.ResourceName(key); got != "bufpool" {
		t.Fatalf("ResourceName = %q, want bufpool", got)
	}
	p := h.pbox(0.5)
	h.m.Activate(p)
	h.m.Update(p, key, Prepare)
	var found bool
	for _, e := range preciseTrace(h.m) {
		// The ring stores the key; the reader resolves the name.
		if e.Key == key && e.Kind == KindState && e.Ev == Prepare {
			found = true
			if name := h.m.ResourceName(e.Key); name != "bufpool" {
				t.Fatalf("ResourceName(entry.Key) = %q, want bufpool", name)
			}
		}
	}
	if !found {
		t.Fatal("no PREPARE trace entry for the named resource")
	}
	// Unregistering reverts to the raw key.
	h.m.NameResource(key, "")
	if got := h.m.ResourceName(key); got != "" {
		t.Fatalf("ResourceName after unregister = %q, want empty", got)
	}
}
