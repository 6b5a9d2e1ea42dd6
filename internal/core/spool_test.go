package core

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// Tests for the two-tier ingestion path (spool.go, DESIGN.md §10). The
// centerpiece is the differential harness: the same hand-cranked interference
// script runs once through per-worker spools and once through direct
// Manager.Update, and everything the manager computes — detection verdicts,
// penalty sequences, attribution totals, per-pBox snapshots, observer
// streams — must come out identical.

// smallWorker is NewWorker with the spool's buffer cut to capacity records
// (len(recs) is the capacity), for scripts that need fill-flushes.
func smallWorker(m *Manager, capacity int) *Worker {
	w := m.NewWorker()
	w.spool.recs = w.spool.recs[:capacity]
	return w
}

// diffEvent is one recorded state event.
type diffEvent struct {
	key ResourceKey
	ev  EventType
}

// diffDetection is one recorded Detection callback.
type diffDetection struct {
	noisy, victim int
	key           ResourceKey
	projected     float64
}

// diffAction is one recorded PenaltyAction callback.
type diffAction struct {
	noisy, victim int
	key           ResourceKey
	policy        PolicyKind
	length        time.Duration
}

// diffObserver records the full observer stream. State events are kept per
// pBox: the spooled run batches per worker, so the global interleaving of
// *uncontended* events across pBoxes legitimately differs; the per-pBox
// order and content, and the global order of verdicts and actions, may not.
// Event timestamps are not compared: a replayed event carries its spool
// time, a direct one its issue time.
type diffObserver struct {
	RecordObserver
	events map[int][]diffEvent
	dets   []diffDetection
	acts   []diffAction
	served []time.Duration
}

func newDiffObserver() *diffObserver {
	o := &diffObserver{events: make(map[int][]diffEvent)}
	o.Sink = o
	return o
}

func (o *diffObserver) Record(rec Record) {
	switch rec.Kind {
	case KindState:
		o.events[rec.PBox] = append(o.events[rec.PBox], diffEvent{rec.Key, rec.Ev})
	case KindDetection:
		o.dets = append(o.dets, diffDetection{rec.PBox, rec.Victim, rec.Key, rec.Level})
	case KindAction:
		o.acts = append(o.acts, diffAction{rec.PBox, rec.Victim, rec.Key, rec.Policy, time.Duration(rec.Dur)})
	case KindServed:
		o.served = append(o.served, time.Duration(rec.Dur))
	}
}

// diffResult captures everything a differential run is compared on.
type diffResult struct {
	sleeps    []time.Duration
	obs       *diffObserver
	snapshots map[int]Snapshot
	attr      map[diffTriple]AttributionRecord
	crossings int64
}

type diffTriple struct {
	culprit, victim int
	key             ResourceKey
}

// runSpoolDiffScript runs the interference script and returns the artifacts.
// spooled selects per-worker Worker.Update (Tier A) vs direct Manager.Update
// (Tier B only); withObserver attaches the recording observer and the trace
// ring (the replay owes them every state row), while the quiet variant runs
// with both off.
func runSpoolDiffScript(t *testing.T, spooled, withObserver bool) diffResult {
	t.Helper()
	var obs *diffObserver
	h := newHarness(t, func(o *Options) {
		o.Attribution = true
		if withObserver {
			obs = newDiffObserver()
			o.Observer = obs
		} else {
			o.TraceSize = 0 // no trace, no observer
		}
	})
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	h.m.Activate(noisy)
	h.m.Activate(victim)

	// Small spools: phase 1 crosses many fill-flushes.
	nw := smallWorker(h.m, 16)
	vw := smallWorker(h.m, 16)
	if err := nw.BindDirect(noisy); err != nil {
		t.Fatalf("BindDirect(noisy): %v", err)
	}
	if err := vw.BindDirect(victim); err != nil {
		t.Fatalf("BindDirect(victim): %v", err)
	}
	upd := func(w *Worker, p *PBox, key ResourceKey, ev EventType) {
		if spooled {
			w.Update(key, ev)
		} else {
			h.m.Update(p, key, ev)
		}
	}

	// Phase 1: disjoint fast-path traffic. Each pBox works its own key, so
	// in the spooled run every event lands in a spool; the small capacity
	// forces repeated fill-flush replays mid-phase.
	const coldN, coldV = ResourceKey(0x100), ResourceKey(0x200)
	for i := 0; i < 40; i++ {
		upd(nw, noisy, coldN, Hold)
		h.advance(2 * time.Microsecond)
		upd(nw, noisy, coldN, Unhold)
		h.advance(2 * time.Microsecond)
		upd(vw, victim, coldV, Prepare)
		h.advance(time.Microsecond)
		upd(vw, victim, coldV, Enter)
		h.advance(3 * time.Microsecond)
		upd(vw, victim, coldV, Hold)
		upd(vw, victim, coldV, Unhold)
		h.advance(2 * time.Microsecond)
	}

	if spooled {
		// The phase above must really have run on the fast path: the cold
		// keys' slots carry the workers' claims, or the differential would
		// be comparing the slow path with itself.
		if got := h.m.contentionSlot(coldN).Load(); got != int64(noisy.id) {
			t.Fatalf("cold slot for noisy = %d, want fast-path claim %d", got, noisy.id)
		}
		if got := h.m.contentionSlot(coldV).Load(); got != int64(victim.id) {
			t.Fatalf("cold slot for victim = %d, want fast-path claim %d", got, victim.id)
		}
	}

	// Phase 2: cross-pBox interference on a shared key. In the spooled run
	// the noisy HOLD is buffered under noisy's fast-path claim; the victim's
	// PREPARE finds the slot claimed by another pBox, hands off to the slow
	// path, and the contended flip drains noisy's spool first — so the HOLD
	// reaches the shard (with its recorded timestamp) before the PREPARE
	// registers its waiter, exactly the direct run's order.
	const shared = ResourceKey(42)
	upd(nw, noisy, shared, Hold)
	h.advance(100 * time.Microsecond)
	upd(vw, victim, shared, Prepare)
	h.advance(900 * time.Microsecond)
	upd(nw, noisy, shared, Unhold) // settle: detection + penalty on noisy
	h.advance(10 * time.Microsecond)
	upd(vw, victim, shared, Enter)
	h.advance(50 * time.Microsecond)
	upd(vw, victim, shared, Hold)
	h.advance(20 * time.Microsecond)
	upd(vw, victim, shared, Unhold)

	if spooled {
		nw.Flush()
		vw.Flush()
	}
	h.m.Freeze(noisy)
	h.m.Freeze(victim)

	res := diffResult{
		sleeps:    h.sleeps,
		obs:       obs,
		snapshots: make(map[int]Snapshot),
		attr:      make(map[diffTriple]AttributionRecord),
		crossings: h.m.Crossings(),
	}
	st := h.m.Status()
	for _, s := range st.Snapshots {
		res.snapshots[s.ID] = s
	}
	for _, r := range st.Attribution {
		res.attr[diffTriple{r.CulpritID, r.VictimID, r.Key}] = r
	}
	for _, key := range []ResourceKey{coldN, coldV, shared} {
		if c := contention(h.m, key); c.Waiters != 0 || c.Holders != 0 {
			t.Fatalf("dangling bookkeeping on key %#x: waiters=%d holders=%d", uintptr(key), c.Waiters, c.Holders)
		}
	}
	return res
}

func compareDiffResults(t *testing.T, spooled, direct diffResult) {
	t.Helper()
	if len(spooled.sleeps) != len(direct.sleeps) {
		t.Fatalf("penalty sleeps: spooled %v, direct %v", spooled.sleeps, direct.sleeps)
	}
	for i := range direct.sleeps {
		if spooled.sleeps[i] != direct.sleeps[i] {
			t.Fatalf("sleep %d: spooled %v, direct %v", i, spooled.sleeps[i], direct.sleeps[i])
		}
	}
	if len(spooled.snapshots) != len(direct.snapshots) {
		t.Fatalf("snapshot count: spooled %d, direct %d", len(spooled.snapshots), len(direct.snapshots))
	}
	for id, want := range direct.snapshots {
		if got := spooled.snapshots[id]; got != want {
			t.Fatalf("snapshot for pbox %d:\n spooled %+v\n direct  %+v", id, got, want)
		}
	}
	if len(spooled.attr) != len(direct.attr) {
		t.Fatalf("attribution triples: spooled %d, direct %d", len(spooled.attr), len(direct.attr))
	}
	for k, want := range direct.attr {
		if got := spooled.attr[k]; got != want {
			t.Fatalf("attribution %+v:\n spooled %+v\n direct  %+v", k, got, want)
		}
	}
	if spooled.crossings != direct.crossings {
		t.Fatalf("crossings: spooled %d, direct %d (spool folding must preserve the count)",
			spooled.crossings, direct.crossings)
	}
}

// TestSpoolDifferentialDetection is the acceptance check for the two-tier
// split: with an observer and trace attached, the spooled run must produce
// the identical detection verdicts, penalty action sequence, served-penalty
// sequence, per-pBox event streams, snapshots, and attribution totals as the
// direct run of the same script.
func TestSpoolDifferentialDetection(t *testing.T) {
	spooled := runSpoolDiffScript(t, true, true)
	direct := runSpoolDiffScript(t, false, true)

	// The script must actually exercise the interference machinery.
	if len(direct.obs.dets) == 0 || len(direct.obs.acts) == 0 || len(direct.sleeps) == 0 {
		t.Fatalf("script produced no interference: dets=%d acts=%d sleeps=%d",
			len(direct.obs.dets), len(direct.obs.acts), len(direct.sleeps))
	}

	compareDiffResults(t, spooled, direct)

	if len(spooled.obs.dets) != len(direct.obs.dets) {
		t.Fatalf("detections: spooled %v, direct %v", spooled.obs.dets, direct.obs.dets)
	}
	for i := range direct.obs.dets {
		if spooled.obs.dets[i] != direct.obs.dets[i] {
			t.Fatalf("detection %d: spooled %+v, direct %+v", i, spooled.obs.dets[i], direct.obs.dets[i])
		}
	}
	if len(spooled.obs.acts) != len(direct.obs.acts) {
		t.Fatalf("actions: spooled %v, direct %v", spooled.obs.acts, direct.obs.acts)
	}
	for i := range direct.obs.acts {
		if spooled.obs.acts[i] != direct.obs.acts[i] {
			t.Fatalf("action %d: spooled %+v, direct %+v", i, spooled.obs.acts[i], direct.obs.acts[i])
		}
	}
	if len(spooled.obs.served) != len(direct.obs.served) {
		t.Fatalf("served: spooled %v, direct %v", spooled.obs.served, direct.obs.served)
	}
	for i := range direct.obs.served {
		if spooled.obs.served[i] != direct.obs.served[i] {
			t.Fatalf("served %d: spooled %v, direct %v", i, spooled.obs.served[i], direct.obs.served[i])
		}
	}
	if len(spooled.obs.events) != len(direct.obs.events) {
		t.Fatalf("event streams for %d pboxes spooled, %d direct",
			len(spooled.obs.events), len(direct.obs.events))
	}
	for id, want := range direct.obs.events {
		got := spooled.obs.events[id]
		if len(got) != len(want) {
			t.Fatalf("pbox %d event stream: spooled %d events, direct %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pbox %d event %d: spooled %+v, direct %+v", id, i, got[i], want[i])
			}
		}
	}
}

// TestSpoolDifferentialQuiet is the same differential with no observer and no
// trace ring — the replay's shard-lock batching and balanced-pair coalescing
// with no state row to deliver. Sleeps, snapshots (including defer accounting
// from coalesced PREPARE/ENTER pairs), attribution totals, and the crossings
// count must still match the direct run exactly.
func TestSpoolDifferentialQuiet(t *testing.T) {
	spooled := runSpoolDiffScript(t, true, false)
	direct := runSpoolDiffScript(t, false, false)
	if len(direct.sleeps) == 0 {
		t.Fatal("script produced no penalties")
	}
	compareDiffResults(t, spooled, direct)
}

// TestReplayQuietPrivateKeysSkipShards: a batch of balanced pairs on keys only
// its pBox has touched replays without one shard lock (so which stripe the
// keys hash to, and who else uses it, cannot cost the tenant anything), and
// the shortcut stands down exactly where the stripe could hold a waiter: the
// pBox's own outstanding PREPARE, and a slot another pBox has contended. Each
// script books what the same script through Manager.Update books.
func TestReplayQuietPrivateKeysSkipShards(t *testing.T) {
	const k1, k2, other = ResourceKey(0x1100), ResourceKey(0x2200), ResourceKey(0x3300)
	type step struct {
		key    ResourceKey
		ev     EventType
		byPeer bool // issued by a second pBox through Manager.Update
	}
	pair := func(k ResourceKey) []step {
		return []step{{k, Prepare, false}, {k, Enter, false}, {k, Hold, false}, {k, Unhold, false}}
	}
	scripts := []struct {
		name      string
		steps     []step
		wantLocks int64 // shard locks the final Freeze's replay may take
	}{
		{"balanced pairs on private keys", append(pair(k1), pair(k2)...), 0},
		// PREPARE stays outstanding across the HOLD+UNHOLD: p waits on k1
		// itself, so the pair must run the UNHOLD arm under the stripe.
		{"own waiter outstanding", []step{{k1, Prepare, false}, {k1, Hold, false}, {k1, Unhold, false}, {k1, Enter, false}}, 1},
		// The peer's event revokes k1's claim and sweeps p's batch in: k1 is
		// slow path for good, what p spools on k2 afterwards is still private.
		{"peer contends one key", append(append(pair(k1), step{k1, Prepare, true}, step{k1, Enter, true}), append(pair(k1), pair(k2)...)...), 0},
	}
	for _, sc := range scripts {
		for _, observed := range []bool{false, true} {
			name := sc.name
			if observed {
				// Collapse and privateTo do not ask who listens: the observed
				// batch (trace ring and an observer) takes the same locks.
				name += ", observed"
			}
			t.Run(name, func(t *testing.T) {
				run := func(spooled bool) (diffResult, int64) {
					h := newHarness(t, func(o *Options) {
						o.Attribution = true
						if observed {
							o.Observer = newRecordingObserver()
						} else {
							o.TraceSize = 0
						}
					})
					p, peer := h.pbox(0.5), h.pbox(0.5)
					w := h.m.NewWorker()
					if err := w.BindDirect(p); err != nil {
						t.Fatalf("BindDirect: %v", err)
					}
					h.m.Activate(p)
					h.m.Activate(peer)
					h.m.Update(peer, other, Hold) // the peer is live on the stripes throughout
					for _, s := range sc.steps {
						switch {
						case s.byPeer:
							h.m.Update(peer, s.key, s.ev)
						case spooled:
							w.Update(s.key, s.ev)
						default:
							h.m.Update(p, s.key, s.ev)
						}
						h.advance(10 * time.Microsecond)
					}
					before := h.m.SelfStats().ShardLockAcquisitions
					h.m.Freeze(p)
					locks := h.m.SelfStats().ShardLockAcquisitions - before
					h.m.Update(peer, other, Unhold)
					h.m.Freeze(peer)
					return hintDiffResult(h), locks
				}
				spooled, locks := run(true)
				direct, _ := run(false)
				compareDiffResults(t, spooled, direct)
				if locks != sc.wantLocks {
					t.Fatalf("the freeze's replay took %d shard locks, want %d", locks, sc.wantLocks)
				}
			})
		}
	}
}

// TestReplayObservedMatchesDirect is the stream differential of the one
// replay loop: each script runs once through a spooling Worker and once
// through Manager.Update, on managers with a trace ring and a record-collecting
// observer, and both sinks must see the same records in the same order — the
// state rows a collapsed pair still owes, every verdict row after the state
// row of the event that caused it — with the ring's rows numbered without a gap
// and stamped with the recorded event time.
func TestReplayObservedMatchesDirect(t *testing.T) {
	const k1, k2, k3 = ResourceKey(0x1100), ResourceKey(0x2200), ResourceKey(0x3300)
	type step struct {
		op     byte // 'e' event, 'f' Freeze(p), 'a' Activate(p), 'w' Worker.Flush
		key    ResourceKey
		ev     EventType
		byPeer bool // the event is the peer's, through Manager.Update in both runs
		// late appends the record to the spool behind the slot check, as an
		// Update that lost the race with a revocation does (the straggler of
		// Worker.Update): the only way a batch meets another pBox's waiter.
		late bool
	}
	ev := func(k ResourceKey, e EventType) step { return step{op: 'e', key: k, ev: e} }
	pair := func(k ResourceKey) []step {
		return []step{ev(k, Prepare), ev(k, Enter), ev(k, Hold), ev(k, Unhold)}
	}
	late := func(steps []step) []step {
		out := slices.Clone(steps)
		for i := range out {
			out[i].late = true
		}
		return out
	}
	cat := slices.Concat[[]step]
	scripts := []struct {
		name  string
		steps []step
		want  []Kind // kinds that must appear strictly between two of p's state rows
	}{
		{"uninterfered batch", cat(pair(k1), pair(k2), pair(k1)), nil},
		// p waits on k1 itself across its own HOLD+UNHOLD: the UNHOLD arm
		// runs and blames the wait on the hold, mid-batch.
		{"own outstanding PREPARE", cat(pair(k2), []step{ev(k1, Prepare), ev(k1, Hold), ev(k1, Unhold), ev(k1, Enter)}, pair(k2)), []Kind{KindBlocked}},
		// The peer's PREPARE revokes k1's claim while p's batch (with the HOLD)
		// is buffered: the sweep replays it first, p's UNHOLD then takes the
		// slow path and is detected; k2 stays private. k3 is held throughout so
		// the penalty waits for the explicit flush.
		{"peer contends one key mid-batch", cat([]step{ev(k3, Hold)}, pair(k1), []step{ev(k1, Hold), {op: 'e', key: k1, ev: Prepare, byPeer: true}}, pair(k2), []step{ev(k1, Unhold)}, pair(k2), []step{ev(k3, Unhold), {op: 'w'}}),
			[]Kind{KindBlocked, KindDetection, KindAction}},
		// The same meeting inside one batch: p's records after the revocation
		// reach the spool late, so one replay carries collapsed pairs, the
		// UNHOLD whose arm finds the peer waiting, and more pairs behind it.
		{"verdict inside one batch", cat([]step{ev(k3, Hold), ev(k1, Hold), {op: 'e', key: k1, ev: Prepare, byPeer: true}}, late(cat(pair(k2), []step{ev(k1, Unhold)}, pair(k2))), []step{ev(k3, Unhold), {op: 'w'}}),
			[]Kind{KindBlocked, KindDetection, KindAction}},
		// Freeze drains the buffered batch before it closes the window; what
		// reaches the spool after it belongs to no window and is dropped by the
		// next Activate's flush.
		{"freeze while buffered", cat(pair(k1), []step{ev(k2, Hold), {op: 'f'}}, late(pair(k1)), []step{{op: 'a'}}, pair(k1), []step{ev(k2, Unhold)}), nil},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			run := func(spooled bool) ([]Record, []TraceEntry) {
				obs := newRecordingObserver()
				h := newHarness(t, func(o *Options) {
					o.Attribution = true
					o.Observer = obs
				})
				p, peer := h.pbox(0.5), h.pbox(0.5)
				w := h.m.NewWorker()
				if err := w.BindDirect(p); err != nil {
					t.Fatalf("BindDirect: %v", err)
				}
				h.m.Activate(p)
				h.m.Activate(peer)
				for _, s := range sc.steps {
					switch {
					case s.op == 'f':
						h.m.Freeze(p)
					case s.op == 'a':
						h.m.Activate(p)
					case s.op == 'w':
						if spooled {
							w.Flush()
						}
					case s.byPeer:
						h.m.Update(peer, s.key, s.ev)
					case spooled && s.late:
						if !w.spool.append(p, s.key, s.ev, h.now) {
							t.Fatal("the spool refused a late record")
						}
					case spooled:
						w.Update(s.key, s.ev)
					default:
						h.m.Update(p, s.key, s.ev)
					}
					h.advance(100 * time.Microsecond)
				}
				h.m.Freeze(p)
				h.m.Freeze(peer)
				rows, _ := h.m.TraceView(0)
				return obs.snapshot(), rows
			}
			spooled, rows := run(true)
			direct, directRows := run(false)
			if i := firstDiff(spooled, direct); !slices.Equal(spooled, direct) {
				t.Fatalf("record %d differs (of %d spooled, %d direct):\n spooled %v\n direct  %v",
					i, len(spooled), len(direct), at(spooled, i), at(direct, i))
			}
			if len(rows) != len(spooled) || len(directRows) != len(direct) {
				t.Fatalf("the ring holds %d rows (direct %d) of %d records", len(rows), len(directRows), len(spooled))
			}
			for i, e := range rows {
				if e.Record != spooled[i] || e.Seq != uint64(i)+1 {
					t.Fatalf("ring row %d = seq %d %v, the observer's record %d is %v", i, e.Seq, e.Record, i, spooled[i])
				}
				if e.Kind == KindState && e.At != time.Duration(e.Record.At) {
					t.Fatalf("ring row %d stamped %v, recorded at %v", i, e.At, time.Duration(e.Record.At))
				}
			}
			// The script exercised what it names: the verdict rows sit between
			// two state rows of p (created first: pBox 1).
			for _, k := range sc.want {
				i := slices.IndexFunc(spooled, func(r Record) bool { return r.Kind == k })
				if i < 0 {
					t.Fatalf("no %v row in the stream", k)
				}
				before := slices.ContainsFunc(spooled[:i], func(r Record) bool { return r.Kind == KindState && r.PBox == 1 })
				after := slices.ContainsFunc(spooled[i:], func(r Record) bool { return r.Kind == KindState && r.PBox == 1 })
				if !before || !after {
					t.Fatalf("the %v row (record %d) is not between state rows of pBox 1", k, i)
				}
			}
		})
	}
}

// at is s[i] for a diagnostic, nil past the end.
func at(s []Record, i int) any {
	if i < len(s) {
		return s[i]
	}
	return nil
}

// TestSpoolFlushOnReadStatus: spooled events that no trigger has flushed yet
// must still be visible to every consistent read — Waiters, Holders, Trace,
// and Status must equal what an unspooled manager reports mid-script, with
// no explicit Flush anywhere.
func TestSpoolFlushOnReadStatus(t *testing.T) {
	run := func(spooled bool) (h *harness, p *PBox, w *Worker) {
		h = newHarness(t, func(o *Options) { o.Attribution = true })
		p = h.pbox(0.5)
		h.m.Activate(p)
		w = h.m.NewWorker()
		if err := w.BindDirect(p); err != nil {
			t.Fatalf("BindDirect: %v", err)
		}
		upd := func(key ResourceKey, ev EventType) {
			if spooled {
				w.Update(key, ev)
			} else {
				h.m.Update(p, key, ev)
			}
		}
		upd(7, Prepare)
		h.advance(300 * time.Microsecond)
		upd(7, Enter)
		h.advance(100 * time.Microsecond)
		upd(9, Hold)
		return h, p, w
	}

	hs, _, _ := run(true)
	hd, _, _ := run(false)

	// Holders/Waiters sweep the registered spools before reading shard state.
	if got, want := contention(hs.m, 9).Holders, contention(hd.m, 9).Holders; got != want || got != 1 {
		t.Fatalf("Holders(9): spooled %d, direct %d, want 1", got, want)
	}
	if got, want := contention(hs.m, 7).Waiters, contention(hd.m, 7).Waiters; got != want || got != 0 {
		t.Fatalf("Waiters(7): spooled %d, direct %d, want 0", got, want)
	}
	// Trace flushes on read too, and replayed entries carry the recorded
	// event times, so the traces agree event for event.
	ts, td := preciseTrace(hs.m), preciseTrace(hd.m)
	if len(ts) != len(td) {
		t.Fatalf("trace length: spooled %d, direct %d", len(ts), len(td))
	}
	for i := range td {
		if ts[i] != td[i] {
			t.Fatalf("trace entry %d: spooled %+v, direct %+v", i, ts[i], td[i])
		}
	}
	// Status totals agree mid-activity.
	ss, sd := hs.m.Status(), hd.m.Status()
	if len(ss.Snapshots) != len(sd.Snapshots) {
		t.Fatalf("snapshots: spooled %d, direct %d", len(ss.Snapshots), len(sd.Snapshots))
	}
	for i := range sd.Snapshots {
		if ss.Snapshots[i] != sd.Snapshots[i] {
			t.Fatalf("snapshot %d: spooled %+v, direct %+v", i, ss.Snapshots[i], sd.Snapshots[i])
		}
	}
}

// TestSpoolEdgeCapacities covers the degenerate spool sizes: a one-slot spool
// (every second append triggers a fill-flush) and a zero-slot spool (append
// can never succeed, like a takeover that keeps losing to another feeder;
// Worker.Update's double-failure fallback applies the event directly).
func TestSpoolEdgeCapacities(t *testing.T) {
	script := func(h *harness, upd func(ResourceKey, EventType)) {
		t.Helper()
		upd(5, Prepare)
		h.advance(40 * time.Microsecond)
		upd(5, Enter)
		h.advance(10 * time.Microsecond)
		upd(5, Hold)
		h.advance(20 * time.Microsecond)
		upd(5, Unhold)
		upd(6, Hold)
		if got := contention(h.m, 6).Holders; got != 1 {
			t.Fatalf("Holders(6) mid-script = %d, want 1", got)
		}
		upd(6, Unhold)
		h.advance(30 * time.Microsecond)
	}
	finish := func(h *harness, p *PBox) Snapshot {
		h.m.Freeze(p)
		return p.snapshot()
	}

	// Reference: direct updates.
	hd := newHarness(t)
	pd := hd.pbox(0.5)
	hd.m.Activate(pd)
	script(hd, func(key ResourceKey, ev EventType) { hd.m.Update(pd, key, ev) })
	want := finish(hd, pd)

	t.Run("one-slot", func(t *testing.T) {
		h := newHarness(t)
		p := h.pbox(0.5)
		h.m.Activate(p)
		w := smallWorker(h.m, 1)
		if err := w.BindDirect(p); err != nil {
			t.Fatal(err)
		}
		script(h, w.Update)
		w.Flush()
		if got := finish(h, p); got.TotalDefer != want.TotalDefer || got.TotalExec != want.TotalExec ||
			got.Activities != want.Activities {
			t.Fatalf("one-slot snapshot %+v, direct %+v", got, want)
		}
	})

	t.Run("zero-slot", func(t *testing.T) {
		h := newHarness(t)
		p := h.pbox(0.5)
		h.m.Activate(p)
		// A zero-capacity spool can never accept an append; Worker.Update
		// must fall back to the slow path rather than drop the event.
		w := smallWorker(h.m, 0)
		if err := w.BindDirect(p); err != nil {
			t.Fatal(err)
		}
		script(h, w.Update)
		w.Flush()
		if st := h.m.SelfStats(); st.SpoolFlushedEvents != 0 || st.SpoolOverflows == 0 {
			t.Fatalf("zero-slot run spooled %d events over %d refused appends; want none, some", st.SpoolFlushedEvents, st.SpoolOverflows)
		}
		if got := finish(h, p); got.TotalDefer != want.TotalDefer || got.TotalExec != want.TotalExec ||
			got.Activities != want.Activities {
			t.Fatalf("zero-slot snapshot %+v, direct %+v", got, want)
		}
	})
}

// TestEventFilterSpoolOrdering (satellite 2): the EventFilter runs before any
// slot or spool work on both entry points, so a filtered event can neither
// flip a contention slot, revoke a fast-path claim, nor leave competitor-list
// residue behind.
func TestEventFilterSpoolOrdering(t *testing.T) {
	const key = ResourceKey(42)
	h := newHarness(t, func(o *Options) {
		o.EventFilter = func(k ResourceKey, ev EventType) bool {
			return !(k == key && ev == Unhold) // drop UNHOLDs on the shared key
		}
	})
	p := h.pbox(0.5)
	q := h.pbox(0.5)
	h.m.Activate(p)
	h.m.Activate(q)
	w := h.m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		t.Fatal(err)
	}

	// Filtered through the Worker: the slot must stay untouched.
	w.Update(key, Unhold)
	if got := h.m.contentionSlot(key).Load(); got != 0 {
		t.Fatalf("slot after filtered Worker.Update = %d, want 0 (untouched)", got)
	}
	// Filtered through the Manager: the slow path must not mark contention.
	h.m.Update(q, key, Unhold)
	if got := h.m.contentionSlot(key).Load(); got != 0 {
		t.Fatalf("slot after filtered Manager.Update = %d, want 0 (untouched)", got)
	}

	// An accepted fast-path event claims the slot for p...
	w.Update(key, Hold)
	if got := h.m.contentionSlot(key).Load(); got != int64(p.id) {
		t.Fatalf("slot after accepted Hold = %d, want claim %d", got, p.id)
	}
	// ...and a filtered UNHOLD afterwards neither releases the hold nor
	// disturbs the claim — on either entry point.
	w.Update(key, Unhold)
	h.m.Update(q, key, Unhold)
	if got := h.m.contentionSlot(key).Load(); got != int64(p.id) {
		t.Fatalf("slot after filtered Unholds = %d, want claim %d intact", got, p.id)
	}
	if got := contention(h.m, key).Holders; got != 1 {
		t.Fatalf("Holders = %d, want 1 (the accepted Hold, Unholds filtered)", got)
	}
	// No competitor-list entry may have been created for the filtered
	// events: the hold lives in the holder index, and the waiter list for
	// the key must be empty or absent.
	s := h.m.shardFor(key)
	s.mu.Lock()
	cl := s.competitors[key]
	leaked := cl != nil && len(cl.waiters) != 0
	s.mu.Unlock()
	if leaked {
		t.Fatal("filtered events leaked competitor-list waiter entries")
	}
	if got := contention(h.m, key).Waiters; got != 0 {
		t.Fatalf("Waiters = %d, want 0", got)
	}
}

// TestSpoolFlushRacesLifecycle races the three flush paths against each
// other and against the pBox lifecycle with the race detector watching:
// worker-goroutine fills and slow-path hand-offs (flush(true)), reader
// sweeps from Status/Trace/Attribution (flush(false)), and the
// Activate/Freeze/Release flushSpoolsFor — including Release landing while
// the worker is still issuing updates, which the replay's state check must
// turn into dropped batches, never into dangling shard state.
func TestSpoolFlushRacesLifecycle(t *testing.T) {
	m := NewManager(Options{
		MinPenalty:  20 * time.Microsecond,
		MaxPenalty:  100 * time.Microsecond,
		Attribution: true,
		TraceSize:   256,
	})
	const (
		workers = 4
		rounds  = 3
	)
	hot := ResourceKey(0x999)

	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopReaders:
				return
			default:
			}
			_ = m.Status()
			_ = preciseTrace(m)
			_ = m.Status().Attribution
			_ = contention(m, hot).Holders
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := smallWorker(m, 8) // small: fill-flushes constantly
			for r := 0; r < rounds; r++ {
				p, err := m.Create(DefaultRule())
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.BindDirect(p); err != nil {
					t.Error(err)
					return
				}
				m.Activate(p)

				// The lifecycle racer flips Freeze/Activate under the
				// worker's feet, then releases the pBox while updates may
				// still be in flight.
				var lc sync.WaitGroup
				lc.Add(1)
				go func() {
					defer lc.Done()
					for j := 0; j < 15; j++ {
						m.Freeze(p)
						time.Sleep(5 * time.Microsecond)
						m.Activate(p)
					}
					m.Freeze(p)
					if err := m.Release(p); err != nil {
						t.Error(err)
					}
				}()

				// Fresh cold keys per round keep the fast path claimable.
				base := ResourceKey(0x10000 + g*0x1000 + r*0x100)
				for i := 0; i < 400; i++ {
					cold := base + ResourceKey(i%8)
					w.Update(cold, Hold)
					w.Update(cold, Unhold)
					if i%7 == 0 {
						m.Update(p, hot, Hold)
						m.Update(p, hot, Unhold)
					}
				}
				w.Flush()
				lc.Wait()
			}
		}(g)
	}
	wg.Wait()
	close(stopReaders)
	readers.Wait()

	if live := len(m.Status().Snapshots); live != 0 {
		t.Fatalf("live pboxes after race = %d", live)
	}
	// Release tears down every shard-side record regardless of which events
	// the races dropped, so nothing may dangle.
	if c := contention(m, hot); c.Waiters != 0 || c.Holders != 0 {
		t.Fatalf("dangling bookkeeping on hot key: waiters=%d holders=%d", c.Waiters, c.Holders)
	}
	for g := 0; g < workers; g++ {
		for r := 0; r < rounds; r++ {
			for i := 0; i < 8; i++ {
				key := ResourceKey(0x10000 + g*0x1000 + r*0x100 + i)
				if c := contention(m, key); c.Waiters != 0 || c.Holders != 0 {
					t.Fatalf("dangling bookkeeping on cold key %#x: waiters=%d holders=%d",
						uintptr(key), c.Waiters, c.Holders)
				}
			}
		}
	}
}
