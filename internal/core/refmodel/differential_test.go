package refmodel_test

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbox/internal/core"
	"pbox/internal/core/refmodel"
	"pbox/internal/wire"
)

// The one differential (DESIGN.md §16): a byte string decodes into a script,
// the script runs through the model and through the real manager by every
// ingestion path, and the record streams are compared. A failure is its input:
// `go test -fuzz FuzzDifferential` minimises it into
// testdata/fuzz/FuzzDifferential/, where it replays forever.
//
// Encoding: a header byte — bits 0–1 the share of events the EventFilter drops
// (in eighths), bit 2 FixedPenalty, bits 3–4 both set DisablePBoxLevel, bits
// 5–7 all set DisableDetection — then two bytes per op: a&15 selects the op,
// a>>4&3 the script worker (and pBox slot) it addresses, a>>6 and b its
// argument. A decoded op's kind is a letter: (c)reate (r)elease (a)ctivate
// (f)reeze (s)hared (e)vent, (+) advance the clock,
// Worker.(B)indDirect, (U)nbind and b(I)nd by key, (F)lush and (C), a second
// Flush where the worker once closed (seed bytes keep their meaning), and
// (S)weep: RefreshStatusView, a flush of every hinted spool between two appends.

// op is one resolved step: the decoder has run it on the model already, so it
// carries the outcome the real manager must reproduce.
type op struct {
	kind rune
	w    int // script worker
	id   int // pBox
	key  core.ResourceKey
	ev   core.EventType
	rule core.IsolationRule
	d    time.Duration
	flag bool // the shared marking ('s', 'U', 'I')
	set  bool // a bind op that sets the marking: all it is where there is no Worker
	alt  int  // with two Workers per script worker: 1 if the second issues the event
	ok   bool // the manager accepts the call ('B', 'I')
}

func (o op) String() string {
	return fmt.Sprintf("\n%c w%d p%d %v %#x +%v shared=%v alt=%d ok=%v", o.kind, o.w, o.id, o.ev, uintptr(o.key), o.d, o.flag, o.alt, o.ok)
}

type script struct {
	header byte
	ops    []op
	drops  []bool        // per issued event, in order: the EventFilter drops it
	want   []core.Record // the model's stream
}

const slots, maxOps = 4, 2048

// Keys. sharedKey is everyone's; aliasShared and the four aliasPrivate keys are
// drawn to collide in core's 1 024-slot contention table — with sharedKey, and
// with each other (core's TestContentionSlotLayout holds the table to it).
const sharedKey, aliasShared = core.ResourceKey(42), core.ResourceKey(0x51d3)

var aliasPrivate = [slots]core.ResourceKey{0x6000, 0x63db, 0x663d, 0x6a18}

func keyOf(w int, b byte) core.ResourceKey {
	if i := int(b % 8); i > 3 {
		return core.ResourceKey(0x1000*(w+1) + i)
	}
	return [4]core.ResourceKey{sharedKey, sharedKey, aliasShared, aliasPrivate[w]}[b%8]
}

// bursts are runs on one private key, as core.EventType values: an uninterfered
// activity's shape; nested holds; a doubled PREPARE (§6.8: an ENTER went missing
// before); a wait on the pBox's own hold.
var bursts = [4][4]core.EventType{{0, 1, 2, 3}, {2, 3, 2, 3}, {0, 0, 1, 1}, {2, 0, 3, 1}}

func bindKey(id int) uintptr { return uintptr(0xb000 + id) }

func options(header byte, now func() int64) core.Options {
	return core.Options{Now: now, Sleep: func(time.Duration) {}, MinPenalty: 10 * time.Microsecond, MaxPenalty: 100 * time.Millisecond,
		FixedPenalty:     time.Duration(header>>2&1) * 300 * time.Microsecond,
		DisablePBoxLevel: header>>3&3 == 3, DisableDetection: header>>5 == 7}
}

// decode interprets data against the model. It is also the event loop the
// script's workers live in: it tracks which pBox each worker is bound to (as
// core.Worker does) and issues no event for a worker that is unbound, detached, or
// bound to a pBox that is released or still queued behind a shared-thread penalty.
// Three pBoxes are active when the script starts; all are released when it ends.
func decode(data []byte) script {
	var clock int64
	var s script
	if len(data) > 0 {
		s.header, data = data[0], data[1:]
	}
	m := refmodel.New(options(s.header, func() int64 { return clock }))
	var slot, cur [slots]int // the pBox in each slot; the pBox each worker is bound to
	var det [slots]bool      // the worker is lazily unbound from cur
	dirty := map[int]bool{}  // pBoxes with an ENTER that no flush (below: of every worker bound to it) is known to have replayed
	emit := func(o op) { s.ops = append(s.ops, o) }
	alive := func(id int) bool { return id != 0 && slices.Contains(slot[:], id) }
	flush := func(id int) {
		for w := range cur {
			if cur[w] == id && !det[w] {
				emit(op{kind: 'F', w: w})
			}
		}
		delete(dirty, id)
	}
	create := func(w int, b byte) {
		rule := core.IsolationRule{Level: []float64{0.5, 0.1, 1, 0.5}[b&3], Metric: core.Metric(b >> 2 % 3)}
		id, _ := m.Create(rule)
		m.Activate(id)
		slot[w], cur[w], det[w] = id, id, false
		s.ops = append(s.ops, op{kind: 'c', w: w, id: id, rule: rule, ok: true}, op{kind: 'a', w: w, id: id})
	}
	// judged flushes around DESIGN.md §5 deviation 11 — a verdict reads another
	// pBox's books as of that pBox's last flush — once the model has run actor's
	// op and before the op is emitted. (a) A victim's deferring time lacks its
	// still-spooled PREPARE+ENTER pairs: flush it before the UNHOLD that judges
	// it. (b) A penalty another pBox's Freeze schedules is taken at the culprit's
	// next flush, were that a safe point, not after its next event: flush the
	// culprit first, so that flush has nothing to replay. (c) A penalty actor's
	// own event makes servable is taken at the flush: reported, to flush at once.
	judged := func(before, actor int) (served bool) {
		for _, r := range m.Records()[before:] {
			if r.Kind == core.KindBlocked && r.PBox != r.Victim && dirty[r.Victim] {
				flush(r.Victim)
			} else if r.Kind == core.KindAction && r.PBox != actor {
				flush(r.PBox)
			}
			served = served || r.Kind == core.KindServed
		}
		return served
	}
	// event issues one event from worker w; top's high bits say if the filter drops it.
	event := func(w int, key core.ResourceKey, ev core.EventType, alt int, top byte) {
		o := op{kind: 'e', w: w, id: cur[w], key: key, ev: ev, alt: alt}
		if !alive(o.id) || det[w] || m.PenaltyWait(o.id) > 0 {
			return
		}
		drop := top>>5 > 7-s.header&3
		if s.drops = append(s.drops, drop); drop {
			emit(o)
			return
		}
		before, wait := len(m.Records()), m.PenaltyWait(o.id)
		m.Update(o.id, key, ev)
		dirty[o.id] = dirty[o.id] || ev == core.Enter
		served := judged(before, o.id)
		if emit(o); served || m.PenaltyWait(o.id) != wait {
			flush(o.id) // (c)
		}
	}
	for w := 0; w < 3; w++ {
		create(w, 0)
	}
	for ; len(data) >= 2 && len(s.ops) < maxOps; data = data[2:] {
		a, b := data[0], data[1]
		w := int(a >> 4 & 3)
		o := op{w: w, id: slot[w], flag: a>>6&1 == 1 && b&16 != 0, alt: int(a >> 7)}
		sel, life := a&15, b%8
		lifecycle := func(k rune, f func(int)) {
			before := len(m.Records())
			f(o.id)
			judged(before, o.id)
			delete(dirty, o.id)
			emit(op{kind: k, w: w, id: o.id, flag: o.flag})
		}
		switch {
		case sel < 9:
			event(w, keyOf(w, b), core.EventType(sel&3), o.alt, b)
			continue
		case sel == 9:
			for i, ev := range bursts[b>>1&3] {
				if event(w, core.ResourceKey(0x1000*(w+1)+5+int(b&1)), ev, o.alt, b+byte(i)<<5); i == 0 && b >= 128 {
					clock += 7000
					emit(op{kind: '+', d: 7 * time.Microsecond})
				}
			}
			continue
		case sel < 12:
			o.kind, o.d = '+', time.Duration([]int{1, 3, 10, 50, 100, 500, 1000, 5000}[b&7]*(1+int(b>>3&3)))*time.Microsecond
			clock += int64(o.d)
		case sel == 12 && o.id == 0:
			create(w, b>>3)
			continue
		case sel == 15 && o.id == 0:
			continue
		case sel == 15 || sel == 12 && life < 5: // the next activity; or only this one's end, or only a start
			if sel == 15 || life != 4 {
				lifecycle('f', m.Freeze)
			}
			if sel == 15 || life != 3 {
				lifecycle('a', m.Activate)
			}
			continue
		case sel == 12 && life == 5: // release, then mark the released id (by Unbind if bound): nothing follows its release row
			m.Release(o.id)
			slot[w] = 0
			emit(op{kind: 'r', w: w, id: o.id, ok: true})
			m.SetShared(o.id, o.flag)
			if o.kind = 's'; cur[w] == o.id && !det[w] {
				o.kind, o.set, o.ok, det[w] = 'U', true, true, true
			}
		case sel == 12 && life == 6 && b >= 128:
			o.kind, o.ok, slot[w] = 'r', true, 0
			m.Release(o.id)
		case sel == 12:
			lifecycle('s', func(id int) { m.SetShared(id, o.flag) })
			continue
		case sel == 13 && b%3 == 0: // BindDirect: refused while the pBox is queued, and then changes nothing
			if o.kind, o.id = 'B', slot[b>>2&3]; o.id == 0 {
				continue
			}
			if o.ok = m.PenaltyWait(o.id) == 0; o.ok {
				cur[w], det[w] = o.id, false
			}
		case sel == 13 && b%3 == 1: // Unbind: lazy, but the marking is set at once
			if o.kind, o.id = 'U', cur[w]; !alive(o.id) || det[w] {
				continue
			}
			m.SetShared(o.id, o.flag)
			det[w], o.set, o.ok = true, true, true
		case sel == 13: // Bind: free after a lazy unbind of the same pBox; else the detach is published first
			if o.kind, o.id = 'I', slot[b>>2&3]; o.id == 0 {
				continue
			}
			lazy := det[w] && cur[w] == o.id
			if det[w] && !lazy {
				cur[w], det[w] = 0, false
			}
			if o.ok = m.PenaltyWait(o.id) == 0; o.ok {
				if cur[w], det[w], o.set = o.id, false, !lazy; o.set {
					m.SetShared(o.id, o.flag)
				}
			}
		case b%4 == 2:
			o.kind = 'S'
			clear(dirty)
		case b >= 224:
			o.kind = 'C'
		default:
			o.kind = 'F'
		}
		emit(o)
	}
	for _, id := range slot {
		if id != 0 {
			m.Release(id)
			emit(op{kind: 'r', id: id, ok: true})
		}
	}
	s.want = m.Records()
	return s
}

// harness is a real manager under the fake clock with the script's filter, and
// the sink of its stream (the wire via appends from two goroutines).
type harness struct {
	core.RecordObserver
	t     *testing.T
	mgr   *core.Manager
	clock atomic.Int64
	pb    map[int]*core.PBox
	mu    sync.Mutex
	recs  []core.Record
}

func (h *harness) Record(r core.Record) {
	h.mu.Lock()
	h.recs = append(h.recs, r)
	h.mu.Unlock()
}

func newHarness(t *testing.T, s script) *harness {
	h := &harness{t: t, pb: map[int]*core.PBox{}}
	h.Sink = h
	o, issued := options(s.header, h.clock.Load), 0
	o.Observer, o.EventFilter = h, func(core.ResourceKey, core.EventType) bool { issued++; return !s.drops[issued-1] }
	h.mgr = core.NewManager(o)
	return h
}

func (h *harness) accepted(o op, err error) {
	if (err == nil) != o.ok {
		h.t.Fatalf("%v: the manager answers %v", o, err)
	}
}

// inProcess is via (i) with fan 0 — every event through Manager.Update, no
// Worker at all; via (ii) with fan 1 — a spooling Worker per script worker, and
// every activate, freeze and event through the At forms, stamped with the fake
// clock; via (iii) with fan 2: a pair of Workers bound alike, handing over on
// the alt bit, on the unstamped forms.
func inProcess(t *testing.T, s script, fan int) []core.Record {
	h := newHarness(t, s)
	var ws [slots][]*core.Worker
	for w := range ws {
		for range fan {
			ws[w] = append(ws[w], h.mgr.NewWorker())
		}
	}
	flags := map[bool]core.BindFlags{false: core.BindDedicated, true: core.BindShared}
	for _, o := range s.ops {
		p := h.pb[o.id]
		switch o.kind {
		case 'c':
			p, err := h.mgr.Create(o.rule) // its id is in its create row
			h.accepted(o, err)
			h.pb[o.id] = p
			h.mgr.Associate(p, bindKey(o.id))
		case 'r':
			h.accepted(o, h.mgr.Release(p))
		case 'a', 'f':
			if fan == 1 {
				map[rune]func(*core.PBox, int64){'a': h.mgr.ActivateAt, 'f': h.mgr.FreezeAt}[o.kind](p, h.clock.Load())
			} else {
				map[rune]func(*core.PBox){'a': h.mgr.Activate, 'f': h.mgr.Freeze}[o.kind](p)
			}
		case 's':
			h.mgr.SetShared(p, o.flag)
		case '+':
			h.clock.Add(int64(o.d))
		case 'S':
			h.mgr.RefreshStatusView()
		case 'e':
			switch fan {
			case 0:
				h.mgr.Update(p, o.key, o.ev)
			case 1:
				ws[o.w][0].UpdateAt(o.key, o.ev, h.clock.Load())
			default:
				ws[o.w][o.alt].Update(o.key, o.ev)
			}
		}
		if fan == 0 && o.set {
			h.mgr.SetShared(p, o.flag)
		}
		for _, wk := range ws[o.w] {
			switch o.kind {
			case 'c', 'B':
				h.accepted(o, wk.BindDirect(h.pb[o.id]))
			case 'U':
				_, err := wk.Unbind(bindKey(o.id), flags[o.flag])
				h.accepted(o, err)
			case 'I':
				_, err := wk.Bind(bindKey(o.id), flags[o.flag])
				h.accepted(o, err)
			case 'F', 'C':
				wk.Flush()
			}
		}
	}
	return h.recs
}

// overWire is via (iv): one connection to a wire.Server on loopback, so one
// server-side Worker selecting the pBox of whichever script worker speaks. A ping
// (a full ingestion barrier) precedes every clock advance and stands in for a flush.
func overWire(t *testing.T, s script) []core.Record {
	h := newHarness(t, s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(h.mgr, wire.Config{})
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pings, selected, gone := uint64(0), 0, map[int]bool{}
	barrier := func() {
		pings++
		if _, err := c.Ping(pings); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}
	for _, o := range s.ops {
		id := uint64(o.id)
		switch o.kind {
		case 'c':
			c.Register(id, o.rule, "")
		case 'r':
			if c.Release(id); selected == o.id {
				selected = 0 // the server deselects a released tenant
			}
			gone[o.id] = true
		case 'a', 'f':
			map[rune]func(uint64){'a': c.Activate, 'f': c.Freeze}[o.kind](id)
		case 'e':
			if selected != o.id {
				c.Select(id)
				selected = o.id
			}
			c.Event(o.key, o.ev)
		case '+', 'F': // a flush advances the clock by nothing
			barrier()
			h.clock.Add(int64(o.d))
		case 'S':
			c.Flush() // the sweep races the server for what part of the frame is spooled by now
			h.mgr.RefreshStatusView()
			barrier()
		}
		if (o.set || o.kind == 's') && !gone[o.id] { // the server forgets a released tenant's number
			c.SetShared(id, o.flag)
		}
	}
	barrier()
	c.Close()
	srv.Close()
	<-done
	return h.recs
}

// streams cuts a record stream into the parts Tier A keeps in order (DESIGN.md
// §10): each pBox's lifecycle, state and self-blame rows; the cross-pBox
// verdict rows; each pBox's served rows. Tier B owes the whole stream.
func streams(recs []core.Record, whole bool) map[string][]core.Record {
	out := map[string][]core.Record{}
	for _, r := range recs {
		name := fmt.Sprintf("pBox %d", r.PBox)
		switch {
		case whole:
			name = "whole stream"
		case r.Kind == core.KindServed || r.Kind == core.KindServedFor:
			name += " served"
		case r.PBox != r.Victim && (r.Kind == core.KindDetection || r.Kind == core.KindAction || r.Kind == core.KindBlocked):
			name = "verdicts"
		}
		out[name] = append(out[name], r)
	}
	return out
}

// check runs one script through every via and fails on the first difference.
func check(t *testing.T, data []byte) script {
	s := decode(data)
	for fan, via := range []string{"Manager.Update", "one Worker", "two Workers", "wire"} {
		recs := overWire
		if fan < 3 {
			recs = func(t *testing.T, s script) []core.Record { return inProcess(t, s, fan) }
		}
		want, got := streams(s.want, fan == 0), streams(recs(t, s), fan == 0)
		for _, names := range []map[string][]core.Record{want, got} {
			for name := range names {
				w, g := want[name], got[name]
				if slices.Equal(g, w) {
					continue
				}
				i := 0
				for i < len(w) && i < len(g) && w[i] == g[i] {
					i++
				}
				t.Fatalf("%s, %s: row %d differs (model %d rows, manager %d)\n model:   %v\n manager: %v\nscript %q:%v",
					via, name, i, len(w), len(g), append(w, core.Record{})[i], append(g, core.Record{})[i], data, s.ops)
			}
		}
	}
	return s
}

// FuzzDifferential replays the committed seeds (the scripts of the pairwise
// harnesses it replaced, every input that found a divergence); -fuzz finds more.
func FuzzDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { check(t, data) })
}

// TestGeneratedScripts is the deterministic sweep: 2 000 pseudo-random scripts,
// which must between them reach the verdict and penalty machinery.
func TestGeneratedScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := map[core.Kind]int{}
	for range 2000 {
		data := make([]byte, 1+2*300)
		rng.Read(data)
		for _, r := range check(t, data).want {
			rows[r.Kind]++
		}
	}
	t.Logf("rows by kind: %v", rows)
	if rows[core.KindAction] < 300 || rows[core.KindServed] < 30 || rows[core.KindBlocked] < 1500 {
		t.Fatalf("the generated scripts have gone quiet: %v", rows)
	}
}
