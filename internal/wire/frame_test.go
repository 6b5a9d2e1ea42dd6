package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pbox/internal/core"
)

// frameRig is what serveConn builds around applyFrame, without the socket.
type frameRig struct {
	s       *Server
	w       *core.Worker
	tenants map[uint64]*core.PBox
	c       connState
	reply   bytes.Buffer
	bw      *bufio.Writer
}

func newFrameRig(mgr *core.Manager, cfg Config) *frameRig {
	r := &frameRig{s: NewServer(mgr, cfg), w: mgr.NewWorker(), tenants: make(map[uint64]*core.PBox)}
	r.c.bkt = newBucket(cfg.PerConnRate, cfg.PerConnBurst, mgr.Now())
	r.bw = bufio.NewWriter(&r.reply)
	return r
}

func (r *frameRig) apply(frame []byte) error {
	return r.s.applyFrame(frame, r.w, r.tenants, &r.c, r.bw)
}

// activities encodes n activities of tenant, each the four events on four keys
// of the tenant's own: the benchmark's wire_ingest shape.
const eventsPerActivity = 16

func activities(c *Client, tenant uint64, n int) {
	base := core.ResourceKey(0x100 * tenant)
	for ; n > 0; n-- {
		c.Activate(tenant)
		for k := base; k < base+4; k++ {
			for ev := core.Prepare; ev <= core.Unhold; ev++ {
				c.Event(k, ev)
			}
		}
		c.Freeze(tenant)
	}
}

// recSink collects the observer stream as records.
type recSink struct {
	core.RecordObserver
	recs []core.Record
}

func (r *recSink) Record(rec core.Record) { r.recs = append(r.recs, rec) }

// TestFrameSharesOneStamp: the server reads the clock once per frame, and that
// read is the time of every activate, event and freeze in the frame and of
// both admission buckets (DESIGN.md §15). The clock here advances on every
// read, so a read per op would show as a second At inside a frame. Set-up reads
// are not the frame's: NewServer's global bucket, the connection's bucket, and
// a select's penalty gate (Worker.BindDirect), one each.
func TestFrameSharesOneStamp(t *testing.T) {
	var now, reads int64
	sink := &recSink{}
	sink.Sink = sink
	mgr := core.NewManager(core.Options{
		Now:      func() int64 { reads++; now += 1000; return now },
		Sleep:    func(time.Duration) {},
		Observer: sink,
	})
	r := newFrameRig(mgr, Config{PerConnRate: 1e9, GlobalRate: 1e9})
	if reads != 2 {
		t.Fatalf("%d clock reads to set up the two buckets, want 2", reads)
	}
	if err := r.apply(clientFrame(func(c *Client) {
		c.Register(1, core.DefaultRule(), "")
		c.Select(1)
	})); err != nil {
		t.Fatal(err)
	}
	if reads != 4 {
		t.Fatalf("%d clock reads after the set-up frame, want 4 (its own and the select's)", reads)
	}

	frame := clientFrame(func(c *Client) { activities(c, 1, 3) })
	var first int64
	for range 2 {
		before, rows := reads, len(sink.recs)
		if err := r.apply(frame); err != nil {
			t.Fatal(err)
		}
		if got := reads - before; got != 1 {
			t.Fatalf("a frame of three activities read the clock %d times, want 1", got)
		}
		timed := 0
		for _, rec := range sink.recs[rows:] {
			switch rec.Kind {
			case core.KindActivate, core.KindState, core.KindFreeze:
				if timed++; rec.At != now {
					t.Fatalf("row %v is not at its frame's stamp %d", rec, now)
				}
			case core.KindActivityEnd:
				if rec.Dur != 0 || rec.Exec != 0 {
					t.Fatalf("an activity inside one frame has te = td = 0, got %v", rec)
				}
			}
		}
		if want := 3 * (2 + eventsPerActivity); timed != want {
			t.Fatalf("%d timed rows from the frame, want %d", timed, want)
		}
		if now == first {
			t.Fatalf("two frames share the stamp %d", now)
		}
		first = now
	}
	if st := r.s.Stats(); st.Events != 2*3*eventsPerActivity || st.ShedConn+st.ShedGlobal != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// runRig is a frame rig on an observed manager with tenants 1 and 2 registered
// and activated and tenant 1 selected.
func runRig(t *testing.T) (*frameRig, *recSink) {
	t.Helper()
	sink := &recSink{}
	sink.Sink = sink
	r := newFrameRig(core.NewManager(core.Options{Observer: sink, Sleep: func(time.Duration) {}}), Config{})
	if err := r.apply(clientFrame(func(c *Client) {
		c.Register(1, core.DefaultRule(), "")
		c.Register(2, core.DefaultRule(), "")
		c.Activate(1)
		c.Activate(2)
		c.Select(1)
	})); err != nil {
		t.Fatal(err)
	}
	return r, sink
}

// stateRows returns the keys of the state rows delivered for pBox id.
func stateRows(sink *recSink, id int) []core.ResourceKey {
	var keys []core.ResourceKey
	for _, rec := range sink.recs {
		if rec.Kind == core.KindState && rec.PBox == id {
			keys = append(keys, rec.Key)
		}
	}
	return keys
}

// TestFrameAppliesEventsBeforeBadOp: a frame's events travel as a run that is
// delivered at the next control op — and on a protocol error too, so the
// events before a bad op are applied, as they were when each went alone.
func TestFrameAppliesEventsBeforeBadOp(t *testing.T) {
	for _, bad := range []struct {
		name string
		op   func(c *Client)
	}{
		{"unknown op", func(c *Client) { c.op(0xff) }},
		{"retired op 0x08", func(c *Client) { c.op(0x08); c.u(1) }},
		{"unknown tenant", func(c *Client) { c.Freeze(9) }},
		{"overlong event key", func(c *Client) {
			c.op(opEventBase)
			c.payload = append(c.payload, bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64+1)...)
		}},
	} {
		t.Run(bad.name, func(t *testing.T) {
			r, sink := runRig(t)
			frame := clientFrame(func(c *Client) {
				for k := core.ResourceKey(1); k <= 10; k++ {
					c.Event(0x100+k, core.Hold)
				}
				bad.op(c)
				c.Event(0x200, core.Hold)
			})
			if err := r.apply(frame); !errors.Is(err, errProto) {
				t.Fatalf("apply = %v, want a protocol error", err)
			}
			r.w.Flush() // as the connection's teardown does
			if got := stateRows(sink, r.tenants[1].ID()); len(got) != 10 || got[9] != 0x10a {
				t.Fatalf("state rows %x, want the ten events before the bad op", got)
			}
			if st := r.s.Stats(); st.Events != 10 {
				t.Fatalf("%d events admitted, want 10", st.Events)
			}
		})
	}
}

// TestFrameRunsFollowSelect: select A, events, select B, events in one frame —
// each run is delivered before the select that ends it, so each tenant gets
// exactly its own events, in order.
func TestFrameRunsFollowSelect(t *testing.T) {
	r, sink := runRig(t)
	keys := func(base core.ResourceKey) []core.ResourceKey {
		return []core.ResourceKey{base, base + 1, base + 2, base + 1, base}
	}
	if err := r.apply(clientFrame(func(c *Client) {
		for _, k := range keys(0x100) {
			c.Event(k, core.Hold)
		}
		c.Select(2)
		for _, k := range keys(0x200) {
			c.Event(k, core.Hold)
		}
		c.Select(1)
		c.Event(0x100, core.Unhold)
		c.Freeze(1)
		c.Freeze(2)
	})); err != nil {
		t.Fatal(err)
	}
	want1 := append(keys(0x100), 0x100)
	if got := stateRows(sink, r.tenants[1].ID()); fmt.Sprint(got) != fmt.Sprint(want1) {
		t.Fatalf("tenant 1 got %x, want %x", got, want1)
	}
	if got := stateRows(sink, r.tenants[2].ID()); fmt.Sprint(got) != fmt.Sprint(keys(0x200)) {
		t.Fatalf("tenant 2 got %x, want %x", got, keys(0x200))
	}
}

// TestFrameLongRun: 600 events between two control ops — more than a run
// buffer and than a spool — are all applied, in order, and applyFrame still
// allocates nothing.
func TestFrameLongRun(t *testing.T) {
	r, sink := runRig(t)
	const n = 600
	frame := clientFrame(func(c *Client) {
		c.Activate(1)
		for i := range n {
			c.Event(core.ResourceKey(0x1000+i/2), core.Hold+core.EventType(i%2))
		}
		c.Freeze(1)
	})
	if err := r.apply(frame); err != nil {
		t.Fatal(err)
	}
	got := stateRows(sink, r.tenants[1].ID())
	if len(got) != n {
		t.Fatalf("%d of %d events applied", len(got), n)
	}
	for i, k := range got {
		if k != core.ResourceKey(0x1000+i/2) {
			t.Fatalf("state row %d is key %x, want %x", i, k, 0x1000+i/2)
		}
	}
	sink.Sink = nopSink{}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := r.apply(frame); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("applyFrame allocates %.1f times per %d-event frame; want 0", allocs, n)
	}
}

// nopSink drops every record.
type nopSink struct{}

func (nopSink) Record(core.Record) {}

// BenchmarkApplyFrame is the server's per-frame path without the socket: a
// pre-encoded frame of 16 activities (256 events) applied to a traced manager,
// by one connection, and by two at once on goroutines of their own — tenants
// on private keys, who meet only on what the manager shares (the trace ring
// first). It reports ns/event over every connection's events and fails on any
// allocation.
func BenchmarkApplyFrame(b *testing.B) {
	for _, conns := range []int{1, 2} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) { benchApplyFrame(b, conns) })
	}
}

func benchApplyFrame(b *testing.B, conns int) {
	mgr := core.NewManager(core.Options{TraceSize: 4096, Sleep: func(time.Duration) {}})
	const perFrame = 16
	runs := make([]func(), conns)
	for i := range runs {
		r, tenant := newFrameRig(mgr, Config{}), uint64(i+1)
		if err := r.apply(clientFrame(func(c *Client) {
			c.Register(tenant, core.DefaultRule(), "bench")
			c.Select(tenant)
		})); err != nil {
			b.Fatal(err)
		}
		frame := clientFrame(func(c *Client) { activities(c, tenant, perFrame) })
		runs[i] = func() {
			if err := r.apply(frame); err != nil {
				b.Error(err)
			}
		}
		runs[i]() // first touch: the pBox's maps, the shard entries
		if allocs := testing.AllocsPerRun(100, runs[i]); allocs != 0 {
			b.Fatalf("applyFrame allocates %.1f times per 256-event frame; want 0", allocs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range b.N {
				run()
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perFrame*eventsPerActivity*conns), "ns/event")
	if st := mgr.SelfStats(); st.ContentionStickySlots != 0 {
		b.Fatalf("%d sticky contention slots: the tenants' keys alias, and the slow path was measured", st.ContentionStickySlots)
	}
}
