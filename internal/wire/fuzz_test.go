package wire

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"pbox/internal/core"
)

// clientFrame returns the payload a Client encodes for ops, unshipped.
func clientFrame(ops func(c *Client)) []byte {
	c := &Client{BatchLimit: 1 << 30}
	ops(c)
	return bytes.Clone(c.payload)
}

// FuzzApplyFrame feeds the server's frame decoder arbitrary payloads — the
// bytes a hostile or desynchronized peer controls. It must never panic,
// reject only with errProto, and allocate in proportion to the frame (no
// length field may drive an allocation).
//
//	go test -run NONE -fuzz FuzzApplyFrame -fuzztime 15s ./internal/wire
func FuzzApplyFrame(f *testing.F) {
	whole := clientFrame(func(c *Client) {
		c.Register(1, core.DefaultRule(), "noisy")
		c.Register(2, core.DefaultRule(), "")
		c.Activate(1)
		c.Activate(2)
		c.Select(1)
		c.Event(0x500, core.Hold)
		c.Select(2)
		c.Event(0x500, core.Prepare)
		c.Select(1)
		c.Event(0x500, core.Unhold)
		c.SetShared(2, true)
		c.op(opPing)
		c.u(7)
		c.Freeze(1)
		c.Release(2)
	})
	f.Add(whole)
	for cut := 1; cut < len(whole); cut += 3 {
		f.Add(whole[:cut]) // torn mid-op
	}
	f.Add(clientFrame(func(c *Client) { c.Activate(42) }))                             // unknown tenant
	f.Add(clientFrame(func(c *Client) { c.Select(1); c.Event(9, core.Hold) }))         // select before register
	f.Add(clientFrame(func(c *Client) { c.Register(1, core.IsolationRule{}, "bad") })) // invalid rule
	f.Add(clientFrame(func(c *Client) { c.Register(1, core.DefaultRule(), ""); c.Register(1, core.DefaultRule(), "") }))
	f.Add([]byte{opRegister, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})                    // label length far past the frame
	f.Add([]byte{0x7f})                                                                    // unknown op
	f.Add([]byte{opEventBase, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // varint overflow

	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > MaxFrame {
			return // serveConn refuses the length prefix before applyFrame runs
		}
		var now int64
		mgr := core.NewManager(core.Options{
			Now:   func() int64 { now += 1000; return now },
			Sleep: func(time.Duration) {},
		})
		r := newFrameRig(mgr, Config{})
		w, tenants := r.w, r.tenants

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := r.apply(frame)
		runtime.ReadMemStats(&after)

		if err != nil && !errors.Is(err, errProto) {
			t.Fatalf("applyFrame rejected with %v, want errProto", err)
		}
		// A register op is at least six bytes and creates one pBox (under
		// 1 KiB); an event op is at least two and may grow a shard map by
		// one key. 4 KiB per frame byte over a fixed slack for the runtime's
		// own background allocation is an order of magnitude above both.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+4096*len(frame)); got > limit {
			t.Fatalf("applyFrame allocated %d bytes for a %d-byte frame (limit %d)", got, len(frame), limit)
		}
		if len(tenants) > len(frame)/6 {
			t.Fatalf("%d tenants from a %d-byte frame", len(tenants), len(frame))
		}
		// The teardown serveConn runs must survive whatever state the frame
		// left behind.
		w.Flush()
		for _, p := range tenants {
			mgr.Release(p)
		}
	})
}
