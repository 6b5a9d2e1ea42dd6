package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"pbox/internal/core"
)

// Config tunes a wire Server. The zero value admits everything.
type Config struct {
	// PerConnRate is the event-admission rate (events/sec) of each
	// connection's token bucket; <= 0 disables per-connection shedding.
	PerConnRate float64
	// PerConnBurst is the per-connection bucket depth; <= 0 selects a
	// default of 100ms of PerConnRate (floored at 1024).
	PerConnBurst int
	// GlobalRate is the event-admission ceiling (events/sec) across all
	// connections; <= 0 disables global shedding.
	GlobalRate float64
	// GlobalBurst is the global bucket depth; <= 0 selects the default.
	GlobalBurst int
}

// Stats is a point-in-time snapshot of the server's counters, exported on
// /metrics as the pbox_self_wire_* series and, in this JSON form, as the
// "wire" section of /self that `pboxctl self` prints.
type Stats struct {
	ConnsTotal  int64 `json:"conns_total"`  // connections accepted over the server's life
	ConnsActive int64 `json:"conns_active"` // connections currently open (gauge)
	Frames      int64 `json:"frames"`       // frames decoded
	Events      int64 `json:"events"`       // event ops admitted and applied
	ShedConn    int64 `json:"shed_conn"`    // event ops shed by a per-connection bucket
	ShedGlobal  int64 `json:"shed_global"`  // event ops shed by the global ceiling
	Registers   int64 `json:"registers"`    // tenants registered
	Pings       int64 `json:"pings"`        // ping ops answered
	BindRefused int64 `json:"bind_refused"` // tenant selects refused by a shared-thread penalty
	Errors      int64 `json:"errors"`       // protocol errors (connection torn down)
}

// Server accepts wire-protocol connections and fans their batched events
// into the manager's Tier-A spool fast path: each connection owns one
// core.Worker (the protocol is sequential per connection, matching Worker's
// thread-local contract). A frame's events between two control ops decode into
// the connection's run buffer (connState.run), which Worker.UpdateRunAt copies
// into the worker spool under one spool-lock hold (appendRun), with zero
// allocations per batch. It has one clock, the manager's, read once per frame
// (applyFrame).
type Server struct {
	mgr    *core.Manager
	cfg    Config
	global globalBucket

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	connsTotal  atomic.Int64
	connsActive atomic.Int64
	frames      atomic.Int64
	events      atomic.Int64
	shedConn    atomic.Int64
	shedGlobal  atomic.Int64
	registers   atomic.Int64
	pings       atomic.Int64
	bindRefused atomic.Int64
	errors      atomic.Int64
}

// NewServer creates a wire server feeding mgr.
func NewServer(mgr *core.Manager, cfg Config) *Server {
	s := &Server{mgr: mgr, cfg: cfg, conns: make(map[net.Conn]struct{})}
	if cfg.GlobalRate > 0 {
		s.global.b = newBucket(cfg.GlobalRate, cfg.GlobalBurst, mgr.Now())
	}
	return s
}

// Stats returns the current counter snapshot (atomics only, safe to poll).
func (s *Server) Stats() Stats {
	return Stats{
		ConnsTotal:  s.connsTotal.Load(),
		ConnsActive: s.connsActive.Load(),
		Frames:      s.frames.Load(),
		Events:      s.events.Load(),
		ShedConn:    s.shedConn.Load(),
		ShedGlobal:  s.shedGlobal.Load(),
		Registers:   s.registers.Load(),
		Pings:       s.pings.Load(),
		BindRefused: s.bindRefused.Load(),
		Errors:      s.errors.Load(),
	}
}

// Serve accepts connections on l until Close. It returns nil after Close,
// or the first accept error otherwise.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("wire: server closed")
	}
	s.ln = l
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.connsActive.Add(1)
		go s.serveConn(nc)
	}
}

// Close stops accepting, closes every live connection, and waits for their
// handlers to finish draining (each handler flushes its worker spool on the
// way out, so no spooled tail event is lost — DESIGN.md §15).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) dropConn(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	nc.Close()
	s.connsActive.Add(-1)
}

// serveConn runs one connection's decode loop. The frame buffer is reused
// across frames and ops decode in place, so a steady-state event batch costs
// zero allocations in the server.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(nc)
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 4<<10)

	pre := make([]byte, len(Magic)+1)
	if _, err := io.ReadFull(br, pre); err != nil ||
		string(pre[:len(Magic)]) != Magic || pre[len(Magic)] != Version {
		s.errors.Add(1)
		return
	}

	w := s.mgr.NewWorker()
	tenants := make(map[uint64]*core.PBox)
	defer func() {
		// Teardown drains before it tears down: spooled tail events reach
		// the books, then every tenant this connection registered goes away.
		// Nothing in the manager refers to the worker, so that is all.
		w.Flush()
		for _, p := range tenants {
			s.mgr.Release(p)
		}
	}()

	c := connState{
		bkt: newBucket(s.cfg.PerConnRate, s.cfg.PerConnBurst, s.mgr.Now()),
	}
	var frame []byte
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			if err != io.EOF {
				s.errors.Add(1)
			}
			return
		}
		if n > MaxFrame {
			s.errors.Add(1)
			return
		}
		if uint64(cap(frame)) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			s.errors.Add(1)
			return
		}
		s.frames.Add(1)
		if err := s.applyFrame(frame, w, tenants, &c, bw); err != nil {
			s.errors.Add(1)
			return
		}
		if c.wrotePong {
			c.wrotePong = false
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// connState is the per-connection decode state owned by the connection
// goroutine (no locks).
type connState struct {
	bkt       bucket
	reserve   int  // chunked tokens taken from the global bucket
	skip      bool // selected tenant refused (shared-thread penalty): drop events
	wrotePong bool

	// run holds the admitted events of the frame since its last control op,
	// handed to the worker as one Worker.UpdateRunAt (deliver).
	run  [runCap]core.KeyEvent
	nrun int
}

// runCap bounds an event run: one spool's capacity (Manager.SpoolCapacity),
// so a run fills a spool at most once.
const runCap = 256

// deliver hands the buffered run to w, stamped at.
func (c *connState) deliver(w *core.Worker, at int64) {
	if c.nrun > 0 {
		w.UpdateRunAt(c.run[:c.nrun], at)
		c.nrun = 0
	}
}

// errProto is the one reason applyFrame rejects a frame: every decode or
// semantic failure wraps it, and the connection is torn down.
var errProto = errors.New("wire: protocol error")

// applyFrame decodes and applies one frame payload, read in full by the caller.
// The event-key delta chain resets here, at the frame boundary, and the clock
// is read here, once: the frame's arrival is the last instant the server knows
// the client had issued all of its ops, so it is the time of every event,
// activate and freeze in the frame and of both admission buckets (DESIGN.md
// §15, "Time on the wire"). Admitted events travel as runs: each is buffered
// and the run delivered in one call before the next control op, when the
// buffer fills, and on every return path — a protocol error included, so the
// events before a bad op are applied.
func (s *Server) applyFrame(frame []byte, w *core.Worker, tenants map[uint64]*core.PBox, c *connState, bw *bufio.Writer) error {
	nowNs := s.mgr.Now()
	var lastKey int64
	off := 0
	// Admitted events are counted here and folded into s.events — a line
	// every connection writes — once per frame: on every return path, and
	// before a ping in the frame builds its pong, which reports the total.
	var admitted int64
	defer func() {
		c.deliver(w, nowNs)
		s.events.Add(admitted)
	}()
	// Local uvarint reader against the frame buffer (no allocation).
	u := func() (uint64, bool) {
		v, n := binary.Uvarint(frame[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	for off < len(frame) {
		op := frame[off]
		off++
		if op >= opEventBase && op <= opEventMax {
			d, n := binary.Varint(frame[off:])
			if n <= 0 {
				return errProto
			}
			off += n
			lastKey += d
			if c.skip {
				continue
			}
			// Admission: per-connection bucket first, then a chunk of the
			// global ceiling into the connection-local reserve.
			if s.cfg.PerConnRate > 0 && c.bkt.take(nowNs, 1) == 0 {
				s.shedConn.Add(1)
				continue
			}
			if s.global.enabled() {
				if c.reserve == 0 {
					c.reserve = s.global.take(nowNs, globalChunk)
				}
				if c.reserve == 0 {
					s.shedGlobal.Add(1)
					continue
				}
				c.reserve--
			}
			admitted++
			c.run[c.nrun] = core.KeyEvent{Key: core.ResourceKey(lastKey), Ev: core.EventType(op - opEventBase)}
			if c.nrun++; c.nrun == runCap {
				c.deliver(w, nowNs)
			}
			continue
		}
		c.deliver(w, nowNs)
		switch op {
		case opRegister:
			tenant, ok1 := u()
			rt, ok2 := u()
			metric, ok3 := u()
			levelBits, ok4 := u()
			labelLen, ok5 := u()
			if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || uint64(len(frame)-off) < labelLen {
				return errProto
			}
			label := string(frame[off : off+int(labelLen)])
			off += int(labelLen)
			if _, dup := tenants[tenant]; dup {
				return fmt.Errorf("%w: tenant %d already registered", errProto, tenant)
			}
			rule := core.IsolationRule{
				Type:   core.RuleType(rt),
				Level:  math.Float64frombits(levelBits),
				Metric: core.Metric(metric),
			}
			p, err := s.mgr.Create(rule)
			if err != nil {
				return fmt.Errorf("%w: %v", errProto, err)
			}
			if label != "" {
				s.mgr.SetLabel(p, label)
			}
			tenants[tenant] = p
			s.registers.Add(1)
		case opRelease:
			p, err := tenantArg(u, tenants)
			if err != nil {
				return err
			}
			if w.Current() == p {
				c.skip = true // selection is gone with the tenant
			}
			for t, q := range tenants {
				if q == p {
					delete(tenants, t)
				}
			}
			s.mgr.Release(p)
		case opActivate:
			p, err := tenantArg(u, tenants)
			if err != nil {
				return err
			}
			s.mgr.ActivateAt(p, nowNs)
		case opFreeze:
			p, err := tenantArg(u, tenants)
			if err != nil {
				return err
			}
			s.mgr.FreezeAt(p, nowNs)
		case opShared:
			p, err := tenantArg(u, tenants)
			if err != nil {
				return err
			}
			flag, ok := u()
			if !ok {
				return errProto
			}
			s.mgr.SetShared(p, flag != 0)
		case opSelect:
			p, err := tenantArg(u, tenants)
			if err != nil {
				return err
			}
			if err := w.BindDirect(p); err != nil {
				// Shared-thread penalty: the tenant must stay queued, so
				// its events are dropped until a later select succeeds.
				s.bindRefused.Add(1)
				c.skip = true
				continue
			}
			c.skip = false
		case opPing:
			seq, ok := u()
			if !ok {
				return errProto
			}
			// The reply is written only after every earlier op in the frame
			// has been applied — and the worker spool is drained so the
			// events are in the books, making a ping round-trip a full
			// ingestion barrier.
			w.Flush()
			s.pings.Add(1)
			s.events.Add(admitted)
			admitted = 0
			var pong [6 * binary.MaxVarintLen64]byte
			body := pong[binary.MaxVarintLen64:binary.MaxVarintLen64]
			body = append(body, opPong)
			body = binary.AppendUvarint(body, seq)
			body = binary.AppendUvarint(body, uint64(s.events.Load()))
			body = binary.AppendUvarint(body, uint64(s.shedConn.Load()))
			body = binary.AppendUvarint(body, uint64(s.shedGlobal.Load()))
			hdr := binary.AppendUvarint(pong[:0], uint64(len(body)))
			if _, err := bw.Write(hdr); err != nil {
				return err
			}
			if _, err := bw.Write(body); err != nil {
				return err
			}
			c.wrotePong = true
		default:
			return errProto
		}
	}
	return nil
}

// opPong is the server→client reply kind (same value space as the ops).
const opPong = opPing

// tenantArg decodes a tenant id and resolves it, failing the connection on
// an unknown id (a desynchronized feeder must not be misattributed).
func tenantArg(u func() (uint64, bool), tenants map[uint64]*core.PBox) (*core.PBox, error) {
	t, ok := u()
	if !ok {
		return nil, errProto
	}
	p := tenants[t]
	if p == nil {
		return nil, fmt.Errorf("%w: unknown tenant %d", errProto, t)
	}
	return p, nil
}
