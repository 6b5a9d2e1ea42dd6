package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pbox/internal/core"
	"pbox/internal/exec"
	"pbox/internal/flightrec"
	"pbox/internal/telemetry"
	"pbox/internal/wire"
)

// The wire_ingest workload: the daemon as deployed. The manager is built the
// way cmd/pboxd builds it by default, wire.Server listens on loopback, every
// generator is one wire.Client connection feeding one tenant, and a poller
// reads the telemetry exporter beside the writes.

const (
	activitiesPerBatch = 32
	eventsPerBatch     = activitiesPerBatch * eventsPerActivity
	pollHz             = 50
)

// daemonStack is pboxd's default manager and the observer chain around it.
type daemonStack struct {
	mgr *core.Manager
	rec *flightrec.Recorder
	reg *telemetry.Registry
	dir string // incidents directory
}

// daemonOptions are the core.Options cmd/pboxd runs with by default, before
// the observer chain is attached.
func daemonOptions() core.Options {
	return core.Options{TraceSize: 4096, Attribution: true}
}

// newDaemonStack assembles flightrec → telemetry.Collector → manager with
// incidents under a fresh directory in outDir.
func newDaemonStack(outDir string) (*daemonStack, error) {
	dir, err := os.MkdirTemp(outDir, "incidents-")
	if err != nil {
		return nil, fmt.Errorf("incidents dir: %w", err)
	}
	reg := telemetry.NewRegistry()
	col := telemetry.NewCollector(reg)
	rec := flightrec.New(flightrec.Config{Dir: dir, Next: col})
	opts := daemonOptions()
	opts.Observer = rec
	mgr := core.NewManager(opts)
	col.AttachNamer(mgr)
	rec.AttachManager(mgr)
	return &daemonStack{mgr: mgr, rec: rec, reg: reg, dir: dir}, nil
}

func (d *daemonStack) close() {
	d.rec.Close()
	os.RemoveAll(d.dir)
}

// wireGen is one feeder connection and its tenant.
type wireGen struct {
	c       *wire.Client
	tenant  uint64
	keys    [keysPerTenant]core.ResourceKey
	win     *genWindows
	sb      *spanBuf
	seq     uint64
	batches int64
	acts    int // activities per barrier
	dice    dice
	err     error
}

// encode appends one barrier's worth of activities to the client's frame.
func (g *wireGen) encode() {
	for a := 0; a < g.acts; a++ {
		g.c.Activate(g.tenant)
		for _, k := range g.keys {
			g.c.Event(k, core.Prepare)
			g.c.Event(k, core.Enter)
			g.c.Event(k, core.Hold)
			g.c.Event(k, core.Unhold)
		}
		g.c.Freeze(g.tenant)
	}
}

// barrier is one request: encode, flush, ping→pong. The pong means every
// event of the batch is applied, not merely received.
// With traced set it records a span around each of the three steps.
func (g *wireGen) barrier(traced bool) (t0, t3 int64, err error) {
	t0 = exec.Now()
	g.encode()
	t1 := t0
	if traced {
		t1 = exec.Now()
	}
	if err = g.c.Flush(); err != nil {
		return t0, t0, err
	}
	t2 := t0
	if traced {
		t2 = exec.Now()
	}
	g.seq++
	if _, err = g.c.Ping(g.seq); err != nil {
		return t0, t0, err
	}
	t3 = exec.Now()
	g.batches++
	if traced {
		if root := g.sb.begin(4); root != 0 {
			g.sb.child(spEncode, root, t0, t1)
			g.sb.child(spFlush, root, t1, t2)
			g.sb.child(spPing, root, t2, t3)
			g.sb.end(spBatch, t0, t3)
		}
	}
	return t0, t3, nil
}

func (g *wireGen) run() {
	for {
		// When tracing, every other barrier on average is traced and lives
		// in the spans only; the latency samples stay those of untraced
		// barriers, which is what the stage sum is reconciled with.
		traced := g.sb != nil && g.win.cur >= 0 && g.dice.next()%2 == 0
		t0, t3, err := g.barrier(traced)
		if err != nil {
			g.err = err
			return
		}
		sample := t3 - t0
		if traced {
			sample = -1
		}
		if !g.win.tick(t3, int64(g.acts*eventsPerActivity), sample) {
			return
		}
	}
}

// wireEnv is a set-up wire_ingest workload.
type wireEnv struct {
	stack   *daemonStack
	srv     *wire.Server
	served  chan error
	handler http.Handler
	addr    string
	gens    []*wireGen
	redraws int
}

func (env *wireEnv) close() error {
	var first error
	for _, g := range env.gens {
		if err := g.c.Close(); err != nil && first == nil {
			first = err
		}
	}
	env.srv.Close()
	if err := <-env.served; err != nil && first == nil {
		first = err
	}
	env.stack.close()
	return first
}

// dialTenant connects one feeder, registers and selects its tenant, and
// waits for the first pong so the connection is known to be live.
// Tenant ids are scoped to their connection; the seed picks them.
func dialTenant(addr string, rng *rand.Rand, acts int) (*wireGen, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	tenant := rng.Uint64()>>1 | 1
	g := &wireGen{c: c, tenant: tenant, keys: drawKeys(rng), acts: acts, dice: newDice(rng)}
	c.Register(tenant, core.DefaultRule(), fmt.Sprintf("bench-%d", tenant))
	c.Select(tenant)
	g.seq++
	if _, err := c.Ping(g.seq); err != nil {
		c.Close()
		return nil, err
	}
	return g, nil
}

// setupWire brings up the daemon stack, the wire server and the feeders. One
// trial barrier per feeder shows key aliasing, as on fastpath_events.
func setupWire(rng *rand.Rand, gens, acts int, outDir string) (*wireEnv, error) {
	for try := 0; try <= maxKeyRedraws; try++ {
		stack, err := newDaemonStack(outDir)
		if err != nil {
			return nil, err
		}
		env := &wireEnv{stack: stack, served: make(chan error, 1), redraws: try}
		env.srv = wire.NewServer(stack.mgr, wire.Config{})
		exp := telemetry.NewExporter(stack.reg, stack.mgr)
		exp.AttachWire(env.srv)
		env.handler = exp.Handler()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stack.close()
			return nil, err
		}
		env.addr = ln.Addr().String()
		go func() { env.served <- env.srv.Serve(ln) }()
		for i := 0; i < gens; i++ {
			g, err := dialTenant(env.addr, rng, acts)
			if err == nil {
				env.gens = append(env.gens, g)
				_, _, err = g.barrier(false)
			}
			if err != nil {
				env.close()
				return nil, fmt.Errorf("wire set-up: %w", err)
			}
		}
		if env.stack.mgr.SelfStats().ContentionStickySlots == 0 {
			return env, nil
		}
		if err := env.close(); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("wire_ingest: keys still alias after %d redraws", maxKeyRedraws)
}

// drive runs the feeders and the poller through one segment.
func (env *wireEnv) drive(rp runParams, seg segment) (*windowClock, *poller) {
	clk := rp.clock(seg)
	winSec := float64(clk.winLen) / 1e9
	for _, g := range env.gens {
		g.win = newGenWindows(clk, int(winSec*20_000)+64)
		g.sb = seg.tr.buffer(int(seg.measure.Seconds()*40_000) + 1024)
	}
	poll := &poller{handler: env.handler, win: newGenWindows(clk, int(winSec*pollHz)+8)}
	runtime.GC()
	clk.start = exec.Now() + int64(rp.warmup)
	stop := make(chan struct{})
	var wg, pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() { defer pollWG.Done(); poll.run(stop) }()
	for _, g := range env.gens {
		wg.Add(1)
		go func() { defer wg.Done(); g.run() }()
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()
	return clk, poll
}

// poller reads /status and /metrics alternately at pollHz through the
// exporter's handler until stop is closed, timing each read.
type poller struct {
	handler http.Handler
	win     *genWindows
	bad     atomic.Int64
}

func (p *poller) run(stop <-chan struct{}) {
	tick := time.NewTicker(time.Second / pollHz)
	defer tick.Stop()
	paths := [2]string{"/status", "/metrics"}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		req := httptest.NewRequest(http.MethodGet, paths[i%2], nil)
		rw := httptest.NewRecorder()
		t0 := exec.Now()
		p.handler.ServeHTTP(rw, req)
		t1 := exec.Now()
		if rw.Code != http.StatusOK || rw.Body.Len() == 0 {
			p.bad.Add(1)
		}
		p.win.tick(t1, 1, t1-t0)
	}
}

// runWire is the wire_ingest workload.
func runWire(rp runParams) (*runResult, error) {
	return runWireBatches(rp, activitiesPerBatch)
}

// runWireBatches runs the wire loop with acts activities per barrier; the
// small-batch probe reuses it with one.
func runWireBatches(rp runParams, acts int) (*runResult, error) {
	rng := rand.New(rand.NewSource(rp.seed))
	res := newRunResult()
	env, setup, err := timeSetups(rp,
		func() (*wireEnv, error) { return setupWire(rng, rp.gens, acts, rp.outDir) },
		(*wireEnv).close)
	if err != nil {
		return nil, err
	}
	res.e2e[mSetup] = setup

	var reads []int64
	var badReads int64
	for _, seg := range rp.segments() {
		clk, poll := env.drive(rp, seg)
		wins := make([]*genWindows, len(env.gens))
		for i, g := range env.gens {
			wins[i] = g.win
		}
		w := foldWindows(clk, wins, wins)
		requestNs := map[string]float64{"batch": w.meanAll}
		badReads += poll.bad.Load()
		if seg.tr == nil && rp.tr != nil {
			res.ref = &refFigures{throughput: median(w.rate), requestNs: requestNs}
			continue
		}
		res.setLatency(w)
		res.requestNs = requestNs
		// Reads beside writes: every sample of the segment, one distribution.
		for k := 0; k < clk.n; k++ {
			reads = append(reads, poll.win.lat[k]...)
		}
	}
	var sent int64
	for i, g := range env.gens {
		sent += g.batches * int64(g.acts*eventsPerActivity)
		if g.err != nil {
			res.fail(1, "feeder %d: %v", i, g.err)
		}
	}

	// Output checks: the server admitted and applied exactly what the
	// feeders sent, shed nothing, and saw no protocol error; every read
	// returned a body.
	st := env.srv.Stats()
	res.attempted = sent
	if st.Events != sent {
		res.fail(abs64(st.Events-sent), "server applied %d events, feeders sent %d", st.Events, sent)
	}
	if shed := st.ShedConn + st.ShedGlobal; shed > 0 {
		res.fail(shed, "%d events shed", shed)
	}
	if st.Errors > 0 {
		res.fail(st.Errors, "%d wire protocol errors", st.Errors)
	}
	if badReads > 0 {
		res.fail(badReads, "%d exporter reads failed", badReads)
	}
	mst := env.stack.mgr.SelfStats()
	if mst.ContentionStickySlots != 0 {
		res.fail(int64(mst.ContentionStickySlots), "%d contention slots went sticky", mst.ContentionStickySlots)
	}
	if got, want := mst.SpoolFlushedEvents, sent; got != want {
		res.fail(abs64(got-want), "spools replayed %d events, feeders sent %d", got, want)
	}

	sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
	res.layers["telemetry.read_p50_us"] = float64(percentile(reads, 50)) / 1e3
	res.layers["telemetry.read_p95_us"] = float64(percentile(reads, 95)) / 1e3
	res.layers["wire.events_per_frame"] = float64(st.Events) / math.Max(1, float64(st.Frames))
	res.layers["wire.shed_share"] = float64(st.ShedConn+st.ShedGlobal) / math.Max(1, float64(sent))
	res.layers["wire.errors"] = float64(st.Errors)
	res.layers["flightrec.dropped"] = float64(env.stack.rec.Dropped())
	res.detail["key_redraws"] = env.redraws
	res.detail["barriers"] = sent / int64(acts*eventsPerActivity)
	res.detail["reads"] = len(reads)
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("wire teardown: %w", err)
	}
	return res, nil
}
