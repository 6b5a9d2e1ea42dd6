package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"pbox/internal/capture"
	"pbox/internal/core"
	"pbox/internal/exec"
	"pbox/internal/flightrec"
	"pbox/internal/isolation"
	"pbox/internal/telemetry"
	"pbox/internal/vres"
	"pbox/internal/wire"
)

// Short probes of single layers, run only in the traced run. Each measures
// from outside: it times blocks of public calls, differences configurations,
// or reads public counters.

// probeLen is how long one timed configuration of a probe runs.
const probeLen = 400 * time.Millisecond

// loopNsPerEvent runs the fastpath activity loop on the calling goroutine
// against mgr for d and returns nanoseconds per state event.
func loopNsPerEvent(mgr *core.Manager, rng *rand.Rand, d time.Duration) (float64, int64, error) {
	g, err := newActGen(mgr, rng)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < 1024; i++ {
		g.activity()
	}
	g.acts = 0
	t0 := exec.Now()
	end := t0 + int64(d)
	t := t0
	for t < end {
		for i := 0; i < timeEvery; i++ {
			g.activity()
		}
		t = exec.Now()
	}
	g.w.Flush()
	events := g.acts * eventsPerActivity
	return float64(t-t0) / float64(events), events, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// probeObserverChain re-runs the in-process activity loop under bare options,
// pboxd's options with no observer, and then with each link of pboxd's
// observer chain added in turn; the differences are each link's cost per
// event. It also returns the per-event cost under pboxd's default chain,
// which the wire residual needs.
func probeObserverChain(rng *rand.Rand, outDir string, out map[string]float64) (daemonNs float64, err error) {
	measure := func(opts core.Options) (float64, int64, error) {
		return loopNsPerEvent(core.NewManager(opts), rng, probeLen)
	}
	bare, _, err := measure(core.Options{})
	if err != nil {
		return 0, err
	}
	quiet, _, err := measure(daemonOptions())
	if err != nil {
		return 0, err
	}
	withObserver := func(obs core.Observer) (float64, int64, error) {
		opts := daemonOptions()
		opts.Observer = obs
		return measure(opts)
	}
	collected, _, err := withObserver(telemetry.NewCollector(telemetry.NewRegistry()))
	if err != nil {
		return 0, err
	}

	incidents, err := os.MkdirTemp(outDir, "probe-incidents-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(incidents)
	rec := flightrec.New(flightrec.Config{Dir: incidents, Next: telemetry.NewCollector(telemetry.NewRegistry())})
	recorded, _, err := withObserver(rec)
	rec.Close()
	if err != nil {
		return 0, err
	}

	logDir, err := os.MkdirTemp(outDir, "probe-capture-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(logDir)
	rec2 := flightrec.New(flightrec.Config{Dir: incidents, Next: telemetry.NewCollector(telemetry.NewRegistry())})
	defer rec2.Close()
	capRec, err := capture.NewRecorder(capture.RecorderConfig{Dir: logDir, Next: rec2})
	if err != nil {
		return 0, err
	}
	captured, events, err := withObserver(capRec)
	if cerr := capRec.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("capture recorder: %w", cerr)
	}
	if err != nil {
		return 0, err
	}
	logged, err := dirBytes(logDir)
	if err != nil {
		return 0, err
	}

	out["core.observer_tax_ns"] = recorded - bare
	out["telemetry.collector_ns_per_event"] = collected - quiet
	out["flightrec.ns_per_event"] = recorded - collected
	out["capture.ns_per_event"] = captured - recorded
	out["capture.dropped"] = float64(capRec.Dropped())
	// Bytes on disk per state event issued; lifecycle records ride along,
	// dropped records do not.
	out["capture.bytes_per_event"] = float64(logged) / float64(events)
	return recorded, nil
}

// probeReads times the read path of a pboxd-style manager holding some
// tenants: the cached and rebuilt snapshot, the precise stop-the-world read,
// and the exporter's two polled handlers.
func probeReads(rng *rand.Rand, outDir string, out map[string]float64) error {
	stack, err := newDaemonStack(outDir)
	if err != nil {
		return err
	}
	defer stack.close()
	mgr := stack.mgr
	for i := 0; i < 64; i++ {
		g, err := newActGen(mgr, rng)
		if err != nil {
			return err
		}
		g.activity()
		g.w.Flush()
	}
	const cached = 200_000
	mgr.StatusView()
	t0 := exec.Now()
	for i := 0; i < cached; i++ {
		mgr.StatusView()
	}
	out["core.statusview_ns"] = float64(exec.Now()-t0) / cached

	timeCalls := func(n int, call func()) float64 {
		samples := make([]int64, n)
		for i := range samples {
			t := exec.Now()
			call()
			samples[i] = exec.Now() - t
		}
		return p50ns(samples) / 1e3
	}
	out["core.statusview_rebuild_us"] = timeCalls(100, func() { mgr.RefreshStatusView() })
	out["core.status_precise_us"] = timeCalls(100, func() { mgr.Status() })
	exp := telemetry.NewExporter(stack.reg, mgr)
	get := func(path string) func() {
		return func() {
			exp.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		}
	}
	out["telemetry.status_handler_us"] = timeCalls(200, get("/status"))
	out["telemetry.metrics_handler_us"] = timeCalls(200, get("/metrics"))
	return nil
}

func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// probeLifecycle times create → one activity → release, and weighs frozen
// and hibernated pBoxes. Memory is its own metric so that work moved into
// set-up or RAM shows.
func probeLifecycle(out map[string]float64) error {
	mgr := core.NewManager(core.Options{})
	const cycles = 10_000
	t0 := exec.Now()
	for i := 0; i < cycles; i++ {
		p, err := mgr.Create(core.DefaultRule())
		if err != nil {
			return err
		}
		key := core.ResourceKey(1 + i%4096)
		mgr.Activate(p)
		mgr.Update(p, key, core.Hold)
		mgr.Update(p, key, core.Unhold)
		mgr.Freeze(p)
		if err := mgr.Release(p); err != nil {
			return err
		}
	}
	out["core.create_release_ns"] = float64(exec.Now()-t0) / cycles

	const residents = 20_000
	mgr = core.NewManager(core.Options{})
	before := heapAlloc()
	pboxes := make([]*core.PBox, residents)
	for i := range pboxes {
		p, err := mgr.Create(core.DefaultRule())
		if err != nil {
			return err
		}
		// A bounded key space: shard-side state is charged to resources,
		// the figure wanted is bytes per pBox.
		key := core.ResourceKey(1 + i%4096)
		mgr.Activate(p)
		mgr.Update(p, key, core.Hold)
		mgr.Update(p, key, core.Unhold)
		mgr.Freeze(p)
		pboxes[i] = p
	}
	out["core.resident_bytes_per_pbox"] = float64(heapAlloc()-before) / residents
	for _, p := range pboxes {
		if err := mgr.Hibernate(p); err != nil {
			return err
		}
	}
	out["core.hibernated_bytes_per_pbox"] = float64(heapAlloc()-before) / residents
	runtime.KeepAlive(pboxes)
	return nil
}

// countingConn counts the bytes a wire.Client writes.
type countingConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// probeWireIdle measures what the wire costs with nothing else going on:
// connection set-up, the idle ping round trip, and bytes on the wire per
// event. It returns the idle round trip in nanoseconds.
func probeWireIdle(rng *rand.Rand, outDir string, out map[string]float64) (rttNs float64, err error) {
	env, err := setupWire(rng, 1, activitiesPerBatch, outDir)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := env.close(); err == nil {
			err = cerr
		}
	}()
	g := env.gens[0]
	addr := env.addr

	const dials = 20
	setups := make([]int64, dials)
	for i := range setups {
		t0 := exec.Now()
		extra, err := dialTenant(addr, rng, 1)
		if err != nil {
			return 0, err
		}
		setups[i] = exec.Now() - t0
		if err := extra.c.Close(); err != nil {
			return 0, err
		}
	}
	out["wire.conn_setup_us"] = p50ns(setups) / 1e3

	const pings = 300
	rtts := make([]int64, pings)
	for i := range rtts {
		g.seq++
		t0 := exec.Now()
		if _, err := g.c.Ping(g.seq); err != nil {
			return 0, err
		}
		rtts[i] = exec.Now() - t0
	}
	rttNs = p50ns(rtts)
	out["wire.ping_rtt_idle_us"] = rttNs / 1e3

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	cc := &countingConn{Conn: nc}
	c, err := wire.NewClient(cc)
	if err != nil {
		return 0, err
	}
	counted := &wireGen{c: c, tenant: 7, keys: drawKeys(rng), acts: activitiesPerBatch}
	c.Register(counted.tenant, core.DefaultRule(), "counted")
	c.Select(counted.tenant)
	if err := c.Flush(); err != nil {
		return 0, err
	}
	base := cc.written.Load()
	const batches = 50
	for i := 0; i < batches; i++ {
		if _, _, err := counted.barrier(false); err != nil {
			return 0, err
		}
	}
	out["wire.bytes_per_event"] = float64(cc.written.Load()-base) / (batches * eventsPerBatch)
	return rttNs, c.Close()
}

// probeIsolation measures the application-side wrappers with no exec.Work to
// dilute them: one uncontended Activity.Event, and a vres.Mutex Lock/Unlock
// cycle under the pBox controller and under the null controller. This is the
// Figure 16 overhead at its source.
func probeIsolation(out map[string]float64) {
	const events = 400_000
	const cycles = 200_000
	mgr := core.NewManager(core.Options{})
	ctrl := isolation.NewPBox(mgr, core.DefaultRule())
	act := ctrl.ConnStart("probe", isolation.KindForeground)
	key := vres.NewKey()
	act.Begin("probe")
	t0 := exec.Now()
	for i := 0; i < events/2; i++ {
		act.Event(key, core.Hold)
		act.Event(key, core.Unhold)
	}
	out["isolation.event_ns"] = float64(exec.Now()-t0) / events
	act.End(0)

	mutexCycle := func(a isolation.Activity) float64 {
		mu := vres.NewMutex()
		a.Begin("probe")
		t0 := exec.Now()
		for i := 0; i < cycles; i++ {
			mu.Lock(a)
			mu.Unlock(a)
		}
		ns := float64(exec.Now()-t0) / cycles
		a.End(0)
		return ns
	}
	out["vres.mutex_cycle_ns_pbox"] = mutexCycle(act)
	act.Close()
	ctrl.Shutdown()
	null := isolation.NewNull().ConnStart("probe", isolation.KindForeground)
	out["vres.mutex_cycle_ns_null"] = mutexCycle(null)
	null.Close()
}

// probeExec measures the clock every layer reads and how late the penalty
// sleep wakes.
func probeExec(out map[string]float64) {
	const reads = 2_000_000
	var sink int64
	t0 := exec.Now()
	for i := 0; i < reads; i++ {
		sink += exec.Now()
	}
	out["exec.now_ns"] = float64(exec.Now()-t0) / reads
	runtime.KeepAlive(sink)

	const sleeps = 300
	const asked = 200 * time.Microsecond
	over := make([]int64, sleeps)
	for i := range over {
		t := exec.Now()
		exec.SleepPrecise(asked)
		over[i] = exec.Now() - t - int64(asked)
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	out["exec.sleep_overshoot_p50_us"] = float64(percentile(over, 50)) / 1e3
	out["exec.sleep_overshoot_p99_us"] = float64(percentile(over, 99)) / 1e3
}
