package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pbox/internal/core"
	"pbox/internal/exec"
)

// The two in-process event workloads. Both are closed loops: a generator
// goroutine plays an application thread that calls Update synchronously, so a
// slower manager receives less load.

const (
	keysPerTenant     = 4
	eventsPerActivity = 4 * keysPerTenant     // PREPARE, ENTER, HOLD, UNHOLD on each key
	callsPerActivity  = eventsPerActivity + 2 // plus Activate and Freeze
	eventsPerCycle    = 8 * keysPerTenant     // the pair script: culprit and victim, four events each per key
	timeEvery         = 8                     // one activity in this many is timed, on average
	traceOneIn        = 4                     // one timed activity in this many records spans when tracing, on average
	pairTickEvery     = 4                     // pair cycles between clock reads
	pairTraceOneIn    = 8                     // one ticked pair cycle in this many records spans when tracing, on average
	maxKeyRedraws     = 32
)

// dice is a generator's private xorshift64 source. Which activities are
// timed or traced is drawn from it rather than fixed by a stride: two
// tenants contending for the manager's locks fall into lockstep, and a
// stride would then always sample the same phase of the other tenant — the
// timed one in eight would not stand for the other seven.
type dice uint64

func newDice(rng *rand.Rand) dice { return dice(rng.Uint64() | 1) }

func (d *dice) next() uint64 {
	v := uint64(*d)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*d = dice(v)
	return v
}

// runParams are the knobs of one workload run.
type runParams struct {
	seed    int64
	measure time.Duration // measured length, cut into windows
	warmup  time.Duration // discarded before the first window
	windows int
	gens    int     // generator goroutines / connections
	setups  int     // times set-up is repeated; setup_s is the median
	tr      *tracer // nil when tracing is off
	// refMeasure, when positive, puts an untraced reference segment of that
	// length before the traced one, on the same set-up environment.
	refMeasure time.Duration
	outDir     string // scratch space inside the checkout (incidents, capture logs)
}

// runResult is what one workload run reports.
type runResult struct {
	e2e       map[string]estimate
	info      map[string]estimate // request percentiles reported but not gated (spec.go says why)
	attempted int64
	failed    int64
	problems  []string // every failed output check, in words
	dropped   int      // windows dropped for generator lateness
	tailPct   float64  // the percentile latency_tail_us holds
	samples   int      // latency samples in the window (case run) that has fewest
	layers    map[string]float64
	detail    map[string]any
	// requestNs is the generators' own mean time per request (activity,
	// pair cycle or barrier): the end-to-end figure the traced run's stage
	// sum must reconcile with.
	requestNs map[string]float64
	ref       *refFigures // the untraced reference segment, when one ran
}

// refFigures are the reference segment's figures the traced segment is held
// against.
type refFigures struct {
	throughput float64
	requestNs  map[string]float64
}

func newRunResult() *runResult {
	return &runResult{
		e2e:       map[string]estimate{},
		info:      map[string]estimate{},
		layers:    map[string]float64{},
		detail:    map[string]any{},
		requestNs: map[string]float64{},
	}
}

// fail records a failed output check worth n failed operations.
func (r *runResult) fail(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setLatency fills the throughput and latency estimates from folded windows.
func (r *runResult) setLatency(w windowed) {
	r.dropped, r.tailPct, r.samples = w.dropped, w.tailPct, w.fewest
	scale := func(ns []float64) []float64 {
		us := make([]float64, len(ns))
		for i, v := range ns {
			us[i] = v / 1e3
		}
		return us
	}
	r.e2e[mThroughput] = estimateOf(w.rate)
	r.e2e[mMean] = estimateOf(scale(w.mean))
	r.e2e[mTail] = estimateOf(scale(w.tail))
	r.info[infoP50] = estimateOf(scale(w.p50))
	r.info[infoP99] = estimateOf(scale(w.p99))
	if len(w.rate) == 0 {
		r.fail(1, "every window was dropped for generator lateness")
	}
}

func drawKeys(rng *rand.Rand) [keysPerTenant]core.ResourceKey {
	var ks [keysPerTenant]core.ResourceKey
	for i := range ks {
		// Non-zero (0 is core.AggregateKey) and far apart, like object
		// addresses.
		ks[i] = core.ResourceKey(rng.Uint64()>>8 | 1)
	}
	return ks
}

// actGen is one application thread running uninterfered activities on its
// own pBox, Worker and private keys.
type actGen struct {
	mgr  *core.Manager
	p    *core.PBox
	w    *core.Worker
	keys [keysPerTenant]core.ResourceKey
	win  *genWindows
	sb   *spanBuf
	dice dice
	acts int64 // activities issued, trial and warm-up included
}

func newActGen(mgr *core.Manager, rng *rand.Rand) (*actGen, error) {
	p, err := mgr.Create(core.DefaultRule())
	if err != nil {
		return nil, err
	}
	g := &actGen{mgr: mgr, p: p, w: mgr.NewWorker(), keys: drawKeys(rng), dice: newDice(rng)}
	if err := g.w.BindDirect(p); err != nil {
		return nil, err
	}
	return g, nil
}

// updates issues the activity's 16 state events through the Worker.
func (g *actGen) updates() {
	for _, k := range g.keys {
		g.w.Update(k, core.Prepare)
		g.w.Update(k, core.Enter)
		g.w.Update(k, core.Hold)
		g.w.Update(k, core.Unhold)
	}
}

// activity is one request: 18 calls into the manager.
func (g *actGen) activity() {
	g.mgr.Activate(g.p)
	g.updates()
	g.mgr.Freeze(g.p)
	g.acts++
}

// tracedActivity is activity with one stage boundary read inside it:
// Activate's end or Freeze's start, as front says. One, not both: when two
// tenants contend for the manager's locks, a clock read between two calls
// shifts the tenants' phase and costs the activity about 200 ns (six times
// the read itself), so reading both boundaries would distort the very
// request being decomposed by well over a tenth. The span of the 16
// Worker.Update calls is therefore not recorded; their time is the root's
// self time, and the budget table takes it by difference.
func (g *actGen) tracedActivity(t0 int64, front bool) int64 {
	root := g.sb.begin(2)
	var mid int64
	g.mgr.Activate(g.p)
	if front {
		mid = exec.Now()
	}
	g.updates()
	if !front {
		mid = exec.Now()
	}
	g.mgr.Freeze(g.p)
	t3 := exec.Now()
	g.acts++
	if root != 0 {
		if front {
			g.sb.child(spActivate, root, t0, mid)
		} else {
			g.sb.child(spFreeze, root, mid, t3)
		}
		g.sb.end(spActivity, t0, t3)
	}
	return t3
}

// run drives activities until the window clock says the run is over.
func (g *actGen) run() {
	for {
		// 4 to 12 activities, the last one timed: one in timeEvery on average.
		gap := timeEvery/2 + int64(g.dice.next()%(timeEvery+1))
		for i := int64(1); i < gap; i++ {
			g.activity()
		}
		t0 := exec.Now()
		var t1 int64
		sample := int64(-1)
		if r := g.dice.next(); g.sb != nil && g.win.cur >= 0 && r%traceOneIn == 0 {
			// Traced activities live in the spans only: the latency
			// samples stay those of untraced activities, which is what
			// the stage sum is reconciled with.
			t1 = g.tracedActivity(t0, r&(1<<32) != 0)
		} else {
			g.activity()
			t1 = exec.Now()
			sample = t1 - t0
		}
		if !g.win.tick(t1, gap*eventsPerActivity, sample) {
			return
		}
	}
}

// pairGen scripts a culprit/victim pBox pair on shared keys from one
// goroutine: the culprit holds each key while the victim waits for it, which
// is the interference Algorithm 1 exists to detect.
type pairGen struct {
	mgr    *core.Manager
	c, v   *core.PBox
	wc, wv *core.Worker
	keys   [keysPerTenant]core.ResourceKey
	win    *genWindows
	sb     *spanBuf
	dice   dice
	cycles int64
}

func newPairGen(mgr *core.Manager, rng *rand.Rand) (*pairGen, error) {
	g := &pairGen{mgr: mgr, keys: drawKeys(rng), dice: newDice(rng)}
	for _, slot := range []struct {
		p **core.PBox
		w **core.Worker
	}{{&g.c, &g.wc}, {&g.v, &g.wv}} {
		p, err := mgr.Create(core.DefaultRule())
		if err != nil {
			return nil, err
		}
		w := mgr.NewWorker()
		if err := w.BindDirect(p); err != nil {
			return nil, err
		}
		*slot.p, *slot.w = p, w
	}
	return g, nil
}

// script is the 32 state events of one cycle.
func (g *pairGen) script() {
	for _, k := range g.keys {
		g.wc.Update(k, core.Prepare)
		g.wc.Update(k, core.Enter)
		g.wc.Update(k, core.Hold)
		g.wv.Update(k, core.Prepare)
		g.wc.Update(k, core.Unhold)
		g.wv.Update(k, core.Enter)
		g.wv.Update(k, core.Hold)
		g.wv.Update(k, core.Unhold)
	}
}

func (g *pairGen) cycle() {
	g.mgr.Activate(g.c)
	g.mgr.Activate(g.v)
	g.script()
	g.mgr.Freeze(g.c)
	g.mgr.Freeze(g.v)
	g.cycles++
}

func (g *pairGen) tracedCycle() {
	root := g.sb.begin(4)
	t0 := exec.Now()
	g.mgr.Activate(g.c)
	g.mgr.Activate(g.v)
	t1 := exec.Now()
	g.script()
	t2 := exec.Now()
	g.mgr.Freeze(g.c)
	g.mgr.Freeze(g.v)
	t3 := exec.Now()
	g.cycles++
	if root != 0 {
		g.sb.child(spActivate, root, t0, t1)
		g.sb.child(spTierBUpdate, root, t1, t2)
		g.sb.child(spFreeze, root, t2, t3)
		g.sb.end(spPairCycle, t0, t3)
	}
}

func (g *pairGen) run() {
	last := exec.Now()
	for {
		for i := 1; i < pairTickEvery; i++ {
			g.cycle()
		}
		traced := g.sb != nil && g.win.cur >= 0 && g.dice.next()%pairTraceOneIn == 0
		if traced {
			g.tracedCycle()
		} else {
			g.cycle()
		}
		// The pair's own sample is its mean cycle time over an untraced
		// round; it feeds the stage reconciliation, not the latency metrics.
		t := exec.Now()
		sample := (t - last) / pairTickEvery
		if traced {
			sample = -1
		}
		last = t
		if !g.win.tick(t, pairTickEvery*eventsPerCycle, sample) {
			return
		}
	}
}

// eventEnv is a set-up in-process workload: the manager, its generators, and
// what the output checks need to know about them.
type eventEnv struct {
	mgr     *core.Manager
	acts    []*actGen
	pair    *pairGen     // nil on fastpath_events
	slept   atomic.Int64 // ns of penalty the summing Sleep was asked for
	redraws int
}

// setupFastpath builds one manager with gens private-key tenants. A trial
// activity per tenant shows whether the seed's keys alias in the manager's
// contention-slot table (one tenant's claim would push another onto Tier B
// for good); if so the keys are redrawn.
func setupFastpath(rng *rand.Rand, gens int) (*eventEnv, error) {
	for try := 0; try <= maxKeyRedraws; try++ {
		env := &eventEnv{mgr: core.NewManager(core.Options{}), redraws: try}
		for i := 0; i < gens; i++ {
			g, err := newActGen(env.mgr, rng)
			if err != nil {
				return nil, err
			}
			g.activity()
			g.w.Flush()
			env.acts = append(env.acts, g)
		}
		st := env.mgr.SelfStats()
		if st.ContentionStickySlots == 0 && st.SpoolFlushedEvents == int64(gens*eventsPerActivity) {
			return env, nil
		}
	}
	return nil, fmt.Errorf("fastpath_events: keys still alias after %d redraws", maxKeyRedraws)
}

// setupContended builds one manager shared by a private-key bystander and the
// scripted pair. Detection is on; Options.Sleep sums penalty lengths instead
// of sleeping (as the committed core and daemon benches do), so the numbers
// are the manager's cost, not the clock's.
func setupContended(rng *rand.Rand) (*eventEnv, error) {
	for try := 0; try <= maxKeyRedraws; try++ {
		env := &eventEnv{redraws: try}
		env.mgr = core.NewManager(core.Options{Sleep: func(d time.Duration) { env.slept.Add(int64(d)) }})
		by, err := newActGen(env.mgr, rng)
		if err != nil {
			return nil, err
		}
		env.acts = []*actGen{by}
		if env.pair, err = newPairGen(env.mgr, rng); err != nil {
			return nil, err
		}
		// Trial: the pair's first cycle turns its four slots contended;
		// the bystander must still run wholly on Tier A afterwards.
		env.pair.cycle()
		env.pair.wc.Flush()
		env.pair.wv.Flush()
		before := env.mgr.SelfStats().SpoolFlushedEvents
		by.activity()
		by.w.Flush()
		st := env.mgr.SelfStats()
		if st.ContentionStickySlots == keysPerTenant && st.SpoolFlushedEvents-before == eventsPerActivity {
			return env, nil
		}
	}
	return nil, fmt.Errorf("contended_events: keys still alias after %d redraws", maxKeyRedraws)
}

// setupSpacing is the work done between two repeats of a set-up. An
// in-process set-up takes some 40 µs, so a hundred back to back fit inside one
// hiccup of the host, and the median of the run is then the hiccup's; spaced
// out they sample a tenth of a second. (Of the estimators tried across
// processes — minimum, tenth percentile, lower quartile and median, back to
// back and spaced — the spaced median repeated best on all three workloads.)
const setupSpacing = time.Millisecond

// timeSetups runs setup rp.setups times and returns the last environment and
// the median set-up wall time. discard, when non-nil, tears down each
// environment that is not kept, outside the timed stretch.
func timeSetups[E any](rp runParams, setup func() (E, error), discard func(E) error) (E, estimate, error) {
	var env E
	var secs []float64
	for i := 0; i < rp.setups; i++ {
		if i > 0 && discard != nil {
			if err := discard(env); err != nil {
				return env, estimate{}, err
			}
		}
		exec.Work(setupSpacing)
		t0 := exec.Now()
		e, err := setup()
		if err != nil {
			return env, estimate{}, err
		}
		secs = append(secs, float64(exec.Now()-t0)/1e9)
		env = e
	}
	// The repeats are bimodal (a set-up either overlaps a collection of its
	// predecessors' garbage or does not), so their quartiles, two thirds of
	// the median apart, say nothing about how well the median repeats. Like
	// the case workloads' sum, setup_s carries no spread of its own: runs are
	// compared with runs.
	s := median(secs)
	return env, estimate{Value: s, Q1: s, Q3: s, Windows: len(secs)}, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// segment is one stretch of load on a set-up environment: a warm-up, then
// the measured windows. The traced run drives two segments on the same
// environment — an untraced reference, then the traced one — so that the two
// differ in nothing but the tracing.
type segment struct {
	measure time.Duration
	tr      *tracer
}

// segments lists what a run drives: the reference first when there is one.
func (rp runParams) segments() []segment {
	if rp.refMeasure > 0 {
		return []segment{{rp.refMeasure, nil}, {rp.measure, rp.tr}}
	}
	return []segment{{rp.measure, rp.tr}}
}

func (rp runParams) clock(seg segment) *windowClock {
	return &windowClock{winLen: int64(seg.measure) / int64(rp.windows), n: rp.windows}
}

// issued returns the state events the generators have issued so far.
func (env *eventEnv) issued() int64 {
	var n int64
	for _, g := range env.acts {
		n += g.acts * eventsPerActivity
	}
	if env.pair != nil {
		n += env.pair.cycles * eventsPerCycle
	}
	return n
}

// drive runs the environment's generators through one segment and returns
// its window clock and the load's allocations per thousand events.
func (env *eventEnv) drive(rp runParams, seg segment) (*windowClock, float64) {
	clk := rp.clock(seg)
	winSec := float64(clk.winLen) / 1e9
	for _, g := range env.acts {
		g.win = newGenWindows(clk, int(winSec*120_000)+64)
		g.sb = seg.tr.buffer(int(seg.measure.Seconds()*80_000) + 1024)
	}
	if env.pair != nil {
		env.pair.win = newGenWindows(clk, int(winSec*60_000)+64)
		env.pair.sb = seg.tr.buffer(int(seg.measure.Seconds()*40_000) + 1024)
	}
	runtime.GC()
	m0, ev0 := mallocs(), env.issued()
	clk.start = exec.Now() + int64(rp.warmup)
	var wg sync.WaitGroup
	for _, g := range env.acts {
		wg.Add(1)
		go func() { defer wg.Done(); g.run() }()
	}
	if env.pair != nil {
		wg.Add(1)
		go func() { defer wg.Done(); env.pair.run() }()
	}
	wg.Wait()
	allocs := float64(mallocs()-m0) / float64(env.issued()-ev0) * 1e3
	// Final flush: every issued event must be on the manager's books before
	// the counts are reconciled.
	for _, g := range env.acts {
		g.w.Flush()
	}
	if env.pair != nil {
		env.pair.wc.Flush()
		env.pair.wv.Flush()
	}
	return clk, allocs
}

// fold turns the last driven segment into figures. Throughput counts every
// generator; latency is the private-key tenants' alone (on contended_events:
// the bystander's). The pair's own cycle time rides along for the stage
// reconciliation.
func (env *eventEnv) fold(clk *windowClock) (windowed, map[string]float64) {
	lat := make([]*genWindows, len(env.acts))
	for i, g := range env.acts {
		lat[i] = g.win
	}
	rate := lat
	requestNs := map[string]float64{}
	if env.pair != nil {
		rate = append(append([]*genWindows(nil), lat...), env.pair.win)
		pw := foldWindows(clk, rate, []*genWindows{env.pair.win})
		requestNs["pair_cycle"] = pw.meanAll
	}
	w := foldWindows(clk, rate, lat)
	requestNs["activity"] = w.meanAll
	return w, requestNs
}

// reconcile checks the manager's own books against the generators' counts:
// every issued call is one crossing, and every bystander event went through a
// spool. It returns the state events issued.
func (env *eventEnv) reconcile(res *runResult) int64 {
	var actsN, actEvents int64
	for _, g := range env.acts {
		actsN += g.acts
	}
	actEvents = actsN * eventsPerActivity
	creates := int64(len(env.acts))
	calls := actsN * callsPerActivity
	events := actEvents
	if env.pair != nil {
		creates += 2
		calls += env.pair.cycles * (eventsPerCycle + 4)
		events += env.pair.cycles * eventsPerCycle
	}
	st := env.mgr.SelfStats()
	if got, want := env.mgr.Crossings(), creates+calls; got != want {
		res.fail(abs64(got-want), "manager counted %d crossings, generators issued %d calls", got, want)
	}
	// Tier A share of the private-key tenants' events (on contended_events
	// the pair's first cycle legitimately spools a few events too).
	share := float64(st.SpoolFlushedEvents) / float64(actEvents)
	if env.pair == nil && st.SpoolFlushedEvents > actEvents {
		res.fail(st.SpoolFlushedEvents-actEvents, "spools replayed %d events, only %d were issued", st.SpoolFlushedEvents, actEvents)
	}
	if share < 0.999 {
		res.fail(actEvents-st.SpoolFlushedEvents, "tier A share %.5f < 0.999: private keys fell onto the slow path", share)
	}
	res.attempted = events
	res.layers["core.tier_a_share"] = math.Min(share, 1)
	return events
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// run drives every segment of rp on env and fills res with the last one's
// figures (and the reference's, when there was one).
func (env *eventEnv) run(rp runParams, res *runResult) (allocsPerKEvent float64) {
	for _, seg := range rp.segments() {
		clk, a := env.drive(rp, seg)
		w, requestNs := env.fold(clk)
		if seg.tr == nil && rp.tr != nil {
			res.ref = &refFigures{throughput: median(w.rate), requestNs: requestNs}
			continue
		}
		allocsPerKEvent = a
		res.setLatency(w)
		res.requestNs = requestNs
	}
	return allocsPerKEvent
}

// runFastpath is the fastpath_events workload: the paper's uninterfered case.
func runFastpath(rp runParams) (*runResult, error) {
	rng := rand.New(rand.NewSource(rp.seed))
	res := newRunResult()
	env, setup, err := timeSetups(rp, func() (*eventEnv, error) { return setupFastpath(rng, rp.gens) }, nil)
	if err != nil {
		return nil, err
	}
	res.e2e[mSetup] = setup
	allocs := env.run(rp, res)
	events := env.reconcile(res)

	st := env.mgr.SelfStats()
	if n := env.mgr.TotalActions(); n != 0 {
		res.fail(int64(n), "%d penalty actions on a workload where nothing is contended", n)
	}
	if st.ContentionStickySlots != 0 {
		res.fail(int64(st.ContentionStickySlots), "%d contention slots went sticky", st.ContentionStickySlots)
	}
	ev := float64(events)
	res.layers["core.spool_flushes_per_kevent"] = float64(st.SpoolFlushes) / ev * 1e3
	res.layers["core.events_per_flush"] = float64(st.SpoolFlushedEvents) / float64(st.SpoolFlushes)
	res.layers["core.shard_lock_acq_per_event"] = float64(st.ShardLockAcquisitions) / ev
	res.layers["core.allocs_per_kevent"] = allocs
	res.detail["key_redraws"] = env.redraws
	res.detail["activities"] = events / eventsPerActivity
	return res, nil
}

// runContended is the contended_events workload.
func runContended(rp runParams) (*runResult, error) {
	rng := rand.New(rand.NewSource(rp.seed))
	res := newRunResult()
	env, setup, err := timeSetups(rp, func() (*eventEnv, error) { return setupContended(rng) }, nil)
	if err != nil {
		return nil, err
	}
	res.e2e[mSetup] = setup
	t0 := exec.Now()
	env.run(rp, res)
	elapsed := float64(exec.Now()-t0) / 1e9
	env.reconcile(res)
	pair := env.pair

	// Every action must name the scripted culprit.
	var actions, misblamed int
	var scheduled time.Duration
	for _, rec := range env.mgr.ActionReport() {
		actions += rec.Actions
		if rec.NoisyID != pair.c.ID() {
			misblamed += rec.Actions
		}
		for _, l := range rec.Lengths {
			scheduled += l
		}
	}
	if misblamed > 0 {
		res.fail(int64(misblamed), "%d penalty actions blame a pBox other than the scripted culprit", misblamed)
	}
	if actions == 0 {
		res.fail(1, "the scripted interference drew no penalty action")
	}
	st := env.mgr.SelfStats()
	vl := st.VerdictLatency
	bounds := make([]float64, len(vl.Bounds))
	for i, b := range vl.Bounds {
		bounds[i] = float64(b)
	}
	res.layers["core.verdict_section_p50_ns"] = histQuantile(bounds, vl.Counts, 0.50)
	res.layers["core.verdict_section_p99_ns"] = histQuantile(bounds, vl.Counts, 0.99)
	res.layers["core.actions_per_kcycle"] = float64(actions) / float64(pair.cycles) * 1e3
	res.layers["core.penalty_scheduled_ms_per_s"] = scheduled.Seconds() * 1e3 / elapsed
	res.layers["core.misblamed_actions"] = float64(misblamed)
	res.layers["core.sweeps"] = float64(st.SpoolSweeps)
	res.layers["core.revocations"] = float64(st.ContentionRevocations)
	res.layers["core.sticky_slots"] = float64(st.ContentionStickySlots)
	res.detail["key_redraws"] = env.redraws
	res.detail["pair_cycles"] = pair.cycles
	res.detail["actions"] = actions
	res.detail["penalty_asked_ms"] = float64(env.slept.Load()) / 1e6
	return res, nil
}
