package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pbox/internal/exec"
)

// Options configures a Manager. The zero value selects the paper's defaults.
// The two-tier ingestion path (DESIGN.md §10) has no knob: every Worker spools
// into a 256-record buffer (SpoolCapacity).
type Options struct {
	// Now supplies the monotonic clock (ns). Defaults to exec.Now. Tests
	// inject a fake clock to drive the detection logic deterministically.
	Now func() int64
	// Sleep executes a penalty delay. Defaults to exec.SleepPrecise; tests
	// replace it to observe penalties without real delays.
	Sleep func(time.Duration)

	// MinPenalty and MaxPenalty clamp every penalty length. The kernel
	// implementation is bounded below by timer resolution and above by
	// sanity; we default to 200µs and 20ms (scaled to the µs–ms world the
	// simulated applications run in — a penalty below the applications'
	// wait-loop poll interval cannot open a usable window).
	MinPenalty time.Duration
	MaxPenalty time.Duration

	// FixedPenalty, when non-zero, disables the adaptive policies and
	// always applies this length (the Table 4 comparison mode).
	FixedPenalty time.Duration

	// DisablePBoxLevel turns off the end-of-activity average monitor,
	// leaving only Algorithm 1's per-resource detection.
	DisablePBoxLevel bool

	// DisableDetection turns the manager into a pure tracer: events are
	// accounted but no actions are taken. Used to measure tracing
	// overhead in isolation.
	DisableDetection bool

	// EventFilter, when set, is consulted on every Update; returning
	// false drops the event. The mistake-tolerance experiment
	// (Section 6.8) uses it to remove a fraction of update_pbox calls.
	EventFilter func(key ResourceKey, ev EventType) bool

	// TraceSize, when positive, enables the in-memory trace ring of that
	// capacity: the observer stream as Records, read with TraceView.
	TraceSize int

	// Observer, when non-nil, receives live notifications of manager
	// activity (see the Observer interface). The nil default keeps every
	// event path allocation-free. An Observer that also implements
	// AttributionObserver additionally receives the per-triple attribution
	// stream.
	Observer Observer

	// Attribution, when true, maintains the per-(culprit, victim,
	// resource) interference ledger (see AttributionRecord). Disabled it
	// costs one nil check per site and zero allocations.
	Attribution bool
}

func (o Options) withDefaults() Options {
	if o.Now == nil {
		o.Now = exec.Now
	}
	if o.Sleep == nil {
		o.Sleep = exec.SleepPrecise
	}
	if o.MinPenalty <= 0 {
		o.MinPenalty = 200 * time.Microsecond
	}
	if o.MaxPenalty <= 0 {
		o.MaxPenalty = 20 * time.Millisecond
	}
	return o
}

// Manager is the pBox manager: it tracks every pBox's execution, receives
// state events, runs the interference detection of Algorithm 1, and applies
// penalty actions (Section 4.4). One Manager corresponds to the kernel-side
// component of the paper; an application process creates exactly one.
//
// Concurrency (DESIGN.md §8): the manager has no global event lock. The
// event hot path takes the calling pBox's own mutex plus the lock stripe of
// the one resource involved, so events from different pBoxes on different
// resources proceed fully in parallel. Only the cold verdict path — an
// UNHOLD that found waiters, or the freeze-time monitor deciding to act —
// serializes on verdictMu, which also guards the action history and the
// attribution ledger. The documented lock order is
//
//	snap → eventSpool.mu → registry → pbox.mu → shard.mu → verdictMu →
//	leaves (actMu, penMu, the trace ring's stripe and notify mutexes, …)
//
// and a shard lock is never held while acquiring the registry lock. The calls
// an application goroutine makes per activity — Activate, Freeze,
// Worker.Update, Worker.Flush — take no manager-wide lock (Release takes
// only the registry's, to unregister); on a traced manager they take the
// pBox's own stripe of the ring, a leaf shared only with the pBoxes of that
// stripe: for the Activate row, per run of state rows (emitStates) and per
// Freeze, its last run included. Freeze holds the hinted
// spool's mutex across the transition, as the order permits. What they count
// lands on the pBox's stripe of the counters; on a traced manager they also
// advance the ring's sequence, one atomic add per stripe acquisition.
// Manager state is read through the epoch snapshot (StatusView, DESIGN.md
// §12); only the view rebuild stops the world.
type Manager struct {
	// stripes hold what every tenant counts on its own path. crossings are
	// conceptual user/kernel boundary crossings: every manager entry point adds
	// one (cross), and a flush adds its batch's events (eventSpool.emptied). The
	// lazy-unbind optimization (Section 5) is validated by this count going
	// down. flushes and flushedEvents are the spool flush counts, states the
	// state rows delivered, by kind, one add per kind a run carries
	// (emitStates), and exec and deferral every Freeze's activity times
	// (SelfStats). Every direct event and every lifecycle call from every
	// thread writes them, so they are striped by pBox id, whole lines per
	// stripe. They come first: a Manager is a large allocation, so they start
	// on a line boundary and no stripe shares a line with another, nor with
	// the observer pointers below, read on every event
	// (BenchmarkManagerDisjointResources, BenchmarkActivityCycle/g=2).
	stripes [counterStripes]counterStripe

	opts Options

	// reg is the pBox registry: id allocation, the live-pBox table, and
	// the unbind-key associations of the event-driven model. All registry
	// operations (Create, Release, Associate, Bind lookups) are cold
	// relative to the event path.
	reg struct {
		sync.Mutex
		nextID   int
		pboxes   map[int]*PBox
		bindings map[uintptr]*PBox
	}

	// shards is the stripe topology for resource-side state, built by
	// NewManager (defaultShardCount stripes) and immutable afterwards.
	shards shardSet

	// contention is the per-resource claim/contended slot table of the
	// two-tier ingestion path (see spool.go): 0 untouched, >0 the id of
	// the single pBox spooling fast-path events for keys hashing here,
	// -1 contended (slow path only, sticky). Embedded by value: the hot
	// path indexes it straight off the manager pointer (see
	// contentionTable in spool.go).
	contention contentionTable

	// verdictMu is the cold-path epoch lock: it serializes detection
	// verdicts and penalty scheduling so the multi-pBox view Algorithm 1
	// compares (victim ratios against noisy state) is consistent, and it
	// guards actions and attr. It is only ever taken when contention has
	// already been observed, so it cannot become the scaling bottleneck
	// the old global mutex was.
	verdictMu sync.Mutex
	actions   *actionHistory
	// attr is the interference attribution ledger (nil unless
	// Options.Attribution).
	attr *attributionLedger

	// snap is the epoch-published snapshot state of the zero-interference
	// read path (DESIGN.md §12): view holds the current immutable
	// StatusView, swapped whole by rebuilds. The embedded mutex
	// single-flights rebuilds and is the outermost lock of the §8 order —
	// a rebuild sweeps the spools and stops the world under it, and nothing
	// that holds any manager lock may acquire it.
	snap struct {
		sync.Mutex
		view atomic.Pointer[StatusView]
	}

	// self is the manager's self-telemetry: lock-free counters about the
	// manager's own overhead (snapshot builds, spool flushes, contention
	// claims, shard-lock traffic, verdict latency). See SelfStats.
	self selfCounters
	// self ends in the verdict histogram, written on every verdict; what follows
	// is read on every event (pad_test.go holds the two a line apart).
	_ cacheLinePad

	trace *traceRing // when enabled, the first sink of the obs chain
	obs   Observer
	// attrObs is obs's AttributionObserver side, cached at
	// construction so hook sites pay a nil check instead of a type assert.
	attrObs AttributionObserver
}

const counterStripes = 8

// counterStripe is one stripe of Manager.stripes: the event counters on its
// first line, then the activity histograms, padded to whole lines.
type counterStripe struct {
	crossings, flushes, flushedEvents atomic.Int64
	states                            [eventKinds]atomic.Int64 // indexed by EventType
	exec, deferral                    histogram                // latencyBounds
	_                                 [(cacheLineSize - counterStripeWords*8%cacheLineSize) % cacheLineSize]byte
}

// counterStripeWords is the words counterStripe holds before its padding.
const counterStripeWords = 3 + eventKinds + 2*(2+latencyBuckets)

// eventKinds is the number of EventTypes (Prepare … Unhold).
const eventKinds = 4

// stripe returns the counter stripe of pBox id.
//
//pbox:hotpath
func (m *Manager) stripe(id int) *counterStripe { return &m.stripes[id&(counterStripes-1)] }

// endActivity counts a finished activity's deferring and execution times.
//
//pbox:hotpath
func (s *counterStripe) endActivity(td, te int64) {
	s.exec.observe(latencyBounds, te)
	if td > 0 {
		s.deferral.observe(latencyBounds, td)
	}
}

// cross counts one crossing on the stripe of pBox id.
//
//pbox:hotpath
func (m *Manager) cross(id int) { m.stripe(id).crossings.Add(1) }

// noStamp is the at of an unstamped call: clock reads Options.Now in its place.
const noStamp = math.MinInt64

// Now reads the manager clock (Options.Now): the time base of every At form.
func (m *Manager) Now() int64 { return m.opts.Now() }

// clock resolves a call's stamp: the caller's, or the manager clock now.
//
//pbox:hotpath
func (m *Manager) clock(at int64) int64 {
	if at == noStamp {
		return m.opts.Now()
	}
	return at
}

// NewManager creates a manager with the given options.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{
		opts:    opts,
		actions: newActionHistory(),
		obs:     opts.Observer,
	}
	m.reg.pboxes = make(map[int]*PBox)
	m.reg.bindings = make(map[uintptr]*PBox)
	m.shards = newShardSet(defaultShardCount())
	if opts.TraceSize > 0 {
		// The ring is fed like every other sink: by the one adapter.
		m.trace = newTraceRing(opts.TraceSize, opts.Now)
		m.obs = &RecordObserver{Sink: m.trace, Next: opts.Observer}
	}
	if ao, ok := m.obs.(AttributionObserver); ok {
		m.attrObs = ao
	}
	if opts.Attribution {
		m.attr = newAttributionLedger()
	}
	return m
}

// ShardCount returns the number of resource-side lock stripes, fixed at
// NewManager (see defaultShardCount).
func (m *Manager) ShardCount() int { return len(m.shards.shards) }

// SpoolCapacity returns the capacity every Worker spool is sized to: a
// constant, reported so operators can read flush counts against it.
func (m *Manager) SpoolCapacity() int { return spoolCapacity }

// ErrReleased is returned when an operation references a destroyed pBox.
var ErrReleased = errors.New("pbox: operation on released pBox")

// Create creates a pBox with the given isolation rule (create_pbox). The
// pBox starts in StateStarted; no tracing happens until Activate.
func (m *Manager) Create(rule IsolationRule) (*PBox, error) {
	if !rule.Valid() {
		return nil, fmt.Errorf("pbox: invalid isolation rule %+v", rule)
	}
	// The event-structural maps are allocated lazily at the first Activate,
	// so a registered pBox that never runs an activity costs only the
	// struct itself.
	p := &PBox{rule: rule, mgr: m}
	m.reg.Lock()
	m.reg.nextID++
	p.id = m.reg.nextID
	m.reg.pboxes[p.id] = p
	m.reg.Unlock()
	m.cross(p.id)
	m.self.created.Add(1)
	if m.obs != nil {
		m.obs.PBoxCreated(p.id, rule)
	}
	return p, nil
}

// Release destroys the pBox (release_pbox), removing it from every
// bookkeeping structure. Pending penalties are discarded: the activity they
// would have delayed no longer exists.
func (m *Manager) Release(p *PBox) error {
	// Flush spooled records first: events buffered before the release must
	// reach the books (or be dropped by the replay's state check) before
	// the pBox's shard-side state is torn down.
	m.cross(p.id)
	p.flushHinted()
	p.mu.Lock()
	if p.stateIs(StateDestroyed) {
		p.mu.Unlock()
		return ErrReleased
	}
	p.setState(StateDestroyed)
	m.dropWaits(p)
	for key := range p.holders {
		s := m.lockShard(key)
		s.competitors[key].holders--
		s.mu.Unlock()
	}
	// Clear in place rather than allocating a fresh map: the pBox is dead,
	// so the release path should shed work, not create garbage.
	clear(p.holders)
	p.mu.Unlock()
	m.reg.Lock()
	if p.hasBoundKey {
		if m.reg.bindings[p.boundKey] == p {
			delete(m.reg.bindings, p.boundKey)
		}
		p.hasBoundKey = false
	}
	delete(m.reg.pboxes, p.id)
	m.reg.Unlock()
	m.self.released.Add(1)
	if m.obs != nil {
		m.obs.PBoxReleased(p.id)
	}
	return nil
}

// Hibernate does nothing and returns nil: a frozen pBox is the only idle
// state.
//
// Deprecated: kept for benchmark/ until ROADMAP item 7.
func (m *Manager) Hibernate(p *PBox) error { return nil }

// Activate starts tracing a new activity in the pBox (activate_pbox). If the
// pBox carries a pending penalty from a previous activity that could not be
// applied in time, it is served now, before the activity clock starts, so
// the penalty delays the noisy pBox without polluting its own metrics.
func (m *Manager) Activate(p *PBox) { m.ActivateAt(p, noStamp) }

// ActivateAt is Activate with the activity's start supplied by the caller — a
// manager-clock time (Now) at which the call was known issued, as a wire frame's
// arrival is for every op in it — instead of read after any served penalty.
func (m *Manager) ActivateAt(p *PBox, at int64) {
	// Stragglers spooled after the previous freeze belong to no active
	// window; flush them now (the replay drops them) so the new activity
	// starts with an empty spool.
	m.cross(p.id)
	p.flushHinted()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stateIs(StateDestroyed) {
		return
	}
	if pen := m.safePoint(p); pen > 0 {
		p.mu.Unlock()
		m.sleepPenalty(p, pen)
		p.mu.Lock()
		if p.stateIs(StateDestroyed) {
			return
		}
	}
	if p.holders == nil {
		p.holders = make(map[ResourceKey]holdInfo)
	}
	if p.preparing == nil {
		p.preparing = make(map[ResourceKey]int)
	}
	p.setState(StateActive)
	now := m.clock(at)
	p.activityStart.Store(now)
	p.actMu.Lock()
	p.deferTime = 0
	p.blame = nil
	p.actMu.Unlock()
	if m.obs != nil {
		m.obs.PBoxActivated(p.id, now)
	}
}

// Freeze stops tracing the pBox's current activity (freeze_pbox), folds the
// activity into the pBox's history, and runs the pBox-level interference
// monitor (Section 4.3.1): if the aggregate interference level reaches 90%
// of the goal, the manager takes action against the most
// recent blocker at the end of the activity.
func (m *Manager) Freeze(p *PBox) { m.FreezeAt(p, noStamp) }

// FreezeAt is Freeze with the activity's end supplied by the caller (see
// ActivateAt) instead of read once the spool is flushed.
func (m *Manager) FreezeAt(p *PBox, at int64) {
	// Fold spooled events into the activity, in place under the p.mu hold that
	// closes it (the monitor below must see the full deferring time), and keep
	// the spool locked until the batch's last rows and the freeze's are out.
	m.cross(p.id)
	sp := p.spool.Load()
	if sp != nil {
		sp.mu.Lock()
		if sp.pbox != p { // a stale hint: p's batch is already flushed
			sp.mu.Unlock()
			sp = nil
		}
	}
	p.mu.Lock()
	if !p.stateIs(StateActive) {
		if sp != nil {
			sp.emptied() // a batch for a closed window is dropped, as replay drops it
			sp.mu.Unlock()
		}
		p.mu.Unlock()
		return
	}
	var run []spoolRec
	if sp != nil {
		run = m.replayBatch(p, sp.recs[:sp.n])
	}
	now := m.clock(at)
	p.setState(StateFrozen)
	// An end before the start (the clock stepped back; a stale stamp): empty.
	te := max(now-p.activityStart.Load(), 0)

	// Fold the activity into the history and, in the same actMu hold, let the
	// pBox-level monitor judge it and pick its target: the largest contributor
	// to this pBox's deferring time. The action itself is taken after actMu
	// is released — verdictMu is never acquired while holding a leaf lock.
	p.actMu.Lock()
	td := min(p.deferTime, te)
	p.recordActivityLocked(td, te)
	m.stripe(p.id).endActivity(td, te)
	var noisy *PBox
	var info blameInfo
	level, act := m.opts.monitor(p.rule, p.totalDefer, p.totalExec, p.history)
	if act {
		// Equal contributors: the lower id, so the verdict does not depend
		// on map iteration order (replay determinism, DESIGN.md §11).
		for b, bi := range p.blame {
			if b != p && !b.stateIs(StateDestroyed) && (bi.deferNs > info.deferNs ||
				bi.deferNs == info.deferNs && noisy != nil && b.id < noisy.id) {
				noisy, info = b, bi
			}
		}
	}
	p.actMu.Unlock()
	if m.obs != nil {
		m.emitStates(p, run, &freezeRows{at: now, deferNs: td, execNs: te})
	}
	if sp != nil {
		sp.emptied()
		sp.mu.Unlock()
	}
	// PREPAREs that never saw their ENTER (the activity bailed out of a wait
	// loop) end with the activity.
	m.dropWaits(p)
	if noisy != nil {
		t0 := m.enterVerdict()
		m.takeActionVerdict(noisy, p, info.key, now, info.deferNs, level)
		m.leaveVerdict(t0)
	}
	// Serve this pBox's own pending penalty (scheduled while it held
	// resources) now that its activity is over — unless it still holds
	// resources across activities (e.g. transaction locks spanning
	// statements), in which case the delay must keep waiting.
	pen := m.safePoint(p)
	p.mu.Unlock()
	if pen > 0 {
		m.sleepPenalty(p, pen)
	}
}

// dropWaits removes every wait record p still has: the shard-side waiter
// records first, then the map in one sweep. Caller holds p.mu.
func (m *Manager) dropWaits(p *PBox) {
	for key := range p.preparing {
		s := m.lockShard(key)
		s.competitors[key].removeAllFor(p)
		s.mu.Unlock()
	}
	clear(p.preparing)
}

// Update is the update_pbox API: the application informs the manager of a
// state event about virtual resource key in pBox p. It runs Algorithm 1 and
// may execute a penalty delay on the calling goroutine (which is, by
// construction, the goroutine running p's activity) before returning.
//
// This is the hot path. A pBox outside an active window is rejected with a
// single atomic load — no lock at all. An accepted event takes p's own
// mutex and the lock stripe of key; two pBoxes updating unrelated resources
// share nothing but atomic counters.
//
//pbox:hotpath
func (m *Manager) Update(p *PBox, key ResourceKey, ev EventType) {
	// The filter runs before anything else — a dropped event must do no
	// slot, spool, or shard work at all, or a filtered UNHOLD could flip
	// the contended flag for an event that never applies.
	if m.opts.EventFilter != nil && !m.opts.EventFilter(key, ev) {
		return
	}
	m.updateSlow(p, key, ev, noStamp)
}

// updateSlow is Update past the filter: the Tier B slow path, shared with
// Worker.UpdateAt's contended hand-off (which has already filtered).
//
//pbox:hotpath
func (m *Manager) updateSlow(p *PBox, key ResourceKey, ev EventType, at int64) {
	m.cross(p.id)
	// Lock-free fast reject: events outside an active window are ignored,
	// matching the manager tracing only between activate and freeze.
	if !p.stateIs(StateActive) {
		return
	}
	// Two-tier handshake: a direct slow-path event may create cross-pBox
	// overlap, so any fast-path claim on this key's slot is revoked and the
	// claimant's spooled records replayed before this event lands (spool.go).
	m.markContended(key)
	// From here the event is a batch of one: replay emits its state row at
	// the time its arm uses, runs the arm under the key's stripe, and makes
	// the safe-point check — a penalty scheduled for p (by this event's
	// detection pass or an earlier one) can run only when p holds nothing
	// and waits for nothing, so delaying it cannot defer anyone else or
	// inflate p's own deferring time.
	one := [1]spoolRec{{key: key, ev: ev, at: m.clock(at)}}
	if pen := m.replay(p, one[:], true); pen > 0 {
		m.sleepPenalty(p, pen)
	}
}

// freezeRows are a Freeze's freeze row (at) and activity_end row.
type freezeRows struct{ at, deferNs, execNs int64 }

// emitStates is the one state-event delivery: a run of p's events, in order,
// then a Freeze's two rows if fr is set, to the trace ring under one lock of
// p's stripe, then to the user's observer, one callback each (m.obs, the
// ring's adapter, would lock the stripe per row; it carries every other kind).
// Each carries the time its arm uses — issue time for a direct Update,
// recorded time for a replay — so a capture log replayed at those times
// reproduces the arms' arithmetic. The run's rows are counted by kind on p's
// stripe of the counters, one add per kind present (SelfStats.StateEvents). A
// plain run is non-empty and precedes its last event's arm; caller holds p.mu.
//
//pbox:hotpath
func (m *Manager) emitStates(p *PBox, run []spoolRec, fr *freezeRows) {
	if m.trace != nil {
		m.trace.recordRun(p.id, run, fr)
	}
	var kinds [eventKinds]int64
	for i := range run {
		if k := uint(run[i].ev); k < eventKinds {
			kinds[k]++
		}
	}
	s := m.stripe(p.id)
	for k, n := range kinds {
		if n > 0 {
			s.states[k].Add(n)
		}
	}
	if o := m.opts.Observer; o != nil {
		for i := range run {
			o.StateEventAt(p.id, run[i].key, run[i].ev, run[i].at)
		}
		if fr != nil {
			o.PBoxFrozen(p.id, fr.at)
			o.ActivityEnd(p.id, fr.deferNs, fr.execNs)
		}
	}
}

// applyArmLocked dispatches one event to its Algorithm 1 arm. Caller holds
// p.mu and s.mu, where s is key's shard — the arms take the shard from the
// caller so a spool replay can hold one shard lock across a run of
// same-shard records instead of re-acquiring it per event.
//
//pbox:hotpath
func (m *Manager) applyArmLocked(p *PBox, s *shard, key ResourceKey, ev EventType, now int64) {
	switch ev {
	case Prepare:
		m.onPrepare(p, s, key, now)
	case Enter:
		m.onEnter(p, s, key, now)
	case Hold:
		m.onHold(p, s, key, now)
	case Unhold:
		m.onUnhold(p, s, key, now)
	}
}

// onPrepare implements the PREPARE arm of Algorithm 1: note the pBox in the
// competitor map for the resource. Caller holds p.mu and s.mu.
func (m *Manager) onPrepare(p *PBox, s *shard, key ResourceKey, now int64) {
	s.resource(key).add(waiter{pbox: p, since: now})
	p.preparing[key]++
}

// onEnter implements the ENTER arm: the deferred state ends and the
// deferring time is folded into the pBox's activity accounting. Caller
// holds p.mu and s.mu.
func (m *Manager) onEnter(p *PBox, s *shard, key ResourceKey, now int64) {
	var w waiter
	var ok bool
	if cl := s.competitors[key]; cl != nil {
		w, ok = cl.removeFor(p)
	}
	if !ok {
		return
	}
	if p.preparing[key] > 1 {
		p.preparing[key]--
	} else {
		delete(p.preparing, key)
	}
	defer_ := now - w.since
	if defer_ < 0 {
		defer_ = 0
	}
	p.actMu.Lock()
	p.deferTime += defer_
	p.actMu.Unlock()
}

// onHold implements the HOLD arm: record the pBox in the holder map.
// holdInfo is stored by value: the hold/unhold cycle is the hottest hook
// path, and a pointer entry would allocate on every re-acquisition. Caller
// holds p.mu and s.mu.
func (m *Manager) onHold(p *PBox, s *shard, key ResourceKey, now int64) {
	h, held := p.holders[key]
	if !held {
		p.holders[key] = holdInfo{count: 1, since: now}
		s.resource(key).holders++
		return
	}
	h.count++
	p.holders[key] = h
}

// onUnhold implements the UNHOLD arm of Algorithm 1: if the pBox was the
// holder, scan the waiting pBoxes, estimate each waiter's interference
// level with the worst-case projection tf = td/(te-td), and if a waiter's
// goal is endangered and this pBox held the resource before the waiter
// arrived, identify (noisy=p, victim=waiter) and take action. Caller holds
// p.mu and s.mu; with no waiters present this releases only shard state —
// the verdict lock is touched exclusively when contention already happened.
func (m *Manager) onUnhold(p *PBox, s *shard, key ResourceKey, now int64) {
	h, held := p.holders[key]
	if !held {
		return
	}
	if h.count > 1 {
		h.count--
		p.holders[key] = h
		return
	}
	delete(p.holders, key)
	cl := s.competitors[key]
	cl.holders--
	if len(cl.waiters) == 0 {
		return
	}
	// Cold verdict path: waiters exist, so this release must attribute
	// blame and may take action.
	t0 := m.enterVerdict()
	m.settleWaiters(p, cl, key, h.since, now)
	m.leaveVerdict(t0)
}

// enterVerdict takes verdictMu, which serializes the multi-pBox view a verdict
// compares, and starts the section's clock; leaveVerdict(t0) ends both. The
// section is timed (real clock) into the self-telemetry verdict-latency
// histogram — lock wait included, since that wait is exactly the cross-pBox
// cost the histogram exists to expose.
func (m *Manager) enterVerdict() (t0 int64) {
	t0 = exec.Now()
	m.verdictMu.Lock()
	return t0
}

func (m *Manager) leaveVerdict(t0 int64) {
	m.verdictMu.Unlock()
	m.self.verdictLatency.observe(verdictBounds, exec.Now()-t0)
}

// settleWaiters runs the blame and detection passes over key's waiter list
// after p released the hold it had since heldSince: gather each waiter's books
// one leaf lock at a time, let judgeWait decide, apply. Caller holds p.mu, the
// key's shard lock, and verdictMu.
func (m *Manager) settleWaiters(p *PBox, cl *competitorList, key ResourceKey, heldSince, now int64) {
	// Attribute to this holder the part of each waiter's wait that its
	// hold overlapped, for the pBox-level monitor's blame accounting.
	for i := range cl.waiters {
		c := &cl.waiters[i]
		if ov := overlap(c.since, heldSince, now); ov > 0 {
			v := c.pbox
			v.actMu.Lock()
			if v.blame == nil {
				v.blame = make(map[*PBox]blameInfo)
			}
			v.blame[p] = blameInfo{deferNs: v.blame[p].deferNs + ov, key: key}
			v.actMu.Unlock()
			if e := m.attrVerdict(p, v, key); e != nil {
				e.blockedNs += ov
			}
			if m.attrObs != nil {
				m.attrObs.Blocked(p.id, v.id, key, ov)
			}
		}
	}
	for i := range cl.waiters {
		c := &cl.waiters[i]
		victim := c.pbox
		if victim == p || !victim.stateIs(StateActive) {
			continue
		}
		victim.actMu.Lock()
		deferred := victim.deferTime
		victim.actMu.Unlock()
		v := m.opts.judgeWait(c.since, heldSince, now, victim.activityStart.Load(), deferred, victim.rule.Level)
		if v.act {
			m.takeActionVerdict(p, victim, key, now, v.overlap, v.level)
		}
		// Futex-style re-arm (§5.2a): a release wakes the waiters; one that
		// fails to enter re-queues with a fresh wait record (what the kernel
		// implementation observes by tracing futex, Section 7). The elapsed
		// wait folds into the activity's deferring time, and the fresh
		// timestamp makes a holder that re-acquires past the sleeping waiter
		// blameable at its next release.
		victim.actMu.Lock()
		victim.deferTime += v.waited
		victim.actMu.Unlock()
		// Monotonic guard: a spool-replayed release carries its recorded
		// (possibly older) timestamp; the re-arm must never move a wait
		// record backwards in time, or a later real release would double
		// count the wait.
		c.since = max(c.since, now)
	}
}

// safePoint consumes p's pending penalty if p is at a safe point — it holds
// nothing and waits for nothing, so a delay can neither defer anyone else nor
// count as p's own deferring time — and returns what the caller must sleep
// once it holds no lock. Caller holds p.mu. The pending attribution triple is
// copied aside for the serve that follows, so a new action scheduled between
// the consume and the sleep cannot misattribute the served time.
//
//pbox:hotpath
func (m *Manager) safePoint(p *PBox) time.Duration {
	if p.pendingPenalty.Load() <= 0 || len(p.holders) > 0 || len(p.preparing) > 0 {
		return 0
	}
	p.penMu.Lock()
	defer p.penMu.Unlock()
	pen := p.pendingPenalty.Load()
	if pen <= 0 {
		return 0
	}
	p.pendingPenalty.Store(0)
	p.servingAttrVictim = p.pendingAttrVictim
	p.servingAttrKey = p.pendingAttrKey
	if p.sharedThread {
		// Shared-thread pBoxes are never slept directly; instead their
		// next activities wait in the task queue until the deadline.
		until := m.opts.Now() + pen
		if until > p.penaltyUntil {
			p.penaltyUntil = until
		}
		return 0
	}
	return time.Duration(pen)
}

// sleepPenalty executes a penalty delay on the calling goroutine (the noisy
// pBox's own goroutine) and accounts it. Caller holds no locks.
func (m *Manager) sleepPenalty(p *PBox, d time.Duration) {
	p.penMu.Lock()
	p.penaltiesReceived++
	p.penaltyTotal += int64(d)
	victimID, key := p.servingAttrVictim, p.servingAttrKey
	p.penMu.Unlock()
	if m.attr != nil {
		m.verdictMu.Lock()
		if e := m.attrByIDVerdict(p.id, victimID, key); e != nil {
			e.servedNs += int64(d)
		}
		m.verdictMu.Unlock()
	}
	m.opts.Sleep(d)
	m.self.penaltyServed.observe(latencyBounds, int64(d))
	if m.obs != nil {
		m.obs.PenaltyServed(p.id, d)
	}
	if m.attrObs != nil {
		m.attrObs.PenaltyServedFor(p.id, victimID, key, d)
	}
	// The sleep inflates the pBox's execution time but adds no deferring
	// time, so its own interference level tf = td/(te-td) strictly drops.
	// That is the cascade-avoidance property of Section 4.4.1: a goal
	// violation caused by the penalty itself never reads as interference
	// and never triggers further actions on the penalized pBox's behalf.
}

// MarkShared marks the pBox as running on shared worker threads: penalties
// become requeue deadlines (see Worker.Bind and PenaltyWait) instead of
// direct delays, so a penalty never stalls the thread other pBoxes share.
func (m *Manager) MarkShared(p *PBox) { m.SetShared(p, true) }

// SetShared sets the pBox's shared-thread marking explicitly. Worker binds
// maintain the marking implicitly; SetShared exists for applications that
// manage the flag directly and for replay-time injection (internal/capture
// re-applies recorded marking flips to a fresh manager). It is a flush
// trigger: the spool the pBox's hint names is replayed first, so the `shared`
// row never precedes state rows the pBox issued before the flip. The crossing
// is not counted (Worker binds call this as library work). On a released
// pBox it does nothing: `release` is a pBox's last record. The check and the
// callback run under p.mu, which Release holds to destroy the pBox, so a
// racing Release comes wholly before or after the flip; the callback also
// runs under the leaf p.penMu, so the usual no-reentry rules apply.
func (m *Manager) SetShared(p *PBox, shared bool) {
	p.flushHinted()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stateIs(StateDestroyed) {
		return
	}
	p.penMu.Lock()
	defer p.penMu.Unlock()
	if p.sharedThread == shared {
		return
	}
	p.sharedThread = shared
	if m.obs != nil {
		m.obs.PBoxSharedChanged(p.id, shared)
	}
}

// Crossings returns the number of conceptual kernel crossings so far, summed
// over the stripes.
//
//pbox:snapshotreader
func (m *Manager) Crossings() int64 {
	var n int64
	for i := range m.stripes {
		n += m.stripes[i].crossings.Load()
	}
	return n
}

// NameResource registers a human-readable name for a virtual-resource key,
// so traces and telemetry print "bufpool" instead of a raw pointer value.
// An empty name removes the registration. Names live under their shard's
// dedicated name lock, so ResourceName is safe to call from Observer hook
// callbacks.
func (m *Manager) NameResource(key ResourceKey, name string) {
	s := m.shardFor(key)
	s.namesMu.Lock()
	defer s.namesMu.Unlock()
	if name == "" {
		delete(s.names, key)
		return
	}
	if s.names == nil {
		s.names = make(map[ResourceKey]string)
	}
	s.names[key] = name
}

// ResourceName returns the registered name for key ("" when unnamed).
// It takes only the owning shard's name lock, so Observer implementations
// may call it from inside hook callbacks.
func (m *Manager) ResourceName(key ResourceKey) string {
	s := m.shardFor(key)
	s.namesMu.RLock()
	name := s.names[key]
	s.namesMu.RUnlock()
	return name
}

// SetLabel attaches a diagnostic label to the pBox (connection name,
// background-task name). Labels appear in StatusView snapshots and telemetry.
func (m *Manager) SetLabel(p *PBox, label string) {
	p.label.Store(&label)
}
