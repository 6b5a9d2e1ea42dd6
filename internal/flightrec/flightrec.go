// Package flightrec is the flight recorder of the pBox reproduction: a
// bounded in-memory ring of recent manager events that freezes into a JSON
// incident bundle when a detection verdict fires (or when an operator asks).
// Metrics say interference is happening and the attribution ledger says who
// is doing it; the flight recorder preserves the moments around a specific
// verdict — the event sequence, the culprit/victim accounting, and the
// Algorithm 1 inputs (defer ratios, projected interference vs. goal) — so an
// incident can be diagnosed after the fact without having had a trace
// subscription open (the post-hoc half of the paper's Section 8 diagnosis
// story).
//
// The Recorder implements core.Observer (and core.AttributionObserver) and
// chains to a next Observer, so it stacks in front of the telemetry
// Collector. Hook-path discipline matches the rest of the reproduction:
// recording an event writes one preallocated ring slot under a short
// recorder-local mutex and never allocates; a verdict capture is a
// per-culprit cooldown check plus a non-blocking channel send. Bundles are
// built and written by a background goroutine that refreshes the manager's
// epoch-published snapshot (so the verdict that fired, and every spooled
// event issued before the capture, is visible) outside any hook, so a dump
// can never block the penalty path. Captures are cooldown-limited and manual
// dumps operator-rate, so the stop-the-world rebuild each one costs stays
// rare.
package flightrec

import (
	"sync"
	"sync/atomic"
	"time"

	"pbox/internal/core"
)

// EventKind classifies a ring entry.
type EventKind uint8

const (
	// KindState is an update_pbox state event (PREPARE/ENTER/HOLD/UNHOLD).
	KindState EventKind = iota
	// KindActivityEnd is a freeze_pbox with the activity's defer/exec time.
	KindActivityEnd
	// KindDetection is an Algorithm 1 (or pBox-level monitor) verdict.
	KindDetection
	// KindAction is a scheduled penalty.
	KindAction
	// KindServed is a served penalty delay.
	KindServed
	// KindBlocked is an attributed hold-over-wait overlap.
	KindBlocked
	// KindCreated and KindReleased are pBox lifecycle events.
	KindCreated
	// KindReleased marks release_pbox.
	KindReleased
)

// String returns the wire name of the kind.
func (k EventKind) String() string {
	switch k {
	case KindState:
		return "state"
	case KindActivityEnd:
		return "activity_end"
	case KindDetection:
		return "detection"
	case KindAction:
		return "action"
	case KindServed:
		return "served"
	case KindBlocked:
		return "blocked"
	case KindCreated:
		return "created"
	case KindReleased:
		return "released"
	default:
		return "unknown"
	}
}

// event is one compact ring slot. Fields are overloaded per kind; the wire
// form (incident.go) renders only the meaningful ones. No pointers, no
// strings — recording must not allocate.
type event struct {
	seq    uint64
	atUnix int64 // wall-clock ns, stamped at delivery (for a spooled event: flush time)
	atMgr  int64 // manager-clock ns of the event itself (state events via StateEventAt)
	kind   EventKind
	state  core.EventType
	pbox   int // acting pBox (culprit for detection/action/blocked)
	victim int
	key    core.ResourceKey
	extra  int64 // defer/penalty/blocked ns, per kind
	policy core.PolicyKind
	level  float64 // projected interference level (detection)
}

// ring is a fixed-capacity event buffer with preallocated slots.
type ring struct {
	mu     sync.Mutex
	events []event
	pos    int
	full   bool
	seq    uint64
}

func newRing(n int) *ring {
	return &ring{events: make([]event, n)}
}

func (r *ring) add(e event) {
	r.mu.Lock()
	r.seq++
	e.seq = r.seq
	r.events[r.pos] = e
	r.pos = (r.pos + 1) % len(r.events)
	if r.pos == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// tail returns the ring contents oldest first. Called off the hook path;
// the copy is O(ring size) and aliases nothing.
func (r *ring) tail() []event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]event, r.pos)
		copy(out, r.events[:r.pos])
		return out
	}
	out := make([]event, 0, len(r.events))
	out = append(out, r.events[r.pos:]...)
	out = append(out, r.events[:r.pos]...)
	return out
}

// capture is one queued incident-build job.
type capture struct {
	trigger   string // "detection" or "manual"
	reason    string // operator-supplied, for manual dumps
	culprit   int
	victim    int
	key       core.ResourceKey
	projected float64
	atUnix    int64
	reply     chan string // non-nil for manual dumps: receives the incident id
}

// Config parameterizes a Recorder. The zero value of every field selects a
// sensible default except Dir, which is required.
type Config struct {
	// Dir is the incidents directory; bundles are written as
	// incident-<id>.json inside it. Created on first write if missing.
	Dir string
	// RingSize is the event-ring capacity (default 1024).
	RingSize int
	// Cooldown is the minimum spacing between verdict-triggered captures
	// blaming the same culprit (default 2s). A detection storm produces one
	// bundle per culprit per cooldown window, not one per verdict — and a
	// chatty culprit cannot starve captures of a rarer one. Manual dumps
	// ignore it.
	Cooldown time.Duration
	// Retention caps how many bundles are kept on disk (default 32);
	// oldest are pruned after each write.
	Retention int
	// Next is the downstream observer (typically the telemetry Collector);
	// every hook is forwarded to it after recording. May be nil.
	Next core.Observer
}

const (
	defaultRingSize  = 1024
	defaultCooldown  = 2 * time.Second
	defaultRetention = 32

	// maxCooldownEntries bounds the per-culprit cooldown map in daemons that
	// mint a pBox per connection. On overflow the map is reset; the worst
	// case is one early capture per culprit, never unbounded memory.
	maxCooldownEntries = 4096
)

// Recorder is the flight recorder. Create with New, pass as
// core.Options.Observer (or chain via Config.Next), then AttachManager once
// the manager exists, and Close when done.
type Recorder struct {
	cfg      Config
	ring     *ring
	next     core.Observer
	nextAttr core.AttributionObserver
	nextTime core.EventTimeObserver

	mgr    atomic.Pointer[core.Manager]
	capPos atomic.Value // CapturePosition, set by AttachCapture

	capMu       sync.Mutex
	lastCapture map[int]int64 // culprit id → unix ns of its last verdict capture
	dropped     atomic.Int64  // captures lost to a full queue

	jobs chan capture
	done chan struct{}

	idMu   sync.Mutex
	idSeq  int
	closed atomic.Bool
}

// New builds a Recorder and starts its writer goroutine.
func New(cfg Config) *Recorder {
	if cfg.RingSize <= 0 {
		cfg.RingSize = defaultRingSize
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = defaultCooldown
	}
	if cfg.Retention <= 0 {
		cfg.Retention = defaultRetention
	}
	r := &Recorder{
		cfg:         cfg,
		ring:        newRing(cfg.RingSize),
		next:        cfg.Next,
		lastCapture: make(map[int]int64),
		jobs:        make(chan capture, 8),
		done:        make(chan struct{}),
	}
	if ao, ok := cfg.Next.(core.AttributionObserver); ok {
		r.nextAttr = ao
	}
	if to, ok := cfg.Next.(core.EventTimeObserver); ok {
		r.nextTime = to
	}
	go r.writer()
	return r
}

// AttachManager supplies the manager whose Status the incident builder
// snapshots. Until it is called, bundles carry events only.
func (r *Recorder) AttachManager(m *core.Manager) {
	r.mgr.Store(m)
}

// CapturePosition is the slice of capture.Recorder the incident builder
// needs: the event log's current end. Declared here so flightrec does not
// depend on the capture package.
type CapturePosition interface {
	Position() (segment string, offset int64, queued int)
}

// AttachCapture links a capture event-log recorder (pboxd -record): every
// incident bundle from then on carries the log position at build time, so
// an operator can jump from a verdict to the replayable event stream
// around it (`pboxreplay cat`, then match the bundle's event_at
// timestamps).
func (r *Recorder) AttachCapture(p CapturePosition) {
	r.capPos.Store(p)
}

// Close stops the writer after draining queued captures. The Recorder keeps
// recording events after Close (hooks may still fire), but no further
// bundles are written.
func (r *Recorder) Close() {
	if r.closed.CompareAndSwap(false, true) {
		close(r.jobs)
		<-r.done
	}
}

// Dropped returns how many verdict captures were discarded because the
// writer queue was full.
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }

// Dump requests a manual incident bundle (the /flightrec/dump endpoint and
// pboxctl's dump path) and returns the incident id. It blocks until the
// bundle is written or the timeout elapses. Like every bundle it is built
// from a refreshed view, so events still sitting in worker spools when the
// dump was requested are reflected.
func (r *Recorder) Dump(reason string, timeout time.Duration) (string, error) {
	if r.closed.Load() {
		return "", errClosed
	}
	reply := make(chan string, 1)
	job := capture{
		trigger: "manual",
		reason:  reason,
		atUnix:  time.Now().UnixNano(),
		reply:   reply,
	}
	select {
	case r.jobs <- job:
	case <-time.After(timeout):
		return "", errBusy
	}
	select {
	case id := <-reply:
		if id == "" {
			return "", errWrite
		}
		return id, nil
	case <-time.After(timeout):
		return "", errBusy
	}
}

// record stores an event. Alloc-free: the slot is preallocated and the
// struct carries no heap references.
func (r *Recorder) record(e event) {
	e.atUnix = time.Now().UnixNano()
	r.ring.add(e)
}

// PBoxCreated implements core.Observer.
func (r *Recorder) PBoxCreated(id int, rule core.IsolationRule) {
	r.record(event{kind: KindCreated, pbox: id})
	if r.next != nil {
		r.next.PBoxCreated(id, rule)
	}
}

// PBoxReleased implements core.Observer.
func (r *Recorder) PBoxReleased(id int) {
	r.record(event{kind: KindReleased, pbox: id})
	if r.next != nil {
		r.next.PBoxReleased(id)
	}
}

// StateEvent implements core.Observer.
func (r *Recorder) StateEvent(pboxID int, key core.ResourceKey, ev core.EventType) {
	r.record(event{kind: KindState, state: ev, pbox: pboxID, key: key})
	if r.next != nil {
		r.next.StateEvent(pboxID, key, ev)
	}
}

// StateEventAt implements core.EventTimeObserver: every state event —
// direct or spool-replayed — arrives here carrying the manager-clock
// timestamp its bookkeeping used. The wall-clock stamp (record's atUnix)
// still marks delivery; the event time rides along so incident bundles
// distinguish when an event happened from when its batch drained. Forwarded
// timed when the next observer understands event time, plain otherwise.
func (r *Recorder) StateEventAt(pboxID int, key core.ResourceKey, ev core.EventType, atNs int64) {
	r.record(event{kind: KindState, state: ev, pbox: pboxID, key: key, atMgr: atNs})
	if r.nextTime != nil {
		r.nextTime.StateEventAt(pboxID, key, ev, atNs)
	} else if r.next != nil {
		r.next.StateEvent(pboxID, key, ev)
	}
}

// ActivityEnd implements core.Observer.
func (r *Recorder) ActivityEnd(pboxID int, deferNs, execNs int64) {
	r.record(event{kind: KindActivityEnd, pbox: pboxID, extra: deferNs})
	if r.next != nil {
		r.next.ActivityEnd(pboxID, deferNs, execNs)
	}
}

// shouldCapture applies the per-culprit cooldown and, when it allows a
// capture, stamps the culprit's slot. The map is keyed by culprit (not
// globally) so frequent low-grade verdicts between one pair cannot starve
// the recorder of a rarer, more damaging culprit's incident.
func (r *Recorder) shouldCapture(culprit int, now int64) bool {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	if last, ok := r.lastCapture[culprit]; ok && now-last < int64(r.cfg.Cooldown) {
		return false
	}
	if len(r.lastCapture) >= maxCooldownEntries {
		clear(r.lastCapture)
	}
	r.lastCapture[culprit] = now
	return true
}

// Detection implements core.Observer. Beyond recording, a verdict is the
// capture trigger: if the culprit's cooldown has passed, a build job is
// queued for the writer goroutine. The hook itself does a map check under a
// recorder-local mutex and a non-blocking send — it cannot block the manager
// lock or the penalty path.
func (r *Recorder) Detection(noisyID, victimID int, key core.ResourceKey, projected float64) {
	now := time.Now().UnixNano()
	r.record(event{kind: KindDetection, pbox: noisyID, victim: victimID, key: key, level: projected})
	if r.shouldCapture(noisyID, now) && !r.closed.Load() {
		select {
		case r.jobs <- capture{
			trigger:   "detection",
			culprit:   noisyID,
			victim:    victimID,
			key:       key,
			projected: projected,
			atUnix:    now,
		}:
		default:
			r.dropped.Add(1)
		}
	}
	if r.next != nil {
		r.next.Detection(noisyID, victimID, key, projected)
	}
}

// PenaltyAction implements core.Observer.
func (r *Recorder) PenaltyAction(noisyID, victimID int, key core.ResourceKey, policy core.PolicyKind, length time.Duration) {
	r.record(event{kind: KindAction, pbox: noisyID, victim: victimID, key: key, policy: policy, extra: int64(length)})
	if r.next != nil {
		r.next.PenaltyAction(noisyID, victimID, key, policy, length)
	}
}

// PenaltyServed implements core.Observer.
func (r *Recorder) PenaltyServed(pboxID int, d time.Duration) {
	r.record(event{kind: KindServed, pbox: pboxID, extra: int64(d)})
	if r.next != nil {
		r.next.PenaltyServed(pboxID, d)
	}
}

// Blocked implements core.AttributionObserver.
func (r *Recorder) Blocked(culpritID, victimID int, key core.ResourceKey, deferNs int64) {
	r.record(event{kind: KindBlocked, pbox: culpritID, victim: victimID, key: key, extra: deferNs})
	if r.nextAttr != nil {
		r.nextAttr.Blocked(culpritID, victimID, key, deferNs)
	}
}

// PenaltyServedFor implements core.AttributionObserver. The served delay is
// already recorded via PenaltyServed; only forwarding happens here.
func (r *Recorder) PenaltyServedFor(culpritID, victimID int, key core.ResourceKey, d time.Duration) {
	if r.nextAttr != nil {
		r.nextAttr.PenaltyServedFor(culpritID, victimID, key, d)
	}
}

// compile-time interface checks
var (
	_ core.Observer            = (*Recorder)(nil)
	_ core.AttributionObserver = (*Recorder)(nil)
)
