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
// The Recorder embeds core.RecordObserver — which makes it a core.Observer
// and core.AttributionObserver that forwards every callback to a next
// Observer, so it stacks anywhere in a chain — and is the adapter's
// core.RecordSink: the ring stores the same core.Record values the capture
// log does. Hook-path discipline matches the rest of the reproduction:
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

// entry is one ring slot: the record as the adapter built it, plus the
// ring's own sequence number and the wall-clock delivery stamp (for a
// spooled event that is flush time; rec.At is when it happened). No
// pointers, no strings — recording must not allocate.
type entry struct {
	seq    uint64
	atUnix int64
	rec    core.Record
}

// ring is a fixed-capacity event buffer with preallocated slots.
type ring struct {
	mu     sync.Mutex
	events []entry
	pos    int
	full   bool
	seq    uint64
}

func newRing(n int) *ring {
	return &ring{events: make([]entry, n)}
}

func (r *ring) add(rec *core.Record, atUnix int64) {
	r.mu.Lock()
	r.seq++
	e := &r.events[r.pos]
	e.seq, e.atUnix, e.rec = r.seq, atUnix, *rec
	r.pos = (r.pos + 1) % len(r.events)
	if r.pos == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// tail returns the ring contents oldest first. Called off the hook path;
// the copy is O(ring size) and aliases nothing.
func (r *ring) tail() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]entry, r.pos)
		copy(out, r.events[:r.pos])
		return out
	}
	out := make([]entry, 0, len(r.events))
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
	// every callback is forwarded to it after recording. May be nil.
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
	core.RecordObserver
	cfg  Config
	ring *ring
	// start anchors the delivery stamps (see now).
	start time.Time

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
		start:       time.Now(),
		lastCapture: make(map[int]int64),
		jobs:        make(chan capture, 8),
		done:        make(chan struct{}),
	}
	r.RecordObserver = core.RecordObserver{Sink: r, Next: cfg.Next}
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
		atUnix:  r.now(),
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

// now is the wall-clock stamp in unix ns, derived from the recorder's start
// with one monotonic clock read: time.Now reads two clocks, and the stamp is
// taken once per record, under manager locks.
func (r *Recorder) now() int64 { return r.start.UnixNano() + int64(time.Since(r.start)) }

// Record implements core.RecordSink: it stores the record in the ring.
// Alloc-free: the slot is preallocated and the record carries no heap
// references. Beyond recording, a detection verdict is the capture trigger:
// if the culprit's cooldown has passed, a build job is queued for the writer
// goroutine. That is a map check under a recorder-local mutex and a
// non-blocking send — it cannot block the manager lock or the penalty path.
//
//pbox:hotpath
func (r *Recorder) Record(rec core.Record) {
	now := r.now()
	r.ring.add(&rec, now)
	if rec.Kind != core.KindDetection || !r.shouldCapture(rec.PBox, now) || r.closed.Load() {
		return
	}
	select {
	case r.jobs <- capture{
		trigger:   "detection",
		culprit:   rec.PBox,
		victim:    rec.Victim,
		key:       rec.Key,
		projected: rec.Level,
		atUnix:    now,
	}:
	default:
		r.dropped.Add(1)
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
