// Package flightrec is the flight recorder of the pBox reproduction: when a
// detection verdict fires (or when an operator asks) it freezes the recent
// window of the manager's trace ring, with the manager state around it, into
// a JSON incident bundle. Metrics say interference is happening and the
// attribution ledger says who is doing it; the flight recorder preserves the
// moments around a specific verdict — the event sequence, the culprit/victim
// accounting, and the Algorithm 1 inputs (defer ratios, projected
// interference vs. goal) — so an incident can be diagnosed after the fact
// without having had a trace subscription open (the post-hoc half of the
// paper's Section 8 diagnosis story).
//
// The Recorder embeds core.RecordObserver — which makes it a core.Observer
// and core.AttributionObserver that forwards every callback to a next
// Observer, so it stacks anywhere in a chain — and is the adapter's
// core.RecordSink. It keeps no copy of the stream: the manager's trace ring
// (core.Options.TraceSize) is the one store, and a bundle's events are the
// rows cut out of it by sequence number. On the hook path a state event is
// forwarded with no record built, any other record that is not a detection
// costs one comparison, and a detection is a per-culprit cooldown check plus a
// non-blocking channel send. Bundles are built and written by a
// background goroutine that refreshes the manager's epoch-published snapshot
// (so the verdict that fired, and every spooled event issued before the
// capture, is visible) outside any hook, so a dump can never block the
// penalty path. Captures are cooldown-limited and manual dumps operator-rate,
// so the stop-the-world rebuild each one costs stays rare.
package flightrec

import (
	"sync"
	"sync/atomic"
	"time"

	"pbox/internal/core"
)

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
	// window is how many of the trace ring's newest rows a bundle carries.
	window = 1024

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
	cfg Config

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
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = defaultCooldown
	}
	if cfg.Retention <= 0 {
		cfg.Retention = defaultRetention
	}
	r := &Recorder{
		cfg:         cfg,
		lastCapture: make(map[int]int64),
		jobs:        make(chan capture, 8),
		done:        make(chan struct{}),
	}
	r.RecordObserver = core.RecordObserver{Sink: r, Next: cfg.Next}
	go r.writer()
	return r
}

// AttachManager supplies the manager whose trace ring and Status the incident
// builder reads. Until it is called, bundles carry the trigger only; a
// manager built without Options.TraceSize yields bundles with no events.
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

// Close stops the writer after draining queued captures. Hooks may still
// fire after Close (and are still forwarded), but no further bundles are
// written.
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

// StateEventAt shadows the embedded adapter's: the recorder stores no state
// rows (a bundle's events are cut from the manager's ring), so on the per-event
// path it builds no Record to hand itself and only forwards.
//
//pbox:hotpath
func (r *Recorder) StateEventAt(pboxID int, key core.ResourceKey, ev core.EventType, atNs int64) {
	if r.Next != nil {
		r.Next.StateEventAt(pboxID, key, ev, atNs)
	}
}

// Record implements core.RecordSink. The stream itself is stored once, by the
// manager's trace ring; the recorder only watches it for the capture trigger:
// a detection verdict whose culprit's cooldown has passed queues a build job
// for the writer goroutine. That is a map check under a recorder-local mutex
// and a non-blocking send — it cannot block the manager lock or the penalty
// path — and every other record returns on the first comparison.
//
//pbox:hotpath
func (r *Recorder) Record(rec core.Record) {
	if rec.Kind != core.KindDetection || r.closed.Load() {
		return
	}
	now := time.Now().UnixNano()
	if !r.shouldCapture(rec.PBox, now) {
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
