package core

import (
	"fmt"
	"strings"
	"time"
)

// Observer receives live notifications of manager activity: pBox lifecycle,
// activity-window boundaries, state events, detection verdicts, penalty
// actions, and served penalty durations. It is the one way the event stream
// leaves the manager; the paper notes (Section 8) that the pBox event stream
// doubles as a diagnosis aid, and these callbacks are that stream surfaced
// programmatically rather than via post-hoc trace dumps. Every callback that
// has a manager-clock time carries it, so the stream is complete enough to
// drive an offline replay (internal/capture) no matter who is listening.
//
// All callbacks except PenaltyServed are invoked synchronously while manager
// locks are held (the calling pBox's mutex, on verdict callbacks the shard
// and verdict locks too, on a StateEventAt replayed from a spool possibly the
// shard lock its batch holds across records, and for PBoxSharedChanged the
// pBox's penalty lock, a leaf — see DESIGN.md §8), so they observe a
// consistent per-pBox ordering: PBoxCreated precedes every other callback for
// an id, nothing follows PBoxReleased for it, and a PenaltyAction is always
// preceded by its Detection. In exchange, implementations must be fast, must
// not block, and must not call back into the Manager (doing so deadlocks) — the one
// exception is ResourceName, which uses a dedicated per-shard name lock
// precisely so observers can resolve resource names for labels. Counter
// bumps and other atomic updates are the intended use. PenaltyServed is
// invoked on the penalized pBox's own goroutine after the delay completes,
// outside the lock.
//
// An Observer that additionally implements AttributionObserver receives the
// per-(culprit, victim, resource) attribution stream as well. An observer
// that wants the stream as values rather than callbacks embeds a
// RecordObserver and implements RecordSink.
//
// A nil Observer (the default) is checked before every callback site, so the
// disabled path costs one predictable branch and zero allocations — see
// BenchmarkObserverDisabled.
type Observer interface {
	// PBoxCreated fires when create_pbox succeeds.
	PBoxCreated(id int, rule IsolationRule)
	// PBoxReleased fires when release_pbox destroys the pBox.
	PBoxReleased(id int)
	// PBoxActivated fires inside activate_pbox with the manager-clock
	// timestamp stored as the activity's start (after any pending penalty
	// from the previous activity has been served).
	PBoxActivated(pboxID int, atNs int64)
	// PBoxFrozen fires inside freeze_pbox with the manager-clock timestamp
	// that closes the activity window; the matching ActivityEnd follows it.
	PBoxFrozen(pboxID int, atNs int64)
	// PBoxSharedChanged fires when the pBox's shared-thread marking flips
	// (MarkShared, SetShared, or a worker bind with a different flag).
	PBoxSharedChanged(pboxID int, shared bool)
	// StateEventAt fires for every accepted update_pbox call (only while
	// the pBox is active) with the manager-clock
	// nanosecond timestamp the event's Algorithm 1 bookkeeping used: issue
	// time for a direct delivery, the recorded event time for a spool
	// replay (DESIGN.md §10), which is delivered at flush time and can lag
	// the event by the spool's fill interval; for an UpdateAt, the caller's
	// stamp — on the wire: its frame's arrival. That single-timestamp
	// property is what makes capture logs replayable: re-issuing the event
	// at exactly atNs reproduces the manager's arithmetic bit for bit.
	StateEventAt(pboxID int, key ResourceKey, ev EventType, atNs int64)
	// ActivityEnd fires at freeze_pbox with the finished activity's
	// deferring and execution time.
	ActivityEnd(pboxID int, deferNs, execNs int64)
	// Detection fires whenever Algorithm 1 or the pBox-level monitor
	// reaches a verdict that noisy interferes with victim on key, with the
	// projected interference level that crossed the goal. It fires even
	// when the subsequent action is suppressed (pending penalty, cooldown).
	Detection(noisyID, victimID int, key ResourceKey, projected float64)
	// PenaltyAction fires when take_action schedules a penalty of the
	// given length on noisy, chosen by policy.
	PenaltyAction(noisyID, victimID int, key ResourceKey, policy PolicyKind, length time.Duration)
	// PenaltyServed fires after a penalty delay of length d has been
	// slept on the pBox's goroutine (shared-thread requeue penalties are
	// not reported here; they surface through Gate/ErrPenalized).
	PenaltyServed(pboxID int, d time.Duration)
}

// Kind discriminates Record types. The numeric values are internal/capture's
// on-disk numbering (its testdata/golden pins them): never renumber, only
// append.
type Kind byte

const (
	// KindCreate records create_pbox: pBox id and its isolation rule.
	KindCreate Kind = 1
	// KindRelease records release_pbox.
	KindRelease Kind = 2
	// KindActivate records activate_pbox at a manager-clock timestamp.
	KindActivate Kind = 3
	// KindFreeze records freeze_pbox at a manager-clock timestamp.
	KindFreeze Kind = 4
	// KindState records one accepted update_pbox event at the
	// manager-clock timestamp its bookkeeping used.
	KindState Kind = 5
	// KindDetection is an Algorithm 1 (or pBox-level monitor) verdict.
	KindDetection Kind = 6
	// KindAction is a scheduled penalty.
	KindAction Kind = 7
	// KindServed is a penalty delay actually slept.
	KindServed Kind = 8
	// KindActivityEnd is a finished activity's deferring and execution
	// time.
	KindActivityEnd Kind = 9
	// KindBlocked is one victim-blocking interval from the attribution
	// stream.
	KindBlocked Kind = 10
	// KindShared records a shared-thread marking flip.
	KindShared Kind = 11
	// KindServedFor is a served penalty attributed to the (victim,
	// resource) whose detection scheduled it. Capture logs do not store it
	// (KindServed already carries the duration); the number is reserved.
	KindServedFor Kind = 12
)

var kindNames = [...]string{
	KindCreate: "create", KindRelease: "release", KindActivate: "activate",
	KindFreeze: "freeze", KindState: "state", KindDetection: "detection",
	KindAction: "action", KindServed: "served", KindActivityEnd: "activity_end",
	KindBlocked: "blocked", KindShared: "shared", KindServedFor: "served_for",
}

// String names the kind for `pboxreplay cat`, incident bundles and
// diagnostics.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Record is one observer callback as a value: the single record type the
// capture log, the manager's trace ring and the replay digest all store.
// Field use depends on Kind; unused fields are zero. It holds no pointers,
// so passing and storing one never allocates.
type Record struct {
	Kind Kind
	// PBox is the acting pBox (the culprit for
	// detection/action/blocked/served_for).
	PBox int
	// Victim is the deferred pBox for detection/action/blocked/served_for.
	Victim int
	// Key is the contended virtual resource for state/verdict records.
	Key ResourceKey
	// Ev is the state-event type for KindState.
	Ev EventType
	// Policy is the penalty policy for KindAction.
	Policy PolicyKind
	// At is the manager-clock timestamp (ns) for activate/freeze/state.
	At int64
	// Dur carries the kind-specific duration or magnitude (ns): penalty
	// length (action), slept delay (served, served_for), deferring time
	// (activityEnd/blocked), or the shared flag (0/1) for KindShared.
	Dur int64
	// Exec is the activity's execution time (ns) for KindActivityEnd.
	Exec int64
	// Level is the rule level for KindCreate and the projected
	// interference level for KindDetection.
	Level float64
	// RuleType and Metric complete the isolation rule for KindCreate.
	RuleType RuleType
	Metric   Metric
}

// Rule reconstructs a KindCreate record's isolation rule.
func (r Record) Rule() IsolationRule {
	return IsolationRule{Type: r.RuleType, Level: r.Level, Metric: r.Metric}
}

// String renders the record as one line, printing only the fields its kind
// uses: the `pboxreplay cat` line and the text of a /trace row and of an
// incident-bundle event, so the three can be matched verbatim.
func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s pbox=%d", r.Kind, r.PBox)
	switch r.Kind {
	case KindCreate:
		fmt.Fprintf(&b, " rule={type=%v level=%g metric=%v}", r.RuleType, r.Level, r.Metric)
	case KindActivate, KindFreeze:
		fmt.Fprintf(&b, " at=%d", r.At)
	case KindState:
		fmt.Fprintf(&b, " key=%#x ev=%v at=%d", uint64(r.Key), r.Ev, r.At)
	case KindDetection:
		fmt.Fprintf(&b, " victim=%d key=%#x projected=%.3f", r.Victim, uint64(r.Key), r.Level)
	case KindAction:
		fmt.Fprintf(&b, " victim=%d key=%#x policy=%v length=%v", r.Victim, uint64(r.Key), r.Policy, time.Duration(r.Dur))
	case KindServed:
		fmt.Fprintf(&b, " slept=%v", time.Duration(r.Dur))
	case KindActivityEnd:
		fmt.Fprintf(&b, " defer=%v exec=%v", time.Duration(r.Dur), time.Duration(r.Exec))
	case KindBlocked:
		fmt.Fprintf(&b, " victim=%d key=%#x blocked=%v", r.Victim, uint64(r.Key), time.Duration(r.Dur))
	case KindShared:
		fmt.Fprintf(&b, " shared=%v", r.Dur != 0)
	case KindServedFor:
		fmt.Fprintf(&b, " victim=%d key=%#x slept=%v", r.Victim, uint64(r.Key), time.Duration(r.Dur))
	}
	return b.String()
}

// RecordSink consumes the observer stream as Record values. Record is called
// from inside the callbacks, so everything the Observer contract demands of
// a callback — fast, non-blocking, no manager re-entry — holds for it.
type RecordSink interface {
	Record(rec Record)
}

// RecordObserver is the one adapter from callbacks to records: it implements
// Observer and AttributionObserver, turns each callback into one Record,
// hands it to Sink, and forwards the callback unchanged to Next (when
// non-nil), so a chain of sinks sees the same stream at every position. A
// sink type embeds it and points Sink at itself; Sink must be non-nil.
type RecordObserver struct {
	Sink RecordSink
	Next Observer
}

// PBoxCreated implements Observer.
func (o *RecordObserver) PBoxCreated(id int, rule IsolationRule) {
	o.Sink.Record(Record{Kind: KindCreate, PBox: id, RuleType: rule.Type, Metric: rule.Metric, Level: rule.Level})
	if o.Next != nil {
		o.Next.PBoxCreated(id, rule)
	}
}

// PBoxReleased implements Observer.
func (o *RecordObserver) PBoxReleased(id int) {
	o.Sink.Record(Record{Kind: KindRelease, PBox: id})
	if o.Next != nil {
		o.Next.PBoxReleased(id)
	}
}

// PBoxActivated implements Observer.
//
//pbox:hotpath
func (o *RecordObserver) PBoxActivated(pboxID int, atNs int64) {
	o.Sink.Record(Record{Kind: KindActivate, PBox: pboxID, At: atNs})
	if o.Next != nil {
		o.Next.PBoxActivated(pboxID, atNs)
	}
}

// PBoxFrozen implements Observer.
//
//pbox:hotpath
func (o *RecordObserver) PBoxFrozen(pboxID int, atNs int64) {
	o.Sink.Record(Record{Kind: KindFreeze, PBox: pboxID, At: atNs})
	if o.Next != nil {
		o.Next.PBoxFrozen(pboxID, atNs)
	}
}

// PBoxSharedChanged implements Observer.
func (o *RecordObserver) PBoxSharedChanged(pboxID int, shared bool) {
	rec := Record{Kind: KindShared, PBox: pboxID}
	if shared {
		rec.Dur = 1
	}
	o.Sink.Record(rec)
	if o.Next != nil {
		o.Next.PBoxSharedChanged(pboxID, shared)
	}
}

// StateEventAt implements Observer: the per-event hot path.
//
//pbox:hotpath
func (o *RecordObserver) StateEventAt(pboxID int, key ResourceKey, ev EventType, atNs int64) {
	o.Sink.Record(Record{Kind: KindState, PBox: pboxID, Key: key, Ev: ev, At: atNs})
	if o.Next != nil {
		o.Next.StateEventAt(pboxID, key, ev, atNs)
	}
}

// ActivityEnd implements Observer.
//
//pbox:hotpath
func (o *RecordObserver) ActivityEnd(pboxID int, deferNs, execNs int64) {
	o.Sink.Record(Record{Kind: KindActivityEnd, PBox: pboxID, Dur: deferNs, Exec: execNs})
	if o.Next != nil {
		o.Next.ActivityEnd(pboxID, deferNs, execNs)
	}
}

// Detection implements Observer.
//
//pbox:hotpath
func (o *RecordObserver) Detection(noisyID, victimID int, key ResourceKey, projected float64) {
	o.Sink.Record(Record{Kind: KindDetection, PBox: noisyID, Victim: victimID, Key: key, Level: projected})
	if o.Next != nil {
		o.Next.Detection(noisyID, victimID, key, projected)
	}
}

// PenaltyAction implements Observer.
//
//pbox:hotpath
func (o *RecordObserver) PenaltyAction(noisyID, victimID int, key ResourceKey, policy PolicyKind, length time.Duration) {
	o.Sink.Record(Record{Kind: KindAction, PBox: noisyID, Victim: victimID, Key: key, Policy: policy, Dur: int64(length)})
	if o.Next != nil {
		o.Next.PenaltyAction(noisyID, victimID, key, policy, length)
	}
}

// PenaltyServed implements Observer (fires outside manager locks).
func (o *RecordObserver) PenaltyServed(pboxID int, d time.Duration) {
	o.Sink.Record(Record{Kind: KindServed, PBox: pboxID, Dur: int64(d)})
	if o.Next != nil {
		o.Next.PenaltyServed(pboxID, d)
	}
}

// nextAttr is Next's AttributionObserver side, nil when it has none. The
// assertion is made per attribution callback rather than cached so the
// struct stays a plain literal; both callbacks are off the per-event path
// (the verdict path, and after a served sleep).
func (o *RecordObserver) nextAttr() AttributionObserver {
	ao, _ := o.Next.(AttributionObserver)
	return ao
}

// Blocked implements AttributionObserver.
//
//pbox:hotpath
func (o *RecordObserver) Blocked(culpritID, victimID int, key ResourceKey, deferNs int64) {
	o.Sink.Record(Record{Kind: KindBlocked, PBox: culpritID, Victim: victimID, Key: key, Dur: deferNs})
	if ao := o.nextAttr(); ao != nil {
		ao.Blocked(culpritID, victimID, key, deferNs)
	}
}

// PenaltyServedFor implements AttributionObserver (fires outside manager
// locks).
func (o *RecordObserver) PenaltyServedFor(culpritID, victimID int, key ResourceKey, d time.Duration) {
	o.Sink.Record(Record{Kind: KindServedFor, PBox: culpritID, Victim: victimID, Key: key, Dur: int64(d)})
	if ao := o.nextAttr(); ao != nil {
		ao.PenaltyServedFor(culpritID, victimID, key, d)
	}
}
