// Package core implements the pBox abstraction from "Pushing Performance
// Isolation Boundaries into Application with pBox" (SOSP 2023) as a
// userspace library. A pBox is a performance isolation domain within an
// application: developers create one per activity boundary (a client
// connection, a background task), annotate virtual-resource usage with four
// state events, and the manager detects imminent interference (Algorithm 1)
// and applies adaptive delay penalties to noisy pBoxes so that each pBox
// meets its relative isolation goal.
//
// The paper's implementation lives in the Linux kernel and communicates via
// syscalls; here the manager is in-process and "threads" are goroutines.
// Penalties are executed by making the noisy pBox's own goroutine sleep at
// its next safe point (no virtual resources held, no outstanding waits),
// which is exactly where the kernel version would have parked the thread
// with schedule_hrtimeout.
package core

import (
	"fmt"
	"time"
)

// EventType enumerates the four general state events of Table 1 in the
// paper. They describe the usage status of an application virtual resource
// (a buffer pool, an UNDO log, tickets, a queue, ...) without the manager
// needing to understand its semantics.
type EventType int

const (
	// Prepare: the pBox is deferred by a virtual resource currently held
	// by another pBox (it started waiting).
	Prepare EventType = iota
	// Enter: the pBox is no longer deferred by the resource.
	Enter
	// Hold: the pBox is holding the virtual resource.
	Hold
	// Unhold: the pBox has released the virtual resource.
	Unhold
)

// String returns the paper's name for the event.
func (e EventType) String() string {
	switch e {
	case Prepare:
		return "PREPARE"
	case Enter:
		return "ENTER"
	case Hold:
		return "HOLD"
	case Unhold:
		return "UNHOLD"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// ResourceKey names a virtual resource. The paper uses the address of the
// resource object; instrumented resources in internal/vres do the same via
// their own identity, and tests may use arbitrary integers.
type ResourceKey uintptr

// AggregateKey is the pseudo-resource used when the pBox-level monitor
// (Section 4.3.1, the 90%-of-goal average check) takes an action that is not
// attributable to one specific resource.
const AggregateKey ResourceKey = 0

// Metric selects how a pBox's interference level is aggregated across
// activities for the pBox-level monitor. Section 4.3.1: "Besides calculating
// the average, the manager supports other metrics including tail and max
// based on the same principle."
type Metric int

const (
	// MetricAverage compares the average interference level across the
	// pBox's history against the goal. This is the default.
	MetricAverage Metric = iota
	// MetricTail compares the 95th-percentile per-activity interference
	// level against the goal.
	MetricTail
	// MetricMax compares the maximum per-activity interference level
	// against the goal.
	MetricMax
)

// String returns a readable metric name.
func (m Metric) String() string {
	switch m {
	case MetricAverage:
		return "average"
	case MetricTail:
		return "tail"
	case MetricMax:
		return "max"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// RuleType enumerates isolation rule flavors. The paper's evaluation uses
// relative rules exclusively ("latency increase compared to the ideal,
// non-interference execution").
type RuleType int

const (
	// Relative bounds the interference level Tf = Td/(Te-Td): the
	// activity should be at most Level worse than its (unknown)
	// interference-free execution, which the manager treats as an ideal
	// run with zero deferring time.
	Relative RuleType = iota
)

// IsolationRule is the goal a pBox is created with (the IsolationRule
// argument of create_pbox in Figure 7). A Level of 0.5 means "no more than
// 50% worse than interference-free execution", the default in Section 6.2.
type IsolationRule struct {
	Type   RuleType
	Level  float64
	Metric Metric
}

// DefaultRule is the 50% relative rule used for the paper's main evaluation.
func DefaultRule() IsolationRule {
	return IsolationRule{Type: Relative, Level: 0.5, Metric: MetricAverage}
}

// Valid reports whether the rule is well formed.
func (r IsolationRule) Valid() bool {
	return r.Type == Relative && r.Level > 0 &&
		r.Metric >= MetricAverage && r.Metric <= MetricMax
}

// State is the pBox lifecycle status tracked by the manager
// (Section 4.3.2): start, active, freeze, destroy.
type State int

const (
	// StateStarted: the pBox exists (e.g. connection established) but no
	// activity is being traced.
	StateStarted State = iota
	// StateActive: an activity is executing and state events are traced.
	StateActive
	// StateFrozen: the activity finished; tracing stopped.
	StateFrozen
	// StateDestroyed: the pBox has been released.
	StateDestroyed
)

// String returns a readable state name.
func (s State) String() string {
	switch s {
	case StateStarted:
		return "started"
	case StateActive:
		return "active"
	case StateFrozen:
		return "frozen"
	case StateDestroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// BindFlags modify bind/unbind behaviour for event-driven applications
// (Section 4.1 and Section 5, "Supporting Event-driven Model").
type BindFlags int

const (
	// BindDedicated marks the binding thread as dedicated to this pBox;
	// penalties may delay the thread directly.
	BindDedicated BindFlags = iota
	// BindShared marks the binding thread as shared among pBoxes;
	// penalties must not delay the thread, so the manager instead makes
	// the noisy pBox's next activities wait in the task queue (surfaced
	// to the application as ErrPenalized from Bind).
	BindShared
)

// ErrPenalized is returned by Worker.Bind when the pBox being bound is a
// shared-thread pBox still under penalty: the activity must be put back on
// the task queue and retried after Wait. This is the userspace surface of
// the paper's kernel-queue manipulation.
type ErrPenalized struct {
	PBoxID int
	Wait   time.Duration
}

// Error implements the error interface.
func (e *ErrPenalized) Error() string {
	return fmt.Sprintf("pbox %d penalized for another %v", e.PBoxID, e.Wait)
}
