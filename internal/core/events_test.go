package core

import (
	"strings"
	"testing"
	"time"
)

func TestEventTypeStrings(t *testing.T) {
	want := map[EventType]string{
		Prepare:       "PREPARE",
		Enter:         "ENTER",
		Hold:          "HOLD",
		Unhold:        "UNHOLD",
		EventType(42): "EventType(42)",
	}
	for ev, s := range want {
		if ev.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(ev), ev.String(), s)
		}
	}
}

func TestMetricStrings(t *testing.T) {
	want := map[Metric]string{
		MetricAverage: "average",
		MetricTail:    "tail",
		MetricMax:     "max",
		Metric(9):     "Metric(9)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%v.String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateStarted:   "started",
		StateActive:    "active",
		StateFrozen:    "frozen",
		StateDestroyed: "destroyed",
		State(7):       "State(7)",
	}
	for st, s := range want {
		if st.String() != s {
			t.Fatalf("State(%d).String() = %q, want %q", int(st), st.String(), s)
		}
	}
}

func TestPolicyKindStrings(t *testing.T) {
	want := map[PolicyKind]string{
		PolicyInitial:  "initial",
		PolicyScore:    "score",
		PolicyGap:      "gap",
		PolicyFixed:    "fixed",
		PolicyKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("PolicyKind(%d) = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestIsolationRuleValidity(t *testing.T) {
	valid := []IsolationRule{
		DefaultRule(),
		{Type: Relative, Level: 0.25, Metric: MetricTail},
		{Type: Relative, Level: 100, Metric: MetricMax},
	}
	for _, r := range valid {
		if !r.Valid() {
			t.Fatalf("rule %+v should be valid", r)
		}
	}
	invalid := []IsolationRule{
		{Type: Relative, Level: 0},
		{Type: Relative, Level: -1},
		{Type: Relative, Level: 0.5, Metric: Metric(9)},
	}
	for _, r := range invalid {
		if r.Valid() {
			t.Fatalf("rule %+v should be invalid", r)
		}
	}
}

func TestErrPenalizedMessage(t *testing.T) {
	e := &ErrPenalized{PBoxID: 7, Wait: 3 * time.Millisecond}
	if !strings.Contains(e.Error(), "7") || !strings.Contains(e.Error(), "3ms") {
		t.Fatalf("error message = %q", e.Error())
	}
}

func TestDefaultRuleIsPaperDefault(t *testing.T) {
	r := DefaultRule()
	if r.Level != 0.5 || r.Metric != MetricAverage || r.Type != Relative {
		t.Fatalf("default rule = %+v, want 50%% relative average", r)
	}
}

func TestTailMetricUsesPerActivityHistory(t *testing.T) {
	h := newHarness(t)
	p, err := h.m.Create(IsolationRule{Type: Relative, Level: 0.5, Metric: MetricTail})
	if err != nil {
		t.Fatal(err)
	}
	// 18 clean activities and two badly deferred ones: the 95th
	// percentile of 20 activities lands on the second-worst.
	for i := 0; i < 18; i++ {
		h.m.Activate(p)
		h.advance(100 * time.Microsecond)
		h.m.Freeze(p)
	}
	holder := h.pbox(0.5)
	h.m.Activate(holder)
	for i := 0; i < 2; i++ {
		h.m.Update(holder, ResourceKey(1), Hold)
		h.m.Activate(p)
		h.m.Update(p, ResourceKey(1), Prepare)
		h.advance(400 * time.Microsecond)
		h.m.Update(holder, ResourceKey(1), Unhold)
		h.m.Update(p, ResourceKey(1), Enter)
		h.advance(100 * time.Microsecond)
		h.m.Freeze(p)
	}

	snap := p.snapshot()
	// Each bad activity has ratio 400/100 = 4; the average over 20 would
	// be ≈0.36, but the tail metric reports ≈4.
	if snap.InterferenceLevel < 3 {
		t.Fatalf("tail metric level = %v, want ≈4", snap.InterferenceLevel)
	}
}
