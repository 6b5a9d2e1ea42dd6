package isolation

import (
	"testing"
	"time"

	"pbox/internal/core"
)

func TestNullControllerIsInert(t *testing.T) {
	ctrl := NewNull()
	if ctrl.Name() != "none" {
		t.Fatalf("name = %q", ctrl.Name())
	}
	act := ctrl.ConnStart("x", KindForeground)
	act.Begin("read")
	act.Event(1, core.Prepare)
	act.Work(10 * time.Microsecond)
	act.IO(10 * time.Microsecond)
	if g := act.Gate(); g != 0 {
		t.Fatalf("gate = %v, want 0", g)
	}
	act.End(time.Millisecond)
	act.Close()
	ctrl.Shutdown()
}

func TestPBoxControllerLifecycleMapping(t *testing.T) {
	mgr := core.NewManager(core.Options{})
	ctrl := NewPBox(mgr, core.DefaultRule())
	if ctrl.Name() != "pbox" {
		t.Fatalf("name = %q", ctrl.Name())
	}
	act := ctrl.ConnStart("conn", KindForeground)
	p, ok := PBoxOf(act)
	if !ok {
		t.Fatal("PBoxOf failed on pbox activity")
	}
	if p.State() != core.StateStarted {
		t.Fatalf("state = %v, want started", p.State())
	}
	act.Begin("read")
	if p.State() != core.StateActive {
		t.Fatalf("state after Begin = %v, want active", p.State())
	}
	act.Event(7, core.Prepare)
	if res := mgr.Status().Resources; len(res) != 1 || res[0].Key != 7 || res[0].Waiters != 1 {
		t.Fatalf("event not forwarded to manager: resources %+v", res)
	}
	act.Event(7, core.Enter)
	act.End(time.Millisecond)
	if p.State() != core.StateFrozen {
		t.Fatalf("state after End = %v, want frozen", p.State())
	}
	act.Close()
	if p.State() != core.StateDestroyed {
		t.Fatalf("state after Close = %v, want destroyed", p.State())
	}
	if live := len(mgr.Status().Snapshots); live != 0 {
		t.Fatalf("live pboxes = %d", live)
	}
}

func TestPBoxControllerBackgroundGetsRelaxedRule(t *testing.T) {
	mgr := core.NewManager(core.Options{})
	ctrl := NewPBox(mgr, core.DefaultRule())
	fg := ctrl.ConnStart("conn", KindForeground)
	bg := ctrl.ConnStart("purge", KindBackground)
	pf, _ := PBoxOf(fg)
	pb, _ := PBoxOf(bg)
	if pf.Rule().Level != 0.5 {
		t.Fatalf("foreground level = %v", pf.Rule().Level)
	}
	if pb.Rule().Level != 0.5*BackgroundLevelFactor {
		t.Fatalf("background level = %v, want %v", pb.Rule().Level, 0.5*BackgroundLevelFactor)
	}
}

func TestPBoxSharedControllerMarksShared(t *testing.T) {
	mgr := core.NewManager(core.Options{})
	ctrl := NewPBoxShared(mgr, core.DefaultRule())
	noisyAct := ctrl.ConnStart("noisy", KindForeground)
	victimAct := ctrl.ConnStart("victim", KindForeground)
	noisy, _ := PBoxOf(noisyAct)
	victim, _ := PBoxOf(victimAct)

	// Drive interference so a penalty lands on the noisy pBox: under the
	// shared-thread model it must become a gate, not a sleep.
	noisyAct.Begin("x")
	victimAct.Begin("y")
	mgr.Update(noisy, 5, core.Hold)
	mgr.Update(victim, 5, core.Prepare)
	time.Sleep(5 * time.Millisecond)
	mgr.Update(noisy, 5, core.Unhold)

	if g := noisyAct.Gate(); g <= 0 {
		t.Fatalf("noisy gate = %v, want > 0 (requeue deadline)", g)
	}
	if g := victimAct.Gate(); g != 0 {
		t.Fatalf("victim gate = %v, want 0", g)
	}
}

func TestPBoxOfOnNonPBoxActivity(t *testing.T) {
	if _, ok := PBoxOf(NewNull().ConnStart("x", KindForeground)); ok {
		t.Fatal("PBoxOf succeeded on null activity")
	}
}

// sink keeps every record of a manager's observer stream.
type sink []core.Record

func (s *sink) Record(r core.Record) { *s = append(*s, r) }

// TestPBoxControllerEventFilter: the mistake-tolerance experiment (Section
// 6.8) removes the application's update_pbox calls where the paper does, at
// the call site. A filtered Event reaches the manager not at all: no state row
// and no waiter; an unfiltered one both.
func TestPBoxControllerEventFilter(t *testing.T) {
	const dropped, kept = core.ResourceKey(99), core.ResourceKey(1)
	var rows sink
	mgr := core.NewManager(core.Options{Observer: &core.RecordObserver{Sink: &rows}})
	ctrl := NewPBox(mgr, core.DefaultRule())
	ctrl.EventFilter = func(key core.ResourceKey, ev core.EventType) bool { return key != dropped }
	act := ctrl.ConnStart("conn", KindForeground)
	act.Begin("read")
	waiters := func(key core.ResourceKey) int {
		for _, r := range mgr.Status().Resources {
			if r.Key == key {
				return r.Waiters
			}
		}
		return 0
	}
	states := func(key core.ResourceKey) (n int) {
		for _, r := range rows {
			if r.Kind == core.KindState && r.Key == key {
				n++
			}
		}
		return n
	}
	act.Event(dropped, core.Prepare)
	if n, w := states(dropped), waiters(dropped); n != 0 || w != 0 {
		t.Fatalf("filtered event reached the manager: %d state rows, %d waiters", n, w)
	}
	act.Event(kept, core.Prepare)
	if n, w := states(kept), waiters(kept); n != 1 || w != 1 {
		t.Fatalf("unfiltered event: %d state rows, %d waiters; want 1 and 1", n, w)
	}
	act.End(time.Millisecond)
	act.Close()
}
