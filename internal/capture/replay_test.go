package capture

import (
	"slices"
	"testing"
	"time"

	"pbox/internal/core"
	"pbox/internal/flightrec"
)

// liveOptions is the option set the scripted live run uses; replays that
// want digest equality must use the same knobs (Replay installs its own
// Now/Sleep/Observer mechanism on top).
func liveOptions() core.Options {
	return core.Options{
		MinPenalty: 10 * time.Microsecond,
		MaxPenalty: 100 * time.Millisecond,
	}
}

// runScripted executes a deterministic single-threaded workload — a noisy
// holder repeatedly starving a latency-sensitive victim, plus a
// shared-thread pBox — against a live manager with a hand-cranked clock,
// recording through a Recorder chained in front of a collector. It returns
// the live run's digest and the capture log.
func runScripted(t *testing.T, dir string) (*Digest, *Log) {
	t.Helper()
	return runScriptedBehind(t, dir, func(rec core.Observer) core.Observer { return rec })
}

// runScriptedBehind is runScripted with the manager's observer chosen by
// front, which is handed the Recorder to chain to.
func runScriptedBehind(t *testing.T, dir string, front func(rec core.Observer) core.Observer) (*Digest, *Log) {
	t.Helper()
	col := newCollector()
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Next: col})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	var now int64
	opts := liveOptions()
	opts.Observer = front(rec)
	opts.Attribution = true
	opts.Now = func() int64 { return now }
	opts.Sleep = func(d time.Duration) { now += int64(d) }
	m := core.NewManager(opts)
	advance := func(d time.Duration) { now += int64(d) }

	mk := func(level float64) *core.PBox {
		p, err := m.Create(core.IsolationRule{Type: core.Relative, Level: level, Metric: core.MetricAverage})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		return p
	}
	noisy := mk(0.5)
	victim := mk(0.5)
	shared := mk(0.5)
	m.MarkShared(shared)
	key := core.ResourceKey(42)

	for round := 0; round < 6; round++ {
		m.Activate(noisy)
		m.Activate(victim)
		m.Update(noisy, key, core.Prepare)
		m.Update(noisy, key, core.Enter)
		m.Update(noisy, key, core.Hold)
		// Victim computes briefly, then starves behind the hold:
		// td/te >> 0.5 ⇒ Algorithm 1 verdict at the noisy UNHOLD.
		advance(100 * time.Microsecond)
		m.Update(victim, key, core.Prepare)
		advance(900 * time.Microsecond)
		m.Update(noisy, key, core.Unhold)
		m.Update(victim, key, core.Enter)
		advance(50 * time.Microsecond)
		m.Freeze(victim)
		m.Freeze(noisy)

		// The shared-thread pBox runs a short clean activity each round.
		m.Activate(shared)
		m.Update(shared, key, core.Prepare)
		advance(20 * time.Microsecond)
		m.Update(shared, key, core.Enter)
		advance(80 * time.Microsecond)
		m.Freeze(shared)
		advance(time.Millisecond)
	}
	_ = m.Release(noisy)
	_ = m.Release(victim)
	_ = m.Release(shared)

	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d records in a paced test", rec.Dropped())
	}
	live := col.finalize(m)
	log, err := ReadLog(dir)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	return live, log
}

// TestReplayDifferentialIdentical is the subsystem's central claim: replaying
// a recorded log under the same Options yields a digest identical to the
// live run that produced it — hash included.
func TestReplayDifferentialIdentical(t *testing.T) {
	live, log := runScripted(t, t.TempDir())
	if live.Detections == 0 || live.Actions == 0 {
		t.Fatalf("scripted workload produced no verdicts (detections=%d actions=%d) — the differential test needs decisions to compare", live.Detections, live.Actions)
	}
	rr, err := Replay(log, Config{Name: "same", Options: liveOptions()})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rr.Skipped != 0 || rr.IDRemaps != 0 {
		t.Fatalf("replay of a complete log skipped=%d remaps=%d, want 0/0", rr.Skipped, rr.IDRemaps)
	}
	if rr.Digest.Hash != live.Hash {
		t.Fatalf("replay digest diverges from live run:\nlive   %s\nreplay %s\ndiff:\n%v",
			live.Hash, rr.Digest.Hash, Diff(live, rr.Digest))
	}
}

// TestRecorderBehindFlightRecorderReplaysIdentical: a log must not depend on
// who else is listening. The same scripted run recorded with the Recorder
// chained behind a flight recorder yields the same records, and so the same
// replay digest, as with the Recorder in front: every link forwards every
// callback, lifecycle and attribution included.
func TestRecorderBehindFlightRecorderReplaysIdentical(t *testing.T) {
	_, inFront := runScripted(t, t.TempDir())
	_, behind := runScriptedBehind(t, t.TempDir(), func(rec core.Observer) core.Observer {
		fr := flightrec.New(flightrec.Config{Dir: t.TempDir(), Next: rec})
		t.Cleanup(fr.Close)
		return fr
	})
	if !slices.Equal(behind.Records, inFront.Records) {
		t.Fatalf("log recorded behind a flight recorder has %d records (%v), in front %d (%v)",
			len(behind.Records), behind.Info.ByKind, len(inFront.Records), inFront.Info.ByKind)
	}
	a, err := Replay(inFront, Config{Options: liveOptions()})
	if err != nil {
		t.Fatalf("Replay (in front): %v", err)
	}
	b, err := Replay(behind, Config{Options: liveOptions()})
	if err != nil {
		t.Fatalf("Replay (behind): %v", err)
	}
	if a.Digest.Detections == 0 || a.Digest.Hash != b.Digest.Hash {
		t.Fatalf("replay digests differ (detections %d):\n%v", a.Digest.Detections, Diff(a.Digest, b.Digest))
	}
}

// TestReplayDeterministic replays the same log twice and requires identical
// digests — the property the corpus CI gate enforces.
func TestReplayDeterministic(t *testing.T) {
	_, log := runScripted(t, t.TempDir())
	a, err := Replay(log, Config{Options: liveOptions()})
	if err != nil {
		t.Fatalf("Replay a: %v", err)
	}
	b, err := Replay(log, Config{Options: liveOptions()})
	if err != nil {
		t.Fatalf("Replay b: %v", err)
	}
	if a.Digest.Hash != b.Digest.Hash {
		t.Fatalf("two replays of one log diverge:\n%v", Diff(a.Digest, b.Digest))
	}
}

// TestReplayWhatIf checks the tuning loop: different options change the
// replayed verdicts in the expected direction.
func TestReplayWhatIf(t *testing.T) {
	live, log := runScripted(t, t.TempDir())

	off, err := Replay(log, Config{Options: func() core.Options {
		o := liveOptions()
		o.DisableDetection = true
		return o
	}()})
	if err != nil {
		t.Fatalf("Replay detection-off: %v", err)
	}
	if off.Digest.Detections != 0 || off.Digest.Actions != 0 {
		t.Fatalf("detection disabled but replay found %d detections / %d actions",
			off.Digest.Detections, off.Digest.Actions)
	}

	relaxed, err := Replay(log, Config{Options: liveOptions(), RuleLevel: 1000})
	if err != nil {
		t.Fatalf("Replay relaxed: %v", err)
	}
	if relaxed.Digest.Detections >= live.Detections {
		t.Fatalf("relaxing the rule level 2000× did not reduce detections (%d → %d)",
			live.Detections, relaxed.Digest.Detections)
	}

	// The adjusted victim latency must actually credit served penalties in
	// the base replay (the live run had real actions).
	same, err := Replay(log, Config{Options: liveOptions()})
	if err != nil {
		t.Fatalf("Replay same: %v", err)
	}
	var victimCredit int64
	for _, b := range same.Digest.Boxes {
		if b.DetectionsAsVictim > 0 {
			victimCredit += b.CreditNs
		}
	}
	if victimCredit == 0 {
		t.Fatal("no penalty credit reached any victim in a run with served penalties")
	}
}

// TestSweepProducesDeltas runs a small threshold grid over a scripted log.
func TestSweepProducesDeltas(t *testing.T) {
	_, log := runScripted(t, t.TempDir())
	grid := []Config{
		{Name: "base", Options: liveOptions()},
		{Name: "level-x4", Options: liveOptions(), RuleLevel: 2.0},
		{Name: "detection-off", Options: func() core.Options {
			o := liveOptions()
			o.DisableDetection = true
			return o
		}()},
		{Name: "fixed-1ms", Options: func() core.Options {
			o := liveOptions()
			o.FixedPenalty = time.Millisecond
			return o
		}()},
	}
	res, err := Sweep(log, grid)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	if res.Rows[0].DeltaActions != 0 || res.Rows[0].DeltaVictimP95Ns != 0 {
		t.Fatalf("base row has nonzero deltas: %+v", res.Rows[0])
	}
	offRow := res.Rows[2]
	if offRow.Digest.Actions != 0 || offRow.DeltaActions >= 0 && res.Rows[0].Digest.Actions > 0 && offRow.DeltaActions == 0 {
		t.Fatalf("detection-off row unexpected: %+v", offRow)
	}
	if tbl := res.Table(); len(tbl) == 0 {
		t.Fatal("empty sweep table")
	}
}
