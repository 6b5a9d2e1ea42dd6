package capture

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"pbox/internal/core"
	"pbox/internal/flightrec"
)

// waitDrained blocks until the recorder's enqueue buffer is empty (the
// writer has picked the batch up), so tests can pace producers.
func waitDrained(t *testing.T, r *Recorder) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		n := r.n
		r.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("recorder writer did not drain")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestRecorderWritesAndRotates drives the full observer surface through a
// Recorder with a tiny rotation threshold and checks exact accounting:
// every enqueued record is either decoded back or counted as dropped.
func TestRecorderWritesAndRotates(t *testing.T) {
	dir := t.TempDir()
	rec, err := NewRecorder(RecorderConfig{Dir: dir, QueueSize: 64, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	rule := core.DefaultRule()
	const boxes = 4
	const rounds = 200
	var enqueued int64
	for id := 1; id <= boxes; id++ {
		rec.PBoxCreated(id, rule)
		enqueued++
	}
	at := int64(0)
	for i := 0; i < rounds; i++ {
		id := i%boxes + 1
		at += 1000
		rec.PBoxActivated(id, at)
		rec.StateEventAt(id, core.ResourceKey(7), core.Prepare, at+100)
		rec.StateEventAt(id, core.ResourceKey(7), core.Enter, at+300)
		rec.PBoxFrozen(id, at+500)
		rec.ActivityEnd(id, 200, 500)
		enqueued += 5
		// Pace the producer: an unyielding enqueue loop just measures the
		// drop counter (the queue is 64 slots); waiting for the writer
		// lets every batch land so the rotation assertions below hold.
		waitDrained(t, rec)
	}
	rec.Detection(1, 2, 7, 3.5)
	rec.PenaltyAction(1, 2, 7, core.PolicyInitial, 250*time.Microsecond)
	rec.PenaltyServed(1, 250*time.Microsecond)
	rec.Blocked(1, 2, 7, 200)
	rec.PBoxSharedChanged(3, true)
	enqueued += 5
	for id := 1; id <= boxes; id++ {
		rec.PBoxReleased(id)
		enqueued++
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	log, err := ReadLog(dir)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if got := int64(log.Info.Records) + rec.Dropped(); got != enqueued {
		t.Fatalf("decoded(%d) + dropped(%d) = %d, want %d enqueued",
			log.Info.Records, rec.Dropped(), got, enqueued)
	}
	if log.Info.Segments < 2 {
		t.Fatalf("segments = %d, want rotation (≥2) with SegmentBytes=512", log.Info.Segments)
	}
	if log.Info.Truncated {
		t.Fatal("clean close must not leave a truncated tail")
	}
	// Records decode in enqueue order; spot-check the stream shape.
	if log.Records[0].Kind != core.KindCreate || log.Records[0].PBox != 1 {
		t.Fatalf("first record = %+v, want create pbox 1", log.Records[0])
	}
	// Position points at the end of the newest segment after a clean close.
	segs, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	seg, off, queued := rec.Position()
	if queued != 0 {
		t.Fatalf("queued = %d after Close, want 0", queued)
	}
	if want := filepath.Base(last); seg != want {
		t.Fatalf("Position segment = %q, want %q", seg, want)
	}
	if st, err := os.Stat(last); err != nil || off != st.Size() {
		t.Fatalf("Position offset = %d, want file size %v (err=%v)", off, st.Size(), err)
	}
}

// TestRecorderTruncatedTailTolerated simulates a crash by chopping the last
// segment mid-record: ReadLog keeps everything before the tear.
func TestRecorderTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	rec, err := NewRecorder(RecorderConfig{Dir: dir})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	rec.PBoxCreated(1, core.DefaultRule())
	for i := int64(1); i <= 50; i++ {
		rec.StateEventAt(1, core.ResourceKey(9), core.Prepare, i*1000)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := segmentNames(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(dir)
	if err != nil {
		t.Fatalf("ReadLog after tear: %v", err)
	}
	if !log.Info.Truncated {
		t.Fatal("Info.Truncated = false, want true after mid-record tear")
	}
	if log.Info.Records == 0 || log.Info.Records >= 51 {
		t.Fatalf("records after tear = %d, want a strict non-empty prefix", log.Info.Records)
	}
}

// TestRecorderResumeContinuesNumbering checks a restart appends new
// segments after the existing ones instead of clobbering them.
func TestRecorderResumeContinuesNumbering(t *testing.T) {
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		rec, err := NewRecorder(RecorderConfig{Dir: dir})
		if err != nil {
			t.Fatalf("run %d: NewRecorder: %v", run, err)
		}
		rec.PBoxCreated(run+1, core.DefaultRule())
		if err := rec.Close(); err != nil {
			t.Fatalf("run %d: Close: %v", run, err)
		}
	}
	segs, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments after two runs = %d, want 2", len(segs))
	}
	log, err := ReadLog(dir)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if log.Info.Records != 2 || log.Info.PBoxes != 2 {
		t.Fatalf("resumed log: records=%d pboxes=%d, want 2/2", log.Info.Records, log.Info.PBoxes)
	}
}

// sliceSink is a plain core.RecordSink: it keeps every record it is handed.
type sliceSink struct{ recs []core.Record }

func (s *sliceSink) Record(rec core.Record) { s.recs = append(s.recs, rec) }

// recordScripted runs a deterministic single-threaded workload — a noisy
// holder repeatedly starving a latency-sensitive victim, plus a shared-thread
// pBox — on a manager with a hand-cranked clock. The manager's observer is
// front(rec), where rec is a Recorder whose Next is a plain sink. It returns
// the decoded log and what the sink saw, less the kinds a log does not store.
func recordScripted(t *testing.T, front func(rec core.Observer) core.Observer) (logged, seen []core.Record) {
	t.Helper()
	sink := &sliceSink{}
	dir := t.TempDir()
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Next: &core.RecordObserver{Sink: sink}})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	var now int64
	m := core.NewManager(core.Options{
		MinPenalty:  10 * time.Microsecond,
		MaxPenalty:  100 * time.Millisecond,
		Observer:    front(rec),
		Attribution: true,
		Now:         func() int64 { return now },
		Sleep:       func(d time.Duration) { now += int64(d) },
	})
	advance := func(d time.Duration) { now += int64(d) }
	mk := func() *core.PBox {
		p, err := m.Create(core.IsolationRule{Type: core.Relative, Level: 0.5, Metric: core.MetricAverage})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		return p
	}
	noisy, victim, shared := mk(), mk(), mk()
	m.MarkShared(shared)
	key := core.ResourceKey(42)
	for round := 0; round < 6; round++ {
		m.Activate(noisy)
		m.Activate(victim)
		m.Update(noisy, key, core.Prepare)
		m.Update(noisy, key, core.Enter)
		m.Update(noisy, key, core.Hold)
		// The victim computes briefly, then starves behind the hold:
		// td/te >> 0.5, so Algorithm 1 acts at the noisy UNHOLD.
		advance(100 * time.Microsecond)
		m.Update(victim, key, core.Prepare)
		advance(900 * time.Microsecond)
		m.Update(noisy, key, core.Unhold)
		m.Update(victim, key, core.Enter)
		advance(50 * time.Microsecond)
		m.Freeze(victim)
		m.Freeze(noisy)
		m.Activate(shared)
		m.Update(shared, key, core.Prepare)
		advance(20 * time.Microsecond)
		m.Update(shared, key, core.Enter)
		advance(80 * time.Microsecond)
		m.Freeze(shared)
		advance(time.Millisecond)
	}
	for _, p := range []*core.PBox{noisy, victim, shared} {
		_ = m.Release(p)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d records in a paced test", rec.Dropped())
	}
	log, err := ReadLog(dir)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	for _, r := range sink.recs {
		if r.Kind <= maxKind {
			seen = append(seen, r)
		}
	}
	return log.Records, seen
}

// TestReplayDifferentialIdentical: a log is complete — decoded, it replays
// exactly the record stream a plain sink beside the Recorder saw on the live
// run, verdicts included.
func TestReplayDifferentialIdentical(t *testing.T) {
	logged, seen := recordScripted(t, func(rec core.Observer) core.Observer { return rec })
	var actions int
	for _, r := range seen {
		if r.Kind == core.KindAction {
			actions++
		}
	}
	if actions == 0 {
		t.Fatal("the scripted workload took no actions; the log has no verdicts to compare")
	}
	if !slices.Equal(logged, seen) {
		t.Fatalf("decoded log has %d records, the sink saw %d", len(logged), len(seen))
	}
}

// TestRecorderBehindFlightRecorderReplaysIdentical: a log does not depend on
// who else is listening. Behind a flight recorder the Recorder logs exactly
// what its sink sees, and the same records as in front: every link forwards
// every callback, lifecycle and attribution included.
func TestRecorderBehindFlightRecorderReplaysIdentical(t *testing.T) {
	inFront, _ := recordScripted(t, func(rec core.Observer) core.Observer { return rec })
	behind, seen := recordScripted(t, func(rec core.Observer) core.Observer {
		fr := flightrec.New(flightrec.Config{Dir: t.TempDir(), Next: rec})
		t.Cleanup(fr.Close)
		return fr
	})
	if !slices.Equal(behind, seen) || !slices.Equal(behind, inFront) {
		t.Fatalf("behind a flight recorder: %d records logged, %d seen; in front %d logged", len(behind), len(seen), len(inFront))
	}
}

// TestReplayDeterministic: a recording reproduces. The same scripted run,
// recorded twice into separate logs, decodes to identical record streams, so
// nothing in the manager or the Recorder's batching leaks run-to-run order.
func TestReplayDeterministic(t *testing.T) {
	front := func(rec core.Observer) core.Observer { return rec }
	a, _ := recordScripted(t, front)
	b, _ := recordScripted(t, front)
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("two recordings of one run differ: %d records vs %d", len(a), len(b))
	}
}
