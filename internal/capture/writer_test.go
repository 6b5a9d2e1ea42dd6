package capture

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"pbox/internal/core"
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
