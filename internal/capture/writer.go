package capture

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pbox/internal/core"
)

// RecorderConfig configures a Recorder.
type RecorderConfig struct {
	// Dir is the log directory; segments are created as seg-NNNNNN.pblog.
	// It is created if missing. If it already holds segments (a restart
	// after a crash), numbering continues after the highest existing
	// segment — old segments are never reopened or truncated.
	Dir string
	// QueueSize is the capacity of each of the two enqueue buffers
	// (records, not bytes). When the active buffer is full the record is
	// dropped and Dropped() incremented — the hot path never blocks on the
	// writer. Default 8192.
	QueueSize int
	// SegmentBytes is the rotation threshold: when the current segment
	// exceeds it (checked at batch boundaries), the segment is synced,
	// closed, and a new one started. Default 4 MiB.
	SegmentBytes int
	// Next is the downstream observer every callback is forwarded to after
	// it is logged (the usual chain pattern, like flightrec's). May be nil.
	Next core.Observer
}

// Recorder is the capture sink: the embedded core.RecordObserver makes it a
// core.Observer and core.AttributionObserver whose every callback arrives at
// Record as one value and is then forwarded to Config.Next, and Record
// streams those values to disk as a binary log ReadLog decodes. Because
// the adapter forwards every callback, the log is the same wherever the
// Recorder sits in an observer chain.
//
// The hot path (Record, called under manager locks) only copies the value
// into a preallocated buffer under a private mutex and pokes a notification
// channel — no allocation, no I/O, no manager re-entry (pboxlint's
// hotpathalloc and reentry passes check this). A background goroutine swaps
// the double buffers, encodes the batch, and appends it to the current
// segment file.
type Recorder struct {
	core.RecordObserver

	mu     sync.Mutex
	active []core.Record // enqueue side of the double buffer
	n      int

	dropped atomic.Int64
	closed  atomic.Bool
	wErr    atomic.Value // first writer error, type error

	// posSeg/posOff publish the writer's durable position (current segment
	// index and its byte length after the last flushed batch) for Position.
	posSeg atomic.Int64
	posOff atomic.Int64

	wake chan struct{}
	quit chan struct{}
	done chan struct{}

	// Writer-goroutine state (no locking: only the writer touches these).
	spare      []core.Record
	enc        encoder
	dir        string
	segBytes   int
	seg        *os.File
	segIndex   int
	segWritten int
}

// NewRecorder creates the log directory and starts the writer goroutine.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 8192
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("capture: create log dir: %w", err)
	}
	last, err := lastSegmentIndex(cfg.Dir)
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		active:   make([]core.Record, cfg.QueueSize),
		spare:    make([]core.Record, cfg.QueueSize),
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		dir:      cfg.Dir,
		segBytes: cfg.SegmentBytes,
		segIndex: last,
	}
	r.RecordObserver = core.RecordObserver{Sink: r, Next: cfg.Next}
	if err := r.rotate(); err != nil {
		return nil, err
	}
	go r.run()
	return r, nil
}

// Close flushes buffered records, syncs and closes the current segment, and
// stops the writer. Further callbacks are dropped silently. It returns the
// first writer error, if any.
func (r *Recorder) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		<-r.done
		return r.Err()
	}
	close(r.quit)
	<-r.done
	return r.Err()
}

// Dropped returns how many records were discarded because the bounded queue
// was full (the writer could not keep up).
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }

// Position reports where the log currently ends: the active segment's file
// name, its byte length after the most recently flushed batch, and how many
// records are still queued in memory. A record enqueued now lands within
// `queued+1` records of (segment, offset) — the flight recorder stamps this
// into incident bundles so a verdict can be located in the capture log.
func (r *Recorder) Position() (segment string, offset int64, queued int) {
	r.mu.Lock()
	queued = r.n
	r.mu.Unlock()
	return filepath.Base(segmentPath(r.dir, int(r.posSeg.Load()))), r.posOff.Load(), queued
}

// Err returns the first error the writer hit, or nil.
func (r *Recorder) Err() error {
	if e, ok := r.wErr.Load().(error); ok {
		return e
	}
	return nil
}

// Record implements core.RecordSink: it copies rec into the active buffer,
// or counts a drop when full. KindServedFor is not part of the on-disk
// format (the KindServed record before it carries the same duration).
//
//pbox:hotpath
func (r *Recorder) Record(rec core.Record) {
	if r.closed.Load() || rec.Kind > maxKind {
		return
	}
	r.mu.Lock()
	if r.n == len(r.active) {
		r.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	r.active[r.n] = rec
	r.n++
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// run is the writer goroutine: drain on every wake-up, then once more on
// shutdown before closing the segment.
func (r *Recorder) run() {
	defer close(r.done)
	for {
		select {
		case <-r.wake:
			r.drain()
		case <-r.quit:
			r.drain()
			if r.seg != nil {
				r.fail(r.seg.Sync())
				r.fail(r.seg.Close())
				r.seg = nil
			}
			return
		}
	}
}

// drain swaps the double buffer and appends the batch to the current
// segment, rotating first when the segment is over threshold.
func (r *Recorder) drain() {
	r.mu.Lock()
	batch := r.active[:r.n]
	r.active, r.spare = r.spare, r.active
	r.n = 0
	r.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	if r.segWritten >= r.segBytes {
		if err := r.rotate(); err != nil {
			r.fail(err)
			return
		}
	}
	if r.seg == nil {
		return // a previous write error already poisoned the recorder
	}
	r.enc.buf = r.enc.buf[:0]
	for i := range batch {
		r.enc.record(&batch[i])
	}
	n, err := r.seg.Write(r.enc.buf)
	r.segWritten += n
	r.posOff.Store(int64(r.segWritten))
	r.fail(err)
}

// rotate syncs and closes the current segment and opens the next one. The
// closed segment is complete and immutable from here on — a crash can only
// tear the tail of the newest segment, which the decoder tolerates.
func (r *Recorder) rotate() error {
	if r.seg != nil {
		if err := r.seg.Sync(); err != nil {
			return err
		}
		if err := r.seg.Close(); err != nil {
			return err
		}
		r.seg = nil
	}
	r.segIndex++
	f, err := os.OpenFile(segmentPath(r.dir, r.segIndex), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	r.enc.reset() // the timestamp delta chain restarts per segment
	r.enc.header()
	if _, err := f.Write(r.enc.buf); err != nil {
		f.Close()
		return err
	}
	r.seg = f
	// segWritten counts the header too, so Position offsets are real file
	// offsets.
	r.segWritten = len(r.enc.buf)
	r.posSeg.Store(int64(r.segIndex))
	r.posOff.Store(int64(r.segWritten))
	r.enc.buf = r.enc.buf[:0]
	return nil
}

// fail records the writer's first error and drops the segment handle so
// later batches stop writing.
func (r *Recorder) fail(err error) {
	if err == nil {
		return
	}
	r.wErr.CompareAndSwap(nil, err)
	if r.seg != nil {
		r.seg.Close()
		r.seg = nil
	}
}

func segmentPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.pblog", idx))
}

// lastSegmentIndex returns the highest existing segment number in dir (0
// when empty).
func lastSegmentIndex(dir string) (int, error) {
	names, err := segmentNames(dir)
	if err != nil {
		return 0, err
	}
	last := 0
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.pblog", &idx); err == nil && idx > last {
			last = idx
		}
	}
	return last, nil
}

// segmentNames lists dir's segment files in log order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".pblog") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	return names, nil
}
