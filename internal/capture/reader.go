package capture

import (
	"errors"
	"fmt"
	"io"
	"os"

	"pbox/internal/core"
)

// Info summarizes a loaded log.
type Info struct {
	// Segments and Bytes describe the on-disk footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Records is the total decoded record count; ByKind breaks it down.
	Records int              `json:"records"`
	ByKind  map[string]int64 `json:"by_kind"`
	// PBoxes counts distinct pBox ids seen in create records.
	PBoxes int `json:"pboxes"`
	// FirstAt/LastAt span the manager-clock timestamps in the log (0/0
	// when no timestamped records exist).
	FirstAt int64 `json:"first_at_ns"`
	LastAt  int64 `json:"last_at_ns"`
	// Truncated is set when a segment tail tore mid-record (the expected
	// shape after a crash); decoding keeps every record before the tear.
	Truncated bool `json:"truncated,omitempty"`
}

// Log is a fully loaded capture log.
type Log struct {
	Records []core.Record
	Info    Info
}

// ReadLog loads a capture log. path may be a single segment file or a log
// directory (every *.pblog inside, in name order). A torn tail — in any
// segment, since a crash-and-restart leaves the torn segment in the middle
// of the sequence — is tolerated and flagged in Info.Truncated; genuinely
// corrupt bytes (bad magic, unknown kinds) are an error.
func ReadLog(path string) (*Log, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	segs := []string{path}
	if st.IsDir() {
		if segs, err = segmentNames(path); err != nil {
			return nil, err
		}
		if len(segs) == 0 {
			return nil, fmt.Errorf("capture: no segments in %s", path)
		}
	}
	log := &Log{Info: Info{ByKind: make(map[string]int64)}}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			return nil, err
		}
		log.Info.Segments++
		log.Info.Bytes += int64(len(data))
		dec, err := newDecoder(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", seg, err)
		}
		for {
			r, err := dec.next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				if errors.Is(err, ErrTruncated) {
					log.Info.Truncated = true
					break
				}
				return nil, fmt.Errorf("%s: %w", seg, err)
			}
			log.add(r)
		}
	}
	return log, nil
}

// add appends one record and folds it into the summary.
func (l *Log) add(r core.Record) {
	l.Records = append(l.Records, r)
	l.Info.Records++
	l.Info.ByKind[r.Kind.String()]++
	if r.Kind == core.KindCreate {
		l.Info.PBoxes++
	}
	if timestamped(r.Kind) {
		if l.Info.FirstAt == 0 || r.At < l.Info.FirstAt {
			l.Info.FirstAt = r.At
		}
		if r.At > l.Info.LastAt {
			l.Info.LastAt = r.At
		}
	}
}
