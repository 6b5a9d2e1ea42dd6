package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// In-memory spans of the traced run (choosing-metrics, section 4). Spans are
// recorded from the benchmark's own files, around the calls into each layer,
// kept in memory while the run is on and written out when it ends. A layer's
// self time is its span's duration minus the part of that interval its child
// spans cover.

// span is one recorded interval. Parent 0 marks a request root; spans of one
// request share their root's ID as ancestor. No pointers, so a buffer of
// millions costs the collector nothing to scan.
type span struct {
	ID, Parent uint64
	Start, End int64 // exec.Now nanoseconds
	Name       uint8 // index into spanNames
}

const (
	spActivity uint8 = iota
	spActivate
	spWorkerUpdate
	spFreeze
	spPairCycle
	spTierBUpdate
	spBatch
	spEncode
	spFlush
	spPing
	spCaseActivity
	spWait
	spHold
	spPenalty
)

var spanNames = [...]string{
	spActivity:     "activity",
	spActivate:     "core.activate",
	spWorkerUpdate: "core.worker_update",
	spFreeze:       "core.freeze",
	spPairCycle:    "pair_cycle",
	spTierBUpdate:  "core.tier_b_update",
	spBatch:        "batch",
	spEncode:       "wire.encode",
	spFlush:        "wire.flush",
	spPing:         "wire.ping",
	spCaseActivity: "case_activity",
	spWait:         "wait",
	spHold:         "hold",
	spPenalty:      "core.penalty",
}

// spanBuf is one generator's span store: a fixed buffer owned by a single
// goroutine, so recording takes no lock. IDs are dense per buffer (base +
// index + 1); a full buffer counts the spans it could not keep.
type spanBuf struct {
	base    uint64
	spans   []span
	dropped int64
}

// spanBufStride separates the ID ranges of a tracer's buffers.
const spanBufStride = 1 << 32

// tracer hands out span buffers; a nil *tracer means tracing is off.
type tracer struct {
	bufs []*spanBuf
}

// buffer allocates a span buffer of the given capacity. Call before the
// generators start: it is not safe for concurrent use.
func (t *tracer) buffer(capacity int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{base: uint64(len(t.bufs)+1) * spanBufStride, spans: make([]span, 0, capacity)}
	t.bufs = append(t.bufs, b)
	return b
}

// begin reserves the ID of a request root whose size-1 children are recorded
// before the root itself closes. It returns 0 when the buffer cannot hold the
// whole request, and the caller then skips tracing that request.
func (b *spanBuf) begin(size int) uint64 {
	if len(b.spans)+size > cap(b.spans) {
		b.dropped += int64(size)
		return 0
	}
	// IDs are base + 1-based slot; the root takes the slot after its
	// children, so its ID is known before it is written.
	return b.base + uint64(len(b.spans)+size)
}

// child appends a child span of root.
func (b *spanBuf) child(name uint8, root uint64, start, end int64) {
	b.spans = append(b.spans, span{ID: b.base + uint64(len(b.spans)+1), Parent: root, Start: start, End: end, Name: name})
}

// end appends the root span itself; it must follow the size-1 children of
// the begin(size) call that reserved its ID.
func (b *spanBuf) end(name uint8, start, end int64) {
	b.spans = append(b.spans, span{ID: b.base + uint64(len(b.spans)+1), Start: start, End: end, Name: name})
}

// all returns every recorded span and the number dropped.
func (t *tracer) all() ([]span, int64) {
	var out []span
	var dropped int64
	for _, b := range t.bufs {
		out = append(out, b.spans...)
		dropped += b.dropped
	}
	return out, dropped
}

// interval is a half-open [Start, End) stretch of time.
type interval struct{ Start, End int64 }

// selfTime returns the duration of parent minus the part of it that the
// children cover. Children may overlap each other and may stick out of the
// parent; covered time is counted once and only inside the parent.
func selfTime(parent interval, children []interval) int64 {
	total := parent.End - parent.Start
	if total <= 0 {
		return 0
	}
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered, reach int64
	reach = parent.Start
	for _, c := range cs {
		if c.End <= reach {
			continue
		}
		if c.Start > reach {
			reach = c.Start
		}
		covered += c.End - reach
		reach = c.End
	}
	return total - covered
}

// layerTime is one span name's totals over a trace.
type layerTime struct {
	Count  int64
	SelfNs int64 // sum of self times
	SpanNs int64 // sum of durations
}

func (l layerTime) meanSelf() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.SelfNs) / float64(l.Count)
}

// selfTimes computes every span's self time and totals them by name.
func selfTimes(spans []span) map[uint8]layerTime {
	// Group children under their parents by sorting an index on Parent.
	idx := make([]int32, 0, len(spans))
	byID := make(map[uint64]int32)
	for i, s := range spans {
		if s.Parent != 0 {
			idx = append(idx, int32(i))
		}
	}
	sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Parent < spans[idx[b]].Parent })
	// Only parents need looking up by ID.
	for i := 0; i < len(idx); {
		p := spans[idx[i]].Parent
		byID[p] = -1
		for i < len(idx) && spans[idx[i]].Parent == p {
			i++
		}
	}
	for i, s := range spans {
		if _, isParent := byID[s.ID]; isParent {
			byID[s.ID] = int32(i)
		}
	}
	covered := make(map[int32]int64) // parent index → children-covered ns
	var kids []interval
	for i := 0; i < len(idx); {
		p := spans[idx[i]].Parent
		kids = kids[:0]
		for i < len(idx) && spans[idx[i]].Parent == p {
			c := spans[idx[i]]
			kids = append(kids, interval{c.Start, c.End})
			i++
		}
		pi := byID[p]
		if pi < 0 {
			continue // parent span was not recorded
		}
		ps := spans[pi]
		covered[pi] = (ps.End - ps.Start) - selfTime(interval{ps.Start, ps.End}, kids)
	}
	out := make(map[uint8]layerTime)
	for i, s := range spans {
		d := s.End - s.Start
		if d < 0 {
			d = 0
		}
		lt := out[s.Name]
		lt.Count++
		lt.SpanNs += d
		lt.SelfNs += d - covered[int32(i)]
		out[s.Name] = lt
	}
	return out
}

// maxSpansWritten caps the span file: the totals cover every span, the file
// keeps the first ones as the browsable sample.
const maxSpansWritten = 200_000

// writeSpans writes the trace to path as JSON lines: a header with the
// totals, then one span per line.
func writeSpans(path string, spans []span, dropped int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	written := len(spans)
	if written > maxSpansWritten {
		written = maxSpansWritten
	}
	hdr := map[string]any{"spans_recorded": len(spans), "spans_written": written, "spans_dropped": dropped, "clock": "exec.Now ns"}
	err = enc.Encode(hdr)
	type line struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start"`
		End    int64  `json:"end"`
	}
	for _, s := range spans[:written] {
		if err != nil {
			break
		}
		err = enc.Encode(line{s.ID, s.Parent, spanNames[s.Name], s.Start, s.End})
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}
