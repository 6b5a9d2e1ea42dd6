package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pbox/internal/core"
)

// The on-disk format, pinned by testdata/golden (see codec_test.go):
//
//	segment  = magic version *record
//	magic    = "PBOXCAP" (7 bytes)
//	version  = 0x01
//	record   = kind fields…
//
// Fields are unsigned varints (ids, keys, enums, float bits) or signed
// zigzag varints (durations, timestamp deltas). The three timestamped kinds
// (activate, freeze, state) encode At as a zigzag delta against the previous
// timestamped record in the same segment — the chain resets at every segment
// boundary so any complete segment decodes standalone. Per kind:
//
//	create       pbox, ruleType, metric, float64bits(level)
//	release      pbox
//	activate     pbox, Δat
//	freeze       pbox, Δat
//	state        pbox, ev, key, Δat
//	detection    pbox, victim, key, float64bits(projected)
//	action       pbox, victim, key, policy, dur
//	served       pbox, dur
//	activity_end pbox, dur(defer), exec
//	blocked      pbox, victim, key, dur
//	shared       pbox, flag
//
// The format only ever appends record kinds; existing kinds are never
// renumbered or re-shaped (a version bump would be).

const (
	segMagic      = "PBOXCAP"
	formatVersion = 1
	headerLen     = len(segMagic) + 1
)

// ErrTruncated marks a segment whose tail stops mid-record — the expected
// shape after a crash; every record before the tear decodes normally.
var ErrTruncated = errors.New("capture: truncated record at segment tail")

// ErrCorrupt marks bytes that cannot be a record at all (bad magic, unknown
// kind, varint overflow).
var ErrCorrupt = errors.New("capture: corrupt segment")

// encoder serializes records into a reusable buffer. lastAt carries the
// timestamp-delta chain; reset it (via reset) at every segment boundary.
type encoder struct {
	buf    []byte
	lastAt int64
}

// reset clears the buffer and the delta chain for a new segment.
func (e *encoder) reset() {
	e.buf = e.buf[:0]
	e.lastAt = 0
}

// header appends the segment header.
func (e *encoder) header() {
	e.buf = append(e.buf, segMagic...)
	e.buf = append(e.buf, formatVersion)
}

func (e *encoder) u(v uint64)             { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) s(v int64)              { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) id(v int)               { e.u(uint64(v)) }
func (e *encoder) key(k core.ResourceKey) { e.u(uint64(k)) }

// at appends a timestamp as a zigzag delta and advances the chain.
func (e *encoder) at(v int64) {
	e.s(v - e.lastAt)
	e.lastAt = v
}

// record appends one record.
func (e *encoder) record(r *core.Record) {
	e.buf = append(e.buf, byte(r.Kind))
	switch r.Kind {
	case core.KindCreate:
		e.id(r.PBox)
		e.u(uint64(r.RuleType))
		e.u(uint64(r.Metric))
		e.u(math.Float64bits(r.Level))
	case core.KindRelease:
		e.id(r.PBox)
	case core.KindActivate, core.KindFreeze:
		e.id(r.PBox)
		e.at(r.At)
	case core.KindState:
		e.id(r.PBox)
		e.u(uint64(r.Ev))
		e.key(r.Key)
		e.at(r.At)
	case core.KindDetection:
		e.id(r.PBox)
		e.id(r.Victim)
		e.key(r.Key)
		e.u(math.Float64bits(r.Level))
	case core.KindAction:
		e.id(r.PBox)
		e.id(r.Victim)
		e.key(r.Key)
		e.u(uint64(r.Policy))
		e.s(r.Dur)
	case core.KindServed:
		e.id(r.PBox)
		e.s(r.Dur)
	case core.KindActivityEnd:
		e.id(r.PBox)
		e.s(r.Dur)
		e.s(r.Exec)
	case core.KindBlocked:
		e.id(r.PBox)
		e.id(r.Victim)
		e.key(r.Key)
		e.s(r.Dur)
	case core.KindShared:
		e.id(r.PBox)
		e.s(r.Dur)
	}
}

// decoder walks one segment held in memory. Segments are bounded by the
// writer's rotation threshold, so whole-segment reads are cheap and make
// truncation handling trivial (offsets instead of stateful partial reads).
type decoder struct {
	data   []byte
	off    int
	lastAt int64
}

// newDecoder validates the segment header.
func newDecoder(data []byte) (*decoder, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := data[len(segMagic)]; v != formatVersion {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrCorrupt, v)
	}
	return &decoder{data: data, off: headerLen}, nil
}

// next decodes the next record. It returns io.EOF at a clean segment end,
// ErrTruncated when the segment tears mid-record, and ErrCorrupt for bytes
// that cannot be a record.
func (d *decoder) next() (core.Record, error) {
	if d.off >= len(d.data) {
		return core.Record{}, io.EOF
	}
	start := d.off
	k := core.Kind(d.data[d.off])
	d.off++
	if k == 0 || k > maxKind {
		return core.Record{}, fmt.Errorf("%w: unknown record kind %d at offset %d", ErrCorrupt, k, start)
	}
	r := core.Record{Kind: k}
	var err error
	fail := func() (core.Record, error) {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return core.Record{}, fmt.Errorf("%w (offset %d)", ErrTruncated, start)
		}
		return core.Record{}, fmt.Errorf("%w: %v at offset %d", ErrCorrupt, err, start)
	}
	u := func() uint64 {
		if err != nil {
			return 0
		}
		v, n := binary.Uvarint(d.data[d.off:])
		if n <= 0 {
			if n == 0 {
				err = io.ErrUnexpectedEOF
			} else {
				err = errors.New("uvarint overflow")
			}
			return 0
		}
		d.off += n
		return v
	}
	s := func() int64 {
		if err != nil {
			return 0
		}
		v, n := binary.Varint(d.data[d.off:])
		if n <= 0 {
			if n == 0 {
				err = io.ErrUnexpectedEOF
			} else {
				err = errors.New("varint overflow")
			}
			return 0
		}
		d.off += n
		return v
	}
	at := func() int64 {
		v := d.lastAt + s()
		if err == nil {
			d.lastAt = v
		}
		return v
	}
	switch k {
	case core.KindCreate:
		r.PBox = int(u())
		r.RuleType = core.RuleType(u())
		r.Metric = core.Metric(u())
		r.Level = math.Float64frombits(u())
	case core.KindRelease:
		r.PBox = int(u())
	case core.KindActivate, core.KindFreeze:
		r.PBox = int(u())
		r.At = at()
	case core.KindState:
		r.PBox = int(u())
		r.Ev = core.EventType(u())
		r.Key = core.ResourceKey(u())
		r.At = at()
	case core.KindDetection:
		r.PBox = int(u())
		r.Victim = int(u())
		r.Key = core.ResourceKey(u())
		r.Level = math.Float64frombits(u())
	case core.KindAction:
		r.PBox = int(u())
		r.Victim = int(u())
		r.Key = core.ResourceKey(u())
		r.Policy = core.PolicyKind(u())
		r.Dur = s()
	case core.KindServed:
		r.PBox = int(u())
		r.Dur = s()
	case core.KindActivityEnd:
		r.PBox = int(u())
		r.Dur = s()
		r.Exec = s()
	case core.KindBlocked:
		r.PBox = int(u())
		r.Victim = int(u())
		r.Key = core.ResourceKey(u())
		r.Dur = s()
	case core.KindShared:
		r.PBox = int(u())
		r.Dur = s()
	}
	if err != nil {
		d.off = start // rewind so callers see a stable tear offset
		return fail()
	}
	return r, nil
}
