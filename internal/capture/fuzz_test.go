package capture

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pbox/internal/core"
)

// FuzzSegmentDecoder feeds the PBOXCAP segment decoder arbitrary bytes — a
// capture log is read back from disk long after it was written, possibly by
// another process. It must never panic; reject a header only with
// ErrCorrupt and a record only with ErrTruncated or ErrCorrupt, leaving the
// offset at the start of the rejected record; yield at most one record per
// two bytes (the decoder allocates nothing per record, so that bounds the
// caller's allocation); and whatever it accepts must survive a re-encode:
// decoding the canonical encoding of the decoded records gives the same
// encoding again.
//
//	go test -run NONE -fuzz FuzzSegmentDecoder -fuzztime 15s ./internal/capture
func FuzzSegmentDecoder(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "v1.pblog"))
	if err != nil {
		f.Fatal(err)
	}
	// A case-sized stream: four pBoxes, long delta chains of state events on
	// a few keys, verdicts between them.
	var long []core.Record
	at := int64(1_000)
	for i := 0; i < 2000; i++ {
		id := i%4 + 1
		at += int64(i%7+1) * 1_000
		switch i % 5 {
		case 0:
			long = append(long, core.Record{Kind: core.KindActivate, PBox: id, At: at})
		case 4:
			long = append(long, core.Record{Kind: core.KindFreeze, PBox: id, At: at},
				core.Record{Kind: core.KindActivityEnd, PBox: id, Dur: int64(i), Exec: at / 10})
		default:
			long = append(long, core.Record{Kind: core.KindState, PBox: id, Key: core.ResourceKey(i % 3), Ev: core.EventType(i % 4), At: at})
		}
		if i%97 == 0 {
			long = append(long, core.Record{Kind: core.KindAction, PBox: id, Victim: id%4 + 1, Key: 1, Policy: core.PolicyScore, Dur: 200_000})
		}
	}
	// Extremes: a clock that steps back, and the widest ids, keys and levels.
	extreme := []core.Record{
		{Kind: core.KindCreate, PBox: 1 << 40, RuleType: core.Relative, Metric: core.MetricMax, Level: 1e300},
		{Kind: core.KindActivate, PBox: 1 << 40, At: 1 << 62},
		{Kind: core.KindState, PBox: 1 << 40, Key: 1<<63 + 5, Ev: core.Unhold, At: 1},
		{Kind: core.KindDetection, PBox: 1 << 40, Victim: 1, Key: 1 << 63, Level: -1},
	}
	for _, data := range [][]byte{golden, encodeSegment(long), encodeSegment(extreme)} {
		f.Add(data)
		f.Add(data[:len(data)/2]) // torn tail
	}
	f.Add([]byte("NOTALOG\x01rest"))
	f.Add([]byte(segMagic + "\x07"))
	f.Add([]byte(segMagic + "\x01\x00"))                                             // zero kind
	f.Add([]byte(segMagic + "\x01\x02\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")) // uvarint overflow

	decode := func(t *testing.T, data []byte) []core.Record {
		dec, err := newDecoder(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("header rejected with %v, want ErrCorrupt", err)
			}
			return nil
		}
		var recs []core.Record
		for {
			at := dec.off
			r, err := dec.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("record %d rejected with %v, want ErrTruncated or ErrCorrupt", len(recs), err)
				}
				if errors.Is(err, ErrTruncated) && dec.off != at {
					t.Fatalf("torn record at %d left the offset at %d", at, dec.off)
				}
				break
			}
			if dec.off < at+2 {
				t.Fatalf("record %d consumed %d bytes", len(recs), dec.off-at)
			}
			recs = append(recs, r)
		}
		return recs
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		canon := encodeSegment(decode(t, data))
		if again := encodeSegment(decode(t, canon)); !bytes.Equal(again, canon) {
			t.Fatalf("re-encoding is not a fixed point:\n first %x\nsecond %x", canon, again)
		}
	})
}
