package capture

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pbox/internal/core"
)

// randomRecord generates one record with kind-appropriate fields. lastAt
// threads the (mostly increasing, occasionally regressing — spool flushes
// interleave old timestamps) manager clock through the stream.
func randomRecord(rng *rand.Rand, lastAt *int64) core.Record {
	kinds := []core.Kind{
		core.KindCreate, core.KindRelease, core.KindActivate, core.KindFreeze, core.KindState,
		core.KindDetection, core.KindAction, core.KindServed, core.KindActivityEnd,
		core.KindBlocked, core.KindShared,
	}
	k := kinds[rng.Intn(len(kinds))]
	r := core.Record{Kind: k, PBox: rng.Intn(64) + 1}
	stamp := func() {
		*lastAt += rng.Int63n(5_000_000) - 1_000_000
		r.At = *lastAt
	}
	switch k {
	case core.KindCreate:
		r.RuleType = core.Relative
		r.Metric = core.Metric(rng.Intn(3))
		r.Level = math.Trunc(rng.Float64()*1000) / 100
	case core.KindActivate, core.KindFreeze:
		stamp()
	case core.KindState:
		r.Ev = core.EventType(rng.Intn(4))
		r.Key = core.ResourceKey(rng.Uint64() >> 16)
		stamp()
	case core.KindDetection:
		r.Victim = rng.Intn(64) + 1
		r.Key = core.ResourceKey(rng.Uint64() >> 16)
		r.Level = rng.Float64() * 10
	case core.KindAction:
		r.Victim = rng.Intn(64) + 1
		r.Key = core.ResourceKey(rng.Uint64() >> 16)
		r.Policy = core.PolicyKind(rng.Intn(4))
		r.Dur = rng.Int63n(20_000_000)
	case core.KindServed:
		r.Dur = rng.Int63n(20_000_000)
	case core.KindActivityEnd:
		r.Dur = rng.Int63n(1_000_000)
		r.Exec = r.Dur + rng.Int63n(10_000_000)
	case core.KindBlocked:
		r.Victim = rng.Intn(64) + 1
		r.Key = core.ResourceKey(rng.Uint64() >> 16)
		r.Dur = rng.Int63n(1_000_000)
	case core.KindShared:
		r.Dur = int64(rng.Intn(2))
	}
	return r
}

// encodeSegment serializes records as one complete segment.
func encodeSegment(recs []core.Record) []byte {
	var e encoder
	e.reset()
	e.header()
	for i := range recs {
		e.record(&recs[i])
	}
	return append([]byte(nil), e.buf...)
}

// decodeSegment decodes a full segment, failing the test on any error.
func decodeSegment(t *testing.T, data []byte) []core.Record {
	t.Helper()
	dec, err := newDecoder(data)
	if err != nil {
		t.Fatalf("newDecoder: %v", err)
	}
	var out []core.Record
	for {
		r, err := dec.next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("decode record %d: %v", len(out), err)
		}
		out = append(out, r)
	}
}

// TestCodecRoundTripProperty encodes random streams and checks the decode
// reproduces them exactly, across many seeds.
func TestCodecRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var lastAt int64
		recs := make([]core.Record, rng.Intn(500)+1)
		for i := range recs {
			recs[i] = randomRecord(rng, &lastAt)
		}
		got := decodeSegment(t, encodeSegment(recs))
		if len(got) != len(recs) {
			t.Fatalf("seed %d: decoded %d records, want %d", seed, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("seed %d: record %d mismatch:\n got %+v\nwant %+v", seed, i, got[i], recs[i])
			}
		}
	}
}

// TestCodecTruncatedTail cuts an encoded segment at every byte offset: the
// decoder must yield a clean prefix of the stream (EOF or ErrTruncated,
// never ErrCorrupt, never wrong records).
func TestCodecTruncatedTail(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var lastAt int64
	recs := make([]core.Record, 60)
	for i := range recs {
		recs[i] = randomRecord(rng, &lastAt)
	}
	full := encodeSegment(recs)
	for cut := headerLen; cut < len(full); cut++ {
		dec, err := newDecoder(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		var got []core.Record
		for {
			r, err := dec.next()
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, ErrTruncated) {
					break
				}
				t.Fatalf("cut %d: unexpected error after %d records: %v", cut, len(got), err)
			}
			got = append(got, r)
		}
		if len(got) > len(recs) {
			t.Fatalf("cut %d: decoded more records than encoded", cut)
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("cut %d: record %d mismatch", cut, i)
			}
		}
	}
}

// TestCodecCorrupt checks that garbage is reported as corruption, not
// silently decoded.
func TestCodecCorrupt(t *testing.T) {
	if _, err := newDecoder([]byte("NOTALOG\x01rest")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}
	if _, err := newDecoder([]byte(segMagic + "\x07")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad version: err = %v, want ErrCorrupt", err)
	}
	// A zero kind byte mid-stream is corruption (kinds start at 1).
	seg := encodeSegment([]core.Record{{Kind: core.KindRelease, PBox: 3}})
	seg = append(seg, 0x00)
	dec, err := newDecoder(seg)
	if err != nil {
		t.Fatalf("newDecoder: %v", err)
	}
	if _, err := dec.next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if _, err := dec.next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero kind: err = %v, want ErrCorrupt", err)
	}
}

// goldenRecords is a fixed stream covering every kind; the committed golden
// file pins its encoded bytes as format v1.
func goldenRecords() []core.Record {
	return []core.Record{
		{Kind: core.KindCreate, PBox: 1, RuleType: core.Relative, Metric: core.MetricAverage, Level: 0.5},
		{Kind: core.KindCreate, PBox: 2, RuleType: core.Relative, Metric: core.MetricAverage, Level: 20},
		{Kind: core.KindShared, PBox: 2, Dur: 1},
		{Kind: core.KindActivate, PBox: 1, At: 1_000},
		{Kind: core.KindActivate, PBox: 2, At: 2_500},
		{Kind: core.KindState, PBox: 2, Key: 42, Ev: core.Hold, At: 3_000},
		{Kind: core.KindState, PBox: 1, Key: 42, Ev: core.Prepare, At: 4_000},
		{Kind: core.KindState, PBox: 2, Key: 42, Ev: core.Unhold, At: 900_000},
		{Kind: core.KindDetection, PBox: 2, Victim: 1, Key: 42, Level: 8.9},
		{Kind: core.KindAction, PBox: 2, Victim: 1, Key: 42, Policy: core.PolicyInitial, Dur: 250_000},
		{Kind: core.KindBlocked, PBox: 2, Victim: 1, Key: 42, Dur: 896_000},
		{Kind: core.KindServed, PBox: 2, Dur: 250_000},
		{Kind: core.KindState, PBox: 1, Key: 42, Ev: core.Enter, At: 901_000},
		{Kind: core.KindFreeze, PBox: 1, At: 950_000},
		{Kind: core.KindActivityEnd, PBox: 1, Dur: 896_000, Exec: 949_000},
		{Kind: core.KindFreeze, PBox: 2, At: 1_200_000},
		{Kind: core.KindActivityEnd, PBox: 2, Dur: 0, Exec: 1_197_500},
		{Kind: core.KindRelease, PBox: 1},
		{Kind: core.KindRelease, PBox: 2},
	}
}

// TestCodecGoldenFile pins the on-disk format: the committed v1 golden file
// must decode to the fixed stream, and re-encoding the stream must
// reproduce the file byte for byte. If this test fails after a codec
// change, the format changed — bump formatVersion instead of regenerating.
func TestCodecGoldenFile(t *testing.T) {
	path := filepath.Join("testdata", "golden", "v1.pblog")
	want := encodeSegment(goldenRecords())
	if os.Getenv("PBOX_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (generate with: PBOX_REGEN_GOLDEN=1 go test -run TestCodecGoldenFile ./internal/capture): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden file diverges from encoder output: file %d bytes, encoder %d bytes — the on-disk format changed", len(got), len(want))
	}
	recs := decodeSegment(t, got)
	wantRecs := goldenRecords()
	if len(recs) != len(wantRecs) {
		t.Fatalf("golden decoded %d records, want %d", len(recs), len(wantRecs))
	}
	for i := range recs {
		if recs[i] != wantRecs[i] {
			t.Fatalf("golden record %d:\n got %+v\nwant %+v", i, recs[i], wantRecs[i])
		}
	}
}
