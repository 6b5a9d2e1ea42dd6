package capture

import (
	"fmt"
	"time"

	"pbox/internal/core"
)

// Config names one set of replay options.
type Config struct {
	// Name labels the config in sweep tables and digests.
	Name string
	// Options configures the replay manager. Observer, Now, Sleep, and
	// Attribution are overwritten by Replay (they are the replay
	// mechanism); everything else — detection thresholds, penalty policy
	// bounds — is the caller's what-if knob.
	Options core.Options
	// RuleLevel, when > 0, overrides the recorded isolation-rule level of
	// every replayed pBox: the per-pBox detection-threshold knob.
	RuleLevel float64
}

// ReplayResult is a Digest plus replay bookkeeping.
type ReplayResult struct {
	Digest *Digest
	// Skipped counts input records referencing a pBox whose create record
	// is missing from the log (a log whose head was lost); nonzero means
	// digests are not comparable across runs of different logs.
	Skipped int
	// IDRemaps counts pBoxes whose replay id differed from the recorded
	// one (only possible on partial logs; on a complete log the fresh
	// manager hands out the same ids in the same order).
	IDRemaps int
}

// Replay drives a fresh Manager through the log's input records at their
// recorded manager-clock timestamps under cfg's options, and returns the
// run's digest.
//
// The replay clock is the recorded timestamps themselves: Options.Now
// returns the At of the input record currently being applied, and
// Options.Sleep is a no-op (a penalty "serves" instantly but is fully
// accounted). Because the live manager derived all bookkeeping from the
// same values (see core.Observer's StateEventAt), a replay with the options of a
// deterministic live run reproduces its decisions exactly; with different
// options it answers what the manager would have decided. Verdict records
// in the log (detection/action/served/activity_end/blocked) are annotations
// of the live run and are skipped — the replay manager re-derives its own.
//
// Replay is single-threaded and open loop: recorded timestamps do not shift
// when a replayed penalty differs from the live one. Victim relief shows up
// through the digest's credit-adjusted latencies instead (BoxDigest.CreditNs).
func Replay(log *Log, cfg Config) (*ReplayResult, error) {
	var clock int64
	col := newCollector()
	o := cfg.Options
	o.Observer = col
	o.Attribution = true
	o.Now = func() int64 { return clock }
	o.Sleep = func(time.Duration) {}
	m := core.NewManager(o)

	res := &ReplayResult{}
	boxes := make(map[int]*core.PBox, log.Info.PBoxes)
	for i := range log.Records {
		rec := &log.Records[i]
		if !isInput(rec.Kind) {
			continue
		}
		if rec.Kind == core.KindCreate {
			rule := rec.Rule()
			if cfg.RuleLevel > 0 {
				rule.Level = cfg.RuleLevel
			}
			p, err := m.Create(rule)
			if err != nil {
				return nil, fmt.Errorf("capture: replay create pbox %d: %w", rec.PBox, err)
			}
			if p.ID() != rec.PBox {
				res.IDRemaps++
			}
			boxes[rec.PBox] = p
			continue
		}
		p := boxes[rec.PBox]
		if p == nil {
			res.Skipped++
			continue
		}
		switch rec.Kind {
		case core.KindRelease:
			_ = m.Release(p)
			delete(boxes, rec.PBox)
		case core.KindActivate:
			clock = rec.At
			m.Activate(p)
		case core.KindFreeze:
			clock = rec.At
			m.Freeze(p)
		case core.KindState:
			clock = rec.At
			m.Update(p, rec.Key, rec.Ev)
		case core.KindShared:
			m.SetShared(p, rec.Dur != 0)
		}
	}
	res.Digest = col.finalize(m)
	res.Digest.Config = cfg.Name
	return res, nil
}

// LogSummary condenses the log's own annotation records — what the live run
// decided — into the same shape as a replay digest, for `pboxreplay info`
// and as the baseline column of a sweep. (It is not hashed: it summarizes a
// recording, not a deterministic run.)
func LogSummary(log *Log) *Digest {
	col := newCollector()
	for i := range log.Records {
		col.Record(log.Records[i])
	}
	d := col.finalize(nil)
	d.Hash = ""
	d.Config = "recorded"
	return d
}
