package capture

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"

	"pbox/internal/core"
)

// Digest is the deterministic summary of one run — live or replayed. Two
// runs that made the same decisions produce byte-identical digests (all
// fields are integers or sorted slices; Hash is a SHA-256 over the JSON
// form), which is what the differential test and the corpus determinism
// gate compare.
type Digest struct {
	// Config labels the options the run used (filled by Sweep).
	Config string `json:"config,omitempty"`

	PBoxes     int   `json:"pboxes"`
	Events     int64 `json:"events"`
	Activities int64 `json:"activities"`

	// Verdicts and actions.
	Detections      int64            `json:"detections"`
	Actions         int64            `json:"actions"`
	ActionsByPolicy map[string]int64 `json:"actions_by_policy,omitempty"`
	// PenaltyScheduledNs sums scheduled penalty lengths;
	// PenaltyServedNs sums delays actually slept.
	PenaltyScheduledNs int64 `json:"penalty_scheduled_ns"`
	PenaltyServedNs    int64 `json:"penalty_served_ns"`
	PenaltiesServed    int64 `json:"penalties_served"`

	// Aggregate activity-latency percentiles (execution time, ns) across
	// all pBoxes; Adj* subtracts each activity's modeled penalty credit
	// (see BoxDigest.CreditNs).
	RawP50 int64 `json:"raw_p50_ns"`
	RawP95 int64 `json:"raw_p95_ns"`
	RawP99 int64 `json:"raw_p99_ns"`
	AdjP50 int64 `json:"adj_p50_ns"`
	AdjP95 int64 `json:"adj_p95_ns"`
	AdjP99 int64 `json:"adj_p99_ns"`
	// Victim* are the same percentiles restricted to pBoxes that appear
	// as a victim in at least one detection this run.
	VictimRawP95 int64 `json:"victim_raw_p95_ns"`
	VictimAdjP95 int64 `json:"victim_adj_p95_ns"`

	Attribution []AttrCell  `json:"attribution,omitempty"`
	Boxes       []BoxDigest `json:"boxes,omitempty"`

	// Hash is the SHA-256 of the digest's JSON form with Hash itself
	// empty: a one-line fingerprint for determinism gates.
	Hash string `json:"hash,omitempty"`
}

// AttrCell is one attribution-matrix entry in digest form.
type AttrCell struct {
	Noisy       int    `json:"noisy"`
	Victim      int    `json:"victim"`
	Key         uint64 `json:"key"`
	BlockedNs   int64  `json:"blocked_ns"`
	Detections  int64  `json:"detections"`
	Actions     int64  `json:"actions"`
	ScheduledNs int64  `json:"scheduled_ns"`
	ServedNs    int64  `json:"served_ns"`
}

// BoxDigest is one pBox's summary.
type BoxDigest struct {
	ID         int   `json:"id"`
	Events     int64 `json:"events"`
	Activities int64 `json:"activities"`

	DetectionsAsNoisy  int64 `json:"detections_as_noisy,omitempty"`
	DetectionsAsVictim int64 `json:"detections_as_victim,omitempty"`
	ActionsAsNoisy     int64 `json:"actions_as_noisy,omitempty"`
	PenaltiesServed    int64 `json:"penalties_served,omitempty"`
	ServedNs           int64 `json:"served_ns,omitempty"`

	DeferNs int64 `json:"defer_ns"`
	ExecNs  int64 `json:"exec_ns"`
	// CreditNs totals the modeled latency credit applied to this pBox's
	// activities: each activity's adjusted latency is its execution time
	// minus min(accumulated penalty credit, its deferring time), where
	// penalties served by the pBoxes that interfered with this one accrue
	// credit (core.KindServedFor). The replay is open loop — a penalty
	// cannot un-defer an already-recorded wait — so the credit model is
	// how a config's would-be victim relief shows up in the digest.
	CreditNs int64 `json:"credit_ns,omitempty"`

	RawP50 int64 `json:"raw_p50_ns"`
	RawP95 int64 `json:"raw_p95_ns"`
	RawP99 int64 `json:"raw_p99_ns"`
	AdjP50 int64 `json:"adj_p50_ns"`
	AdjP95 int64 `json:"adj_p95_ns"`
	AdjP99 int64 `json:"adj_p99_ns"`
}

// collector accumulates a Digest from the record stream. Through the embedded
// core.RecordObserver it sits directly on a replay manager; LogSummary feeds
// it a log's records without a manager. Either way it sees the same values
// a Recorder logs — that symmetry is what makes live and replay digests
// comparable. It must only be used from deterministic single-threaded runs;
// it takes no locks of its own.
type collector struct {
	core.RecordObserver
	boxes map[int]*boxAcc
	d     Digest
}

type boxAcc struct {
	b    BoxDigest
	lats []int64
	adj  []int64
	// credit is the un-spent penalty credit accrued from culprits'
	// served penalties (KindServedFor with this box as victim).
	credit int64
}

func newCollector() *collector {
	c := &collector{
		boxes: make(map[int]*boxAcc),
		d:     Digest{ActionsByPolicy: make(map[string]int64)},
	}
	c.Sink = c
	return c
}

func (c *collector) box(id int) *boxAcc {
	a := c.boxes[id]
	if a == nil {
		a = &boxAcc{b: BoxDigest{ID: id}}
		c.boxes[id] = a
	}
	return a
}

// Record implements core.RecordSink. Kinds without an arm (release,
// activate, freeze, shared, blocked) leave the digest alone: the ledger
// totals come from Manager.Status at finalize time instead.
func (c *collector) Record(rec core.Record) {
	switch rec.Kind {
	case core.KindCreate:
		c.box(rec.PBox)
		c.d.PBoxes++
	case core.KindState:
		c.d.Events++
		c.box(rec.PBox).b.Events++
	case core.KindActivityEnd:
		// Fold the finished activity into the latency series, spending
		// accrued penalty credit against its deferring time for the
		// adjusted series.
		a := c.box(rec.PBox)
		a.b.Activities++
		c.d.Activities++
		a.b.DeferNs += rec.Dur
		a.b.ExecNs += rec.Exec
		credit := min(a.credit, rec.Dur)
		a.credit -= credit
		a.b.CreditNs += credit
		a.lats = append(a.lats, rec.Exec)
		a.adj = append(a.adj, rec.Exec-credit)
	case core.KindDetection:
		c.d.Detections++
		c.box(rec.PBox).b.DetectionsAsNoisy++
		c.box(rec.Victim).b.DetectionsAsVictim++
	case core.KindAction:
		c.d.Actions++
		c.d.ActionsByPolicy[rec.Policy.String()]++
		c.d.PenaltyScheduledNs += rec.Dur
		c.box(rec.PBox).b.ActionsAsNoisy++
	case core.KindServed:
		c.d.PenaltiesServed++
		c.d.PenaltyServedNs += rec.Dur
		a := c.box(rec.PBox)
		a.b.PenaltiesServed++
		a.b.ServedNs += rec.Dur
	case core.KindServedFor:
		// The victim accrues latency credit for the culprit's served delay.
		if rec.Victim != 0 {
			c.box(rec.Victim).credit += rec.Dur
		}
	}
}

// finalize computes percentiles, folds in the manager's attribution ledger,
// and stamps the hash.
func (c *collector) finalize(m *core.Manager) *Digest {
	d := c.d
	ids := make([]int, 0, len(c.boxes))
	for id := range c.boxes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var allRaw, allAdj, vicRaw, vicAdj []int64
	for _, id := range ids {
		a := c.boxes[id]
		a.b.RawP50, a.b.RawP95, a.b.RawP99 = percentiles(a.lats)
		a.b.AdjP50, a.b.AdjP95, a.b.AdjP99 = percentiles(a.adj)
		d.Boxes = append(d.Boxes, a.b)
		allRaw = append(allRaw, a.lats...)
		allAdj = append(allAdj, a.adj...)
		if a.b.DetectionsAsVictim > 0 {
			vicRaw = append(vicRaw, a.lats...)
			vicAdj = append(vicAdj, a.adj...)
		}
	}
	d.RawP50, d.RawP95, d.RawP99 = percentiles(allRaw)
	d.AdjP50, d.AdjP95, d.AdjP99 = percentiles(allAdj)
	_, d.VictimRawP95, _ = percentiles(vicRaw)
	_, d.VictimAdjP95, _ = percentiles(vicAdj)
	if m != nil {
		for _, rec := range m.Status().Attribution {
			d.Attribution = append(d.Attribution, AttrCell{
				Noisy:       rec.CulpritID,
				Victim:      rec.VictimID,
				Key:         uint64(rec.Key),
				BlockedNs:   int64(rec.Blocked),
				Detections:  rec.Detections,
				Actions:     rec.Actions,
				ScheduledNs: int64(rec.PenaltyScheduled),
				ServedNs:    int64(rec.PenaltyServed),
			})
		}
		sort.Slice(d.Attribution, func(i, j int) bool {
			a, b := d.Attribution[i], d.Attribution[j]
			if a.Noisy != b.Noisy {
				return a.Noisy < b.Noisy
			}
			if a.Victim != b.Victim {
				return a.Victim < b.Victim
			}
			return a.Key < b.Key
		})
	}
	d.Hash = digestHash(&d)
	return &d
}

// digestHash fingerprints the digest: SHA-256 over its JSON form with the
// Hash and Config fields cleared (the same decisions hash the same under
// any label).
func digestHash(d *Digest) string {
	clone := *d
	clone.Hash = ""
	clone.Config = ""
	b, err := json.Marshal(&clone)
	if err != nil {
		return "unhashable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// percentiles returns the p50/p95/p99 of vals (nearest-rank, deterministic;
// zeros for an empty series). vals is sorted in place.
func percentiles(vals []int64) (p50, p95, p99 int64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	rank := func(q float64) int64 {
		idx := int(q*float64(len(vals))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		return vals[idx]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}
