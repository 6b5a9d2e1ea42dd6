package core

import (
	"sort"
	"time"
)

// This file implements the interference attribution ledger: for every
// (culprit pBox, victim pBox, virtual resource) triple the manager has seen
// interact, it accumulates how long the culprit's holds blocked the victim,
// how many detection verdicts Algorithm 1 reached against the pair, how many
// penalty actions were scheduled, and how much penalty time was scheduled
// and actually served. The aggregate counters in internal/telemetry can say
// "defer ratios are rising"; the ledger answers the operator's question —
// who delayed whom, on what, and for how long (the paper's Section 8
// diagnosis story made quantitative).
//
// The ledger is enabled by Options.Attribution. When disabled it costs a
// single nil check per site and zero allocations, the same discipline as the
// Observer hooks. When enabled, the only allocations are the first touch of
// a new triple; steady-state updates are field increments on an existing
// entry under the verdict lock the call site already holds — the ledger only
// ever grows on the cold contention path, never on the no-contention fast
// path.

// AttributionObserver is an optional extension of Observer. If the Observer
// passed in Options also implements this interface, the manager delivers the
// per-triple attribution stream: Blocked fires (under manager locks, like
// StateEventAt) whenever a culprit's hold is found to have overlapped a
// victim's wait, and PenaltyServedFor fires (outside the locks, like
// PenaltyServed) when a served penalty is attributable to a specific
// (victim, resource) — which it always is, because the manager never stacks
// a second action onto an unserved penalty.
type AttributionObserver interface {
	// Blocked reports that culprit's hold on key overlapped victim's wait
	// for deferNs nanoseconds, measured at the culprit's UNHOLD.
	Blocked(culpritID, victimID int, key ResourceKey, deferNs int64)
	// PenaltyServedFor reports a served penalty together with the victim
	// and resource whose detection scheduled it.
	PenaltyServedFor(culpritID, victimID int, key ResourceKey, d time.Duration)
}

// attrKey identifies one ledger entry.
type attrKey struct {
	culprit int
	victim  int
	key     ResourceKey
}

// attrEntry is the mutable accounting for one triple. Guarded by
// m.verdictMu.
type attrEntry struct {
	blockedNs   int64
	detections  int64
	actions     int64
	scheduledNs int64
	servedNs    int64
	// Last-seen pBox labels, kept so the ledger stays readable after the
	// pBoxes are released (connection closed, task finished).
	culpritLabel string
	victimLabel  string
}

// maxAttrEntries bounds the ledger so a pathological workload (unbounded
// pBox churn against many resources) cannot grow manager memory without
// limit. New triples beyond the cap are counted, not recorded.
const maxAttrEntries = 4096

// attributionLedger is the per-manager triple store. Guarded by m.verdictMu.
type attributionLedger struct {
	entries map[attrKey]*attrEntry
	order   []attrKey // insertion order, for deterministic reports
	dropped int64
}

func newAttributionLedger() *attributionLedger {
	return &attributionLedger{entries: make(map[attrKey]*attrEntry)}
}

// attrVerdict finds or creates the ledger entry for (culprit, victim, key)
// and refreshes the cached labels. Returns nil when attribution is disabled
// or the ledger is full. Caller holds m.verdictMu.
func (m *Manager) attrVerdict(culprit, victim *PBox, key ResourceKey) *attrEntry {
	if m.attr == nil {
		return nil
	}
	k := attrKey{culprit: culprit.id, victim: victim.id, key: key}
	e := m.attr.entries[k]
	if e == nil {
		if len(m.attr.entries) >= maxAttrEntries {
			m.attr.dropped++
			return nil
		}
		e = &attrEntry{}
		m.attr.entries[k] = e
		m.attr.order = append(m.attr.order, k)
	}
	if l := culprit.labelString(); l != "" {
		e.culpritLabel = l
	}
	if l := victim.labelString(); l != "" {
		e.victimLabel = l
	}
	return e
}

// attrByIDVerdict looks up an existing entry without creating one (used on
// the served path, where the victim pBox may already be gone). Caller holds
// m.verdictMu.
func (m *Manager) attrByIDVerdict(culpritID, victimID int, key ResourceKey) *attrEntry {
	if m.attr == nil {
		return nil
	}
	return m.attr.entries[attrKey{culprit: culpritID, victim: victimID, key: key}]
}

// AttributionRecord is the read-only view of one ledger entry: the causal
// chain behind penalties, exported by /attribution and pboxctl top.
type AttributionRecord struct {
	CulpritID    int
	CulpritLabel string
	VictimID     int
	VictimLabel  string
	Key          ResourceKey
	Resource     string // registered resource name, "" when unnamed
	// Blocked is the total time the culprit's holds overlapped the
	// victim's waits on the resource.
	Blocked time.Duration
	// Detections counts verdicts (including ones whose action was
	// suppressed by a pending penalty or cooldown); Actions counts
	// scheduled penalties.
	Detections int64
	Actions    int64
	// PenaltyScheduled and PenaltyServed are the penalty time scheduled by
	// take_action and actually slept for this triple.
	PenaltyScheduled time.Duration
	PenaltyServed    time.Duration
}

// attributionVerdict builds the report, most-blocking triple first (nil when
// Options.Attribution was not set). Caller holds the registry lock — the
// live table resolves current labels — and m.verdictMu.
func (m *Manager) attributionVerdict() []AttributionRecord {
	if m.attr == nil {
		return nil
	}
	out := make([]AttributionRecord, 0, len(m.attr.order))
	for _, k := range m.attr.order {
		e := m.attr.entries[k]
		rec := AttributionRecord{
			CulpritID:        k.culprit,
			CulpritLabel:     e.culpritLabel,
			VictimID:         k.victim,
			VictimLabel:      e.victimLabel,
			Key:              k.key,
			Resource:         m.ResourceName(k.key),
			Blocked:          time.Duration(e.blockedNs),
			Detections:       e.detections,
			Actions:          e.actions,
			PenaltyScheduled: time.Duration(e.scheduledNs),
			PenaltyServed:    time.Duration(e.servedNs),
		}
		// Live pBoxes may have been relabeled since the last ledger touch.
		if p := m.reg.pboxes[k.culprit]; p != nil {
			if l := p.labelString(); l != "" {
				rec.CulpritLabel = l
			}
		}
		if p := m.reg.pboxes[k.victim]; p != nil {
			if l := p.labelString(); l != "" {
				rec.VictimLabel = l
			}
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Blocked != out[j].Blocked {
			return out[i].Blocked > out[j].Blocked
		}
		if out[i].CulpritID != out[j].CulpritID {
			return out[i].CulpritID < out[j].CulpritID
		}
		if out[i].VictimID != out[j].VictimID {
			return out[i].VictimID < out[j].VictimID
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Status is a consistent combined view of the manager: the per-pBox
// snapshots and the attribution ledger, read under one stop-the-world
// acquisition so an exporter (or incident dump) never pairs a pBox list
// from one instant with a ledger from another.
type Status struct {
	Snapshots   []Snapshot
	Attribution []AttributionRecord
	// AttributionDropped counts triples lost to the ledger size cap.
	AttributionDropped int64
	// Resources summarizes per-resource contention (live waiter and holder
	// counts), ordered by key.
	Resources []ResourceView
	// TraceSeq is the trace ring's latest sequence number at snapshot time,
	// numbered by the rebuild (0 when tracing is disabled): the cursor a
	// reader passes to TraceView to stream events newer than this view.
	TraceSeq uint64
}

// Status is the precise read: RefreshStatusView's freshly built contents,
// so every event issued before the call is visible. Most consumers should
// use StatusView (one atomic load); this is for the ones that need
// exactness — differential tests, replay digests, shutdown drains.
func (m *Manager) Status() Status {
	return m.RefreshStatusView().Status
}
