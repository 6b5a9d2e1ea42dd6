package core

import (
	"sort"
	"sync/atomic"
	"time"

	"pbox/internal/exec"
	"pbox/internal/stats"
)

// Epoch-based snapshot reads (DESIGN.md §12): the immutable StatusView is
// the only way manager state leaves this package. Assembling one stops the
// world — it flushes every hinted spool and takes every shard lock in index
// order — so a dashboard poller doing that per request against a manager
// ingesting millions of events per second would itself be a source of
// cross-pBox interference, exactly the effect the isolation layer exists to
// prevent. Instead the manager publishes the view through one atomic
// pointer, readers load it with no locks and no flushes, and it is rebuilt
// at most once per SnapshotInterval (bounded staleness). A consumer that
// needs every event issued so far to be visible asks for the rebuild
// explicitly (RefreshStatusView, or Status for just the contents).
//
// Epoch protocol: a reader that finds the published view older than the
// interval escalates to rebuildView, which single-flights concurrent
// escalations on Manager.snap (the outermost lock in the §8 order — the
// rebuild sweeps spools and stops the world under it), double-checks the
// view age, runs collectStatus, and publishes the result with Epoch =
// previous+1. Readers therefore observe a strictly monotonic epoch sequence
// of internally-consistent views, and a returned view's manager-clock age
// never exceeds the interval.

// SnapshotInterval is the bounded-staleness budget of the snapshot read
// path: StatusView returns the published view while its manager-clock age is
// within the interval and rebuilds otherwise.
const SnapshotInterval = 100 * time.Millisecond

// ResourceView is the per-resource contention summary of a snapshot: how
// many pBoxes wait on and hold one virtual resource.
type ResourceView struct {
	Key     ResourceKey
	Name    string // registered resource name, "" when unnamed
	Waiters int
	Holders int
}

// StatusView is one immutable published snapshot: the combined Status
// assembly plus the epoch metadata readers use to judge staleness. A view
// is never mutated after publication — readers may hold it indefinitely.
type StatusView struct {
	Status

	// Epoch increments by one on every rebuild (first view is 1).
	Epoch uint64
	// BuiltAt is the manager-clock time (ns) at which the build completed.
	// A view returned by StatusView satisfies now-BuiltAt ≤ SnapshotInterval
	// at return time — the bounded-staleness contract.
	BuiltAt int64
	// BuildDuration is the wall-clock cost of the stop-the-world assembly
	// that produced this view (real clock, independent of Options.Now).
	BuildDuration time.Duration
}

// StatusView returns the current published snapshot, rebuilding it first if
// it is older than SnapshotInterval (or absent). The common case is
// one atomic pointer load and one clock read: no shard locks, no spool
// flushes, no allocation — a poller at any frequency costs the event hot
// path nothing beyond one rebuild per interval.
//
//pbox:snapshotreader
func (m *Manager) StatusView() *StatusView {
	now := m.opts.Now()
	if v := m.snap.view.Load(); v != nil && now-v.BuiltAt <= int64(SnapshotInterval) {
		m.self.snapshotHits.Add(1)
		return v
	}
	return m.rebuildView(now, false)
}

// RefreshStatusView forces a rebuild and returns the fresh view: every event
// issued before the call — including records still sitting in worker spools
// — is visible in the result. It is the one precise escalation of the read
// path; the flight recorder builds every incident bundle from it, so the
// verdict that fired is in the bundle.
func (m *Manager) RefreshStatusView() *StatusView {
	return m.rebuildView(m.opts.Now(), true)
}

// ViewAge returns v's manager-clock age (0 for nil).
//
//pbox:snapshotreader
func (m *Manager) ViewAge(v *StatusView) time.Duration {
	if v == nil {
		return 0
	}
	return time.Duration(m.opts.Now() - v.BuiltAt)
}

// rebuildView is the sanctioned escalation of the snapshot read path: it
// single-flights concurrent rebuilds on m.snap, re-checks the published
// view's age under the lock (unless forced), and otherwise runs the
// stop-the-world assembly and publishes the result. m.snap is the outermost
// lock of the §8 order; nothing that holds any manager lock may call this.
//
//pbox:snapshotbuilder
func (m *Manager) rebuildView(now int64, force bool) *StatusView {
	m.snap.Lock()
	defer m.snap.Unlock()
	if !force {
		// Double-check: a rebuild that raced this one may have published a
		// fresh view while this caller waited on snap.
		if v := m.snap.view.Load(); v != nil && now-v.BuiltAt <= int64(SnapshotInterval) {
			m.self.snapshotHits.Add(1)
			return v
		}
	}
	t0 := exec.Now()
	st := m.collectStatus()
	v := &StatusView{
		Status:        st,
		Epoch:         1,
		BuiltAt:       m.opts.Now(),
		BuildDuration: time.Duration(exec.Now() - t0),
	}
	if prev := m.snap.view.Load(); prev != nil {
		v.Epoch = prev.Epoch + 1
	}
	m.snap.view.Store(v)
	m.self.snapshotBuilds.Add(1)
	m.self.snapshotLastBuildNs.Store(int64(v.BuildDuration))
	m.self.snapshotBuildTotalNs.Add(int64(v.BuildDuration))
	return v
}

// collectStatus is the stop-the-world assembly behind every view rebuild.
// With the sharded manager there is no single lock whose acquisition makes
// the view consistent, so it sweeps the spools (flush-on-read), then takes
// the registry lock (no pBox can appear or vanish), every shard lock in
// index order (no event can move a waiter or holder or reach a verdict,
// since verdicts are only reached from event paths that hold a shard lock),
// and the verdict lock (the ledger cannot move). The combined view therefore
// never pairs state from two instants. Caller holds m.snap.
func (m *Manager) collectStatus() Status {
	m.sweepSpools() // flush-on-read: spooled events must be visible (§10)
	m.reg.Lock()
	defer m.reg.Unlock()
	unlockShards := m.lockAllShards()
	defer unlockShards()
	m.verdictMu.Lock()
	defer m.verdictMu.Unlock()
	st := Status{
		Snapshots:   make([]Snapshot, 0, len(m.reg.pboxes)),
		Attribution: m.attributionVerdict(),
		Resources:   m.resourceViewsShardsLocked(),
	}
	for _, p := range m.reg.pboxes {
		st.Snapshots = append(st.Snapshots, p.snapshot())
	}
	sort.Slice(st.Snapshots, func(i, j int) bool { return st.Snapshots[i].ID < st.Snapshots[j].ID })
	if m.attr != nil {
		st.AttributionDropped = m.attr.dropped
	}
	if m.trace != nil {
		st.TraceSeq = m.trace.seq.Load()
	}
	return st
}

// resourceViewsShardsLocked builds the per-resource contention summary,
// ordered by key. Caller holds every shard lock (names resolve under each
// shard's leaf name lock).
func (m *Manager) resourceViewsShardsLocked() []ResourceView {
	var out []ResourceView
	for _, s := range m.shards.shards {
		for key, cl := range s.competitors {
			if len(cl.waiters) > 0 || cl.holders > 0 {
				out = append(out, ResourceView{Key: key, Name: m.ResourceName(key), Waiters: len(cl.waiters), Holders: cl.holders})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TraceView returns the trace entries with sequence number greater than
// since that are still in the ring, plus the latest sequence number, straight
// from the ring — no spool sweep, so spooled events not yet flushed by a
// write-side trigger are not visible; call Status first when they must be.
// Pair it with a view's TraceSeq cursor to stream events newer than the
// snapshot, or to cut the window that ends at it (the flight recorder).
// Returns (nil, 0) when tracing was not enabled.
//
//pbox:snapshotreader
func (m *Manager) TraceView(since uint64) ([]TraceEntry, uint64) {
	if m.trace == nil {
		return nil, 0
	}
	return m.trace.snapshotSince(since)
}

// selfCounters is the manager's self-telemetry state: lock-free counters
// about the manager's own overhead and the cold paths of what it manages,
// updated from the paths they measure with single atomic adds and read by
// SelfStats with no locks. What every Freeze counts lives on the counter
// stripes instead (counterStripe).
type selfCounters struct {
	snapshotBuilds       atomic.Int64
	snapshotHits         atomic.Int64
	snapshotLastBuildNs  atomic.Int64
	snapshotBuildTotalNs atomic.Int64
	spoolSweeps          atomic.Int64
	spoolOverflows       atomic.Int64
	contentionClaims     atomic.Int64
	contentionRevokes    atomic.Int64
	created, released    atomic.Int64
	detections           atomic.Int64
	penalties            atomic.Int64
	penaltyScheduledNs   atomic.Int64
	penaltyServed        histogram // latencyBounds
	verdictLatency       histogram // verdictBounds
}

// verdictBounds are the finite upper bounds of the verdict-latency histogram
// (1µs … 10ms); latencyBounds those of the activity and penalty-served
// histograms (stats.DefaultLatencyBuckets, 10µs … 1s). A final +Inf bucket
// follows each.
var (
	verdictBounds = []time.Duration{time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond}
	latencyBounds = stats.DefaultLatencyBuckets()
)

// latencyBuckets is len(latencyBounds), the most bounds a histogram holds (a
// longer set fails every histogram read: addTo indexes past the array).
const latencyBuckets = 16

// histogram is a fixed-bucket lock-free histogram of nanosecond samples under
// bounds its owner keeps: an observe is a bucket scan plus two atomic adds. It
// keeps no sample count apart from the buckets, so a read taken during an
// observe can never show a count that disagrees with them.
type histogram struct {
	sum    atomic.Int64
	counts [latencyBuckets + 1]atomic.Int64 // a bucket per bound, then +Inf
}

func (h *histogram) observe(bounds []time.Duration, ns int64) {
	i := 0
	for i < len(bounds) && ns > int64(bounds[i]) {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(max(ns, 0))
}

// newLatencyHistogram is an empty read view under bounds, for addTo to fill.
func newLatencyHistogram(bounds []time.Duration) LatencyHistogram {
	return LatencyHistogram{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
}

// addTo adds h's buckets and sum into v; Count is the total of the buckets
// loaded.
func (h *histogram) addTo(v *LatencyHistogram) {
	var total int64
	for i := range v.Counts {
		n := h.counts[i].Load()
		v.Counts[i] += n
		total += n
	}
	v.Count += total
	v.Sum += time.Duration(h.sum.Load())
}

// view is h's read view under bounds.
func (h *histogram) view(bounds []time.Duration) LatencyHistogram {
	v := newLatencyHistogram(bounds)
	h.addTo(&v)
	return v
}

// LatencyHistogram is the read-only view of a fixed-bucket histogram.
// Counts has one more entry than Bounds: the final bucket is unbounded.
// Count is the total of Counts. Bounds is shared by every view of the
// histogram: read it, never write it.
type LatencyHistogram struct {
	Bounds []time.Duration
	Counts []int64
	Sum    time.Duration
	Count  int64
}

// SelfStats is the manager-observes-itself report: how much work the
// isolation layer's own machinery is doing, so reader-interference
// regressions are visible rather than inferred. Exported on /metrics as the
// pbox_self_* series and rendered by `pboxctl self`.
type SelfStats struct {
	// Snapshot read path.
	SnapshotEpoch      uint64        // epoch of the published view (0 = none yet)
	SnapshotAge        time.Duration // manager-clock age of the published view
	SnapshotBuilds     int64         // stop-the-world view rebuilds
	SnapshotCacheHits  int64         // reads served by the published view
	SnapshotLastBuild  time.Duration // wall-clock cost of the latest rebuild
	SnapshotBuildTotal time.Duration // cumulative wall-clock rebuild cost

	// Spool / two-tier ingestion.
	SpoolFlushes       int64 // non-empty spool flushes
	SpoolFlushedEvents int64 // events replayed out of spools
	SpoolSweeps        int64 // view rebuilds' flush-on-read walks (a revocation's one flush counts in ContentionRevocations)
	SpoolOverflows     int64 // appends refused (buffer full, or the pBox's records sit in another worker's spool), forcing a flush

	// Contention-slot table.
	ContentionClaims      int64 // successful fast-path slot claims (CAS 0→id)
	ContentionRevocations int64 // slow-path revocations of a live claim
	ContentionStickySlots int   // slots currently stuck at the contended value

	// Shard locks and the construction-time topology.
	ShardLockAcquisitions int64 // total shard-lock acquisitions, all stripes
	ShardLockMax          int64 // acquisitions on the hottest stripe
	Shards                int   // lock stripes (ShardCount)
	SpoolCapacity         int   // per-worker spool capacity in records (a constant)

	// VerdictLatency distributes the wall-clock length of the verdictMu
	// critical sections (lock wait + detection + action scheduling).
	VerdictLatency LatencyHistogram

	Crossings int64 // conceptual kernel crossings (same as Crossings())

	// StateEvents counts the state rows delivered to the observer chain, by
	// EventType; a manager with neither an Observer nor a trace ring delivers
	// none and counts none.
	StateEvents [eventKinds]int64

	// What the manager did to the pBoxes it manages, counted whether or not
	// anything observes it (the pbox_* families on /metrics).
	Created  int64 // pBoxes created
	Released int64 // pBoxes released; never above Created, so Created−Released are live
	// Activities distributes the execution time of every completed activity
	// (Count activities, Sum their total execution time); ActivityDefer the
	// deferring time of each one that deferred at all (Sum is the total
	// deferring time, as the activities that deferred none add nothing).
	Activities    LatencyHistogram
	ActivityDefer LatencyHistogram
	Detections    int64 // detection verdicts (Algorithm 1 or the pBox-level monitor)
	Penalties     int64 // penalty actions scheduled
	// PenaltyScheduled is the total length of the actions scheduled;
	// PenaltyServed distributes the delays served (Sum is their total).
	PenaltyScheduled time.Duration
	PenaltyServed    LatencyHistogram
}

// SelfStats assembles the self-telemetry report from atomics alone — no
// locks, no flushes; safe to poll at any frequency. The flush counts, the
// state-row counts, the activity histograms and Crossings are sums over the
// manager's counter stripes.
//
//pbox:snapshotreader
func (m *Manager) SelfStats() SelfStats {
	released := m.self.released.Load() // before created, so live is never negative
	st := SelfStats{
		Created:               m.self.created.Load(),
		Released:              released,
		Detections:            m.self.detections.Load(),
		Penalties:             m.self.penalties.Load(),
		PenaltyScheduled:      time.Duration(m.self.penaltyScheduledNs.Load()),
		PenaltyServed:         m.self.penaltyServed.view(latencyBounds),
		Activities:            newLatencyHistogram(latencyBounds),
		ActivityDefer:         newLatencyHistogram(latencyBounds),
		SnapshotBuilds:        m.self.snapshotBuilds.Load(),
		SnapshotCacheHits:     m.self.snapshotHits.Load(),
		SnapshotLastBuild:     time.Duration(m.self.snapshotLastBuildNs.Load()),
		SnapshotBuildTotal:    time.Duration(m.self.snapshotBuildTotalNs.Load()),
		SpoolSweeps:           m.self.spoolSweeps.Load(),
		SpoolOverflows:        m.self.spoolOverflows.Load(),
		ContentionClaims:      m.self.contentionClaims.Load(),
		ContentionRevocations: m.self.contentionRevokes.Load(),
		VerdictLatency:        m.self.verdictLatency.view(verdictBounds),
		Crossings:             m.Crossings(),
		Shards:                m.ShardCount(),
		SpoolCapacity:         m.SpoolCapacity(),
	}
	if v := m.snap.view.Load(); v != nil {
		st.SnapshotEpoch = v.Epoch
		st.SnapshotAge = time.Duration(m.opts.Now() - v.BuiltAt)
	}
	st.ContentionStickySlots = m.contention.stickySlots()
	for i := range m.stripes {
		st.SpoolFlushes += m.stripes[i].flushes.Load()
		st.SpoolFlushedEvents += m.stripes[i].flushedEvents.Load()
		for k := range st.StateEvents {
			st.StateEvents[k] += m.stripes[i].states[k].Load()
		}
		m.stripes[i].exec.addTo(&st.Activities)
		m.stripes[i].deferral.addTo(&st.ActivityDefer)
	}
	for _, s := range m.shards.shards {
		n := s.locks.Load()
		st.ShardLockAcquisitions += n
		if n > st.ShardLockMax {
			st.ShardLockMax = n
		}
	}
	return st
}
