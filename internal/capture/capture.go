// Package capture is the record/replay subsystem: an always-on binary event
// log of everything the pBox manager sees, and an offline replayer that
// drives a fresh manager through the log under different Options.
//
// The pipeline has three parts:
//
//   - Recorder (writer.go) — a core.RecordSink on the observer chain that
//     streams the full event log (state events with manager-clock
//     timestamps, lifecycle transitions, verdicts) to disk in a compact
//     varint/delta-encoded binary format, with an async double-buffered writer, a bounded queue
//     (overflow increments a drop counter instead of blocking the hot
//     path), and crash-safe segment rotation.
//
//   - Replay (replay.go) — loads a log and re-issues the recorded inputs
//     (create/activate/update/freeze/release/shared) against a fresh
//     Manager whose clock is the recorded timestamps, under caller-chosen
//     Options. Verdict records in the log are annotations of what the live
//     run decided; the replay manager re-derives its own. The result is a
//     Digest (digest.go): verdict counts, actions by policy, the
//     attribution matrix, and per-pBox latency percentiles.
//
//   - Sweep (sweep.go) — replays one log across a grid of configs and
//     reports verdict and victim-p95 deltas per config, turning detector
//     tuning into an offline search.
//
// Determinism contract: the manager derives every piece of bookkeeping from
// Options.Now values, and core.Observer's timestamped callbacks carry exactly
// those values (core.Manager.emitStates). Replaying the inputs at the
// recorded timestamps with the same Options therefore reproduces the live run's
// verdict stream bit for bit when the live run was itself deterministic
// (single-threaded, injected clock) — the differential test in
// replay_test.go holds digests identical. For concurrent real-clock
// recordings the linearized replay is a model of the live run, not a copy;
// what is guaranteed is that the same log and config always produce the
// same digest, which is what the corpus determinism gate pins.
package capture

import "pbox/internal/core"

// maxKind is the highest record kind the on-disk format stores (the numbering
// is core.Kind's). core.KindServedFor is not logged: KindServed already
// carries the slept duration.
const maxKind = core.KindShared

// timestamped reports whether the record kind carries an At field on disk
// (these participate in the delta chain).
func timestamped(k core.Kind) bool {
	return k == core.KindActivate || k == core.KindFreeze || k == core.KindState
}

// isInput reports whether the record is replayed as manager input (as opposed
// to an annotation of what the live run decided: detection, action, served,
// activity_end, blocked).
func isInput(k core.Kind) bool {
	switch k {
	case core.KindCreate, core.KindRelease, core.KindActivate, core.KindFreeze, core.KindState, core.KindShared:
		return true
	}
	return false
}
